package soap

import (
	"math/rand"
	"testing"
)

// The decode pair behind EXPERIMENTS.md E14: the streaming scan that
// DecodeCall takes against the DOM parser it falls back to, on one packed
// (BASE64) envelope of 10^5 doubles.

func BenchmarkDecodeCallScan(b *testing.B) {
	benchDecodeCall(b, func(data []byte) (*Call, error) { return Codec{}.DecodeCall(data) })
}

func BenchmarkDecodeCallDOM(b *testing.B) {
	benchDecodeCall(b, Codec{}.domDecodeCall)
}

func benchDecodeCall(b *testing.B, decode func([]byte) (*Call, error)) {
	const n = 100_000
	r := rand.New(rand.NewSource(14))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.NormFloat64()
	}
	data, err := Codec{Arrays: EncodeBase64}.EncodeCall(&Call{Method: "put",
		Params: []Param{{Name: "vals", Value: vals}}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
