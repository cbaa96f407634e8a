package xdr

import (
	"fmt"
	"math"
	"testing"
)

// The codec benchmarks document the bulk big-endian fast paths: numeric
// arrays are block-converted into a pre-grown buffer on encode and
// decoded by sub-slicing one bounds-checked region, instead of
// element-at-a-time append/read loops.

func BenchmarkEncodeFloat64Array(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(i)
			}
			e := NewEncoder(8*n + 16)
			b.SetBytes(int64(8 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset()
				e.Float64Array(data)
			}
		})
	}
}

func BenchmarkDecodeFloat64Array(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(i)
			}
			e := NewEncoder(8*n + 16)
			e.Float64Array(data)
			buf := e.Bytes()
			b.SetBytes(int64(8 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := NewDecoder(buf)
				if _, err := d.Float64Array(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeInt32Array(b *testing.B) {
	n := 10000
	data := make([]int32, n)
	for i := range data {
		data[i] = int32(i)
	}
	e := NewEncoder(4*n + 16)
	b.SetBytes(int64(4 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Int32Array(data)
	}
}

func BenchmarkEncodeFloat32Array(b *testing.B) {
	n := 10000
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(i)
	}
	e := NewEncoder(4*n + 16)
	b.SetBytes(int64(4 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Float32Array(data)
	}
}

// The kernel pair behind the array codec (EXPERIMENTS.md E16's codec
// stage): the word-swap kernels this build carries against the portable
// element loops, on an 8Ki-element float64 payload each way. On hosts
// whose build carries the portable loops the two read alike.

func BenchmarkSwapWords(b *testing.B) { benchSwap(b, swapPut64, swapGet64) }

func BenchmarkSwapPortable(b *testing.B) { benchSwap(b, portablePut64, portableGet64) }

func benchSwap(b *testing.B, put func([]byte, []uint64), get func([]uint64, []byte)) {
	const n = 8192
	words := make([]uint64, n)
	for i := range words {
		words[i] = math.Float64bits(float64(i) * 1.000001)
	}
	buf := make([]byte, 8*n+4)[4:] // frame payloads sit at 4-byte offsets
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			put(buf, words)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			get(words, buf)
		}
	})
}
