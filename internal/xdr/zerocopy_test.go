package xdr

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"harness2/internal/wire"
)

// portableEncode encodes numeric arrays through the portable element
// loops: each one as the Encoder writes it (length word, then big-endian
// elements) when prefix is set, and as AppendRaw writes it otherwise.
func portableEncode(prefix bool, vs ...any) []byte {
	var out []byte
	for _, v := range vs {
		body := make([]byte, RawSize(v))
		switch a := v.(type) {
		case []float64:
			portablePut64(body, f64words(a))
		case []int64:
			portablePut64(body, i64words(a))
		case []float32:
			portablePut32(body, f32words(a))
		case []int32:
			portablePut32(body, i32words(a))
		default:
			panic("portableEncode: not a word array")
		}
		if prefix {
			out = binary.BigEndian.AppendUint32(out, uint32(wire.Len(v)))
		}
		out = append(out, body...)
	}
	return out
}

// portableDecode walks data as length-prefixed arrays of the given kinds
// and decodes each through the portable element loops.
func portableDecode(data []byte, kinds ...wire.Kind) []any {
	var out []any
	for _, k := range kinds {
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		var v any
		switch k {
		case wire.KindFloat64Array:
			a := make([]float64, n)
			portableGet64(f64words(a), data)
			v = a
		case wire.KindInt64Array:
			a := make([]int64, n)
			portableGet64(i64words(a), data)
			v = a
		case wire.KindFloat32Array:
			a := make([]float32, n)
			portableGet32(f32words(a), data)
			v = a
		case wire.KindInt32Array:
			a := make([]int32, n)
			portableGet32(i32words(a), data)
			v = a
		default:
			panic("portableDecode: not a word array")
		}
		data = data[RawSize(v):]
		out = append(out, v)
	}
	return out
}

// sameBits reports whether two numeric arrays hold identical bit
// patterns — stricter than wire.Equal, which treats all NaNs alike.
func sameBits(a, b any) bool {
	switch x := a.(type) {
	case []float64:
		y, ok := b.([]float64)
		return ok && slices.Equal(f64words(x), f64words(y))
	case []float32:
		y, ok := b.([]float32)
		return ok && slices.Equal(f32words(x), f32words(y))
	}
	return wire.Equal(a, b)
}

// TestZeroCopyMatchesPortableEncode holds the word-swap array encoders
// byte-equivalent to the portable loops on a deterministic sweep of
// sizes, including the special values (NaN payloads, infinities, signed
// zero) where a bit-level divergence would be invisible to a value
// comparison.
func TestZeroCopyMatchesPortableEncode(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1024} {
		f64 := make([]float64, n)
		f32 := make([]float32, n)
		i64 := make([]int64, n)
		i32 := make([]int32, n)
		for i := range f64 {
			f64[i] = specials[i%len(specials)] * float64(i+1)
			f32[i] = float32(f64[i])
			i64[i] = int64(i)*0x0123_4567_89ab - int64(n)
			i32[i] = int32(i)*0x1234_567 - int32(n)
		}
		e := NewEncoder(64)
		e.Float64Array(f64)
		e.Float32Array(f32)
		e.Int64Array(i64)
		e.Int32Array(i32)
		raw := AppendRaw(nil, f64)
		raw = AppendRaw(raw, f32)
		raw = AppendRaw(raw, i64)
		raw = AppendRaw(raw, i32)
		got := append(e.Bytes(), raw...)
		want := append(portableEncode(true, f64, f32, i64, i32), portableEncode(false, f64, f32, i64, i32)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: word-swap and portable encodings differ", n)
		}
	}
}

// TestZeroCopyMatchesPortableDecode drives the same wire bytes through
// the decoder and the portable loops and requires bit-identical results.
func TestZeroCopyMatchesPortableDecode(t *testing.T) {
	f64 := []float64{1.5, math.NaN(), math.Inf(-1), -0.0, 1e300}
	i32 := []int32{-1, 0, 1, math.MaxInt32, math.MinInt32}
	data := portableEncode(true, f64, i32)

	d := NewDecoder(data)
	a, err := d.Float64Array()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Int32Array()
	if err != nil {
		t.Fatal(err)
	}
	want := portableDecode(data, wire.KindFloat64Array, wire.KindInt32Array)
	if !sameBits(a, want[0]) || !sameBits(b, want[1]) {
		t.Fatal("word-swap and portable decodes differ")
	}
	if !sameBits(a, f64) || !sameBits(b, i32) {
		t.Fatal("decode lost a bit pattern")
	}
}

// TestDecodeIntoReusesCapacity checks the decode-into contract: a
// destination with enough capacity is reused in place (no allocation),
// an undersized one is replaced.
func TestDecodeIntoReusesCapacity(t *testing.T) {
	e := NewEncoder(64)
	want := []float64{1, 2, 3, 4}
	e.Float64Array(want)
	data := e.Bytes()

	dst := make([]float64, 0, 16)
	d := NewDecoder(data)
	got, err := d.Float64ArrayInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !wire.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("decode-into did not reuse caller capacity")
	}

	// Undersized destination: must grow, still correct.
	d = NewDecoder(data)
	got, err = d.Float64ArrayInto(make([]float64, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !wire.Equal(got, want) {
		t.Fatalf("grown decode got %v want %v", got, want)
	}

	// Steady state after the first call is allocation-free.
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecoder(data)
		if _, err := d.Float64ArrayInto(got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decode-into allocated %.1f times per run", allocs)
	}
}

// TestEncodeArraysZeroAlloc pins the zero-copy claim: array encoding
// into a pre-grown encoder performs no allocations.
func TestEncodeArraysZeroAlloc(t *testing.T) {
	a := make([]float64, 512)
	for i := range a {
		a[i] = float64(i) * 1.000001
	}
	e := NewEncoder(8 * len(a) * 2)
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		e.Float64Array(a)
	})
	if allocs != 0 {
		t.Fatalf("encode allocated %.1f times per run", allocs)
	}
}

// TestCheckLen pins the unified length guard shared by the length-prefix
// decoder, the value encoder, and the raw unpacker (satellite of S30:
// previously xdr.go and raw.go each had their own partial check).
func TestCheckLen(t *testing.T) {
	for _, n := range []int{0, 1, MaxLen} {
		if err := CheckLen(n); err != nil {
			t.Fatalf("CheckLen(%d) = %v", n, err)
		}
	}
	for _, n := range []int{-1, MaxLen + 1, math.MaxInt} {
		if err := CheckLen(n); err == nil {
			t.Fatalf("CheckLen(%d) accepted", n)
		}
	}

	// Decode side: a declared length just over the guard is rejected
	// before any allocation happens.
	e := NewEncoder(8)
	e.Uint32(uint32(MaxLen + 1))
	d := NewDecoder(e.Bytes())
	if _, err := d.Float64Array(); err == nil {
		t.Fatal("oversized declared length accepted by decoder")
	}

	// Raw side: UnpackRaw shares the same guard.
	if _, err := UnpackRaw(wire.KindFloat64Array, nil, MaxLen+1); err == nil {
		t.Fatal("oversized count accepted by UnpackRaw")
	}
	if _, err := UnpackRaw(wire.KindFloat64Array, nil, -1); err == nil {
		t.Fatal("negative count accepted by UnpackRaw")
	}
}

// TestRawRoundTripBothPaths round-trips AppendRaw/UnpackRaw and holds
// the packed bytes to the portable loops' on every word kind.
func TestRawRoundTripBothPaths(t *testing.T) {
	values := []any{
		[]bool{true, false, true},
		[]int32{-5, 0, 5, math.MinInt32},
		[]int64{-5e12, 0, 5e12},
		[]float32{1.5, float32(math.Inf(1)), -0},
		[]float64{math.NaN(), 2.5, -1e300},
	}
	for _, v := range values {
		raw := AppendRaw(nil, v)
		k := wire.KindOf(v)
		if k != wire.KindBoolArray && !bytes.Equal(raw, portableEncode(false, v)) {
			t.Fatalf("kind=%v: packed bytes differ from the portable loops'", k)
		}
		got, err := UnpackRaw(k, raw, wire.Len(v))
		if err != nil {
			t.Fatalf("kind=%v: %v", k, err)
		}
		if !sameBits(got, v) {
			t.Fatalf("kind=%v: got %v want %v", k, got, v)
		}
	}
}
