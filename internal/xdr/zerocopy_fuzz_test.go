package xdr

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"harness2/internal/wire"
)

// FuzzXDRZeroCopyDifferential holds the codec's word-swap kernels and
// the portable per-element loops byte-equivalent on arbitrary inputs —
// the same differential harness that guards internal/soap's fast
// decoder. The fuzzer interprets the input bytes as raw element storage
// for each array type in turn, encodes through the codec and through the
// portable loops, requires identical wire bytes, then decodes both ways
// and requires bit-identical values (NaN payloads included). It then holds the two
// owners of decoded arrays to each other the same way: a decoder lending
// arena memory against the allocating one.
func FuzzXDRZeroCopyDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	seed := make([]byte, 8*9)
	for i, v := range []float64{0, math.Copysign(0, -1), 1.5, -2.25,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		binary.LittleEndian.PutUint64(seed[8*i:], math.Float64bits(v))
	}
	f.Add(seed)
	f.Add(bytes.Repeat([]byte{0xFF}, 4*33))

	f.Fuzz(func(t *testing.T, data []byte) {
		f64 := make([]float64, len(data)/8)
		i64 := make([]int64, len(data)/8)
		f32 := make([]float32, len(data)/4)
		i32 := make([]int32, len(data)/4)
		for i := range f64 {
			w := binary.LittleEndian.Uint64(data[8*i:])
			f64[i] = math.Float64frombits(w)
			i64[i] = int64(w)
		}
		for i := range f32 {
			w := binary.LittleEndian.Uint32(data[4*i:])
			f32[i] = math.Float32frombits(w)
			i32[i] = int32(w)
		}

		e := NewEncoder(64)
		e.Float64Array(f64)
		e.Int64Array(i64)
		e.Float32Array(f32)
		e.Int32Array(i32)
		wireLen := len(e.Bytes())
		raw := AppendRaw(nil, f64)
		raw = AppendRaw(raw, i32)
		fast := append(e.Bytes(), raw...)
		want := append(portableEncode(true, f64, i64, f32, i32), portableEncode(false, f64, i32)...)
		if !bytes.Equal(fast, want) {
			t.Fatalf("encode divergence on %d input bytes", len(data))
		}

		// Decode side: the shared wire bytes through the decoder and the
		// portable loops, compared bit for bit (NaN payloads included).
		d := NewDecoder(fast[:wireLen])
		var fd []any
		for _, field := range []func() (any, error){
			func() (any, error) { return d.Float64Array() },
			func() (any, error) { return d.Int64Array() },
			func() (any, error) { return d.Float32Array() },
			func() (any, error) { return d.Int32Array() },
		} {
			v, err := field()
			if err != nil {
				t.Fatal(err)
			}
			fd = append(fd, v)
		}
		pd := portableDecode(fast[:wireLen], wire.KindFloat64Array, wire.KindInt64Array,
			wire.KindFloat32Array, wire.KindInt32Array)
		for i, v := range []any{f64, i64, f32, i32} {
			if !sameBits(fd[i], pd[i]) {
				t.Fatalf("decode divergence in field %d", i)
			}
			if !sameBits(fd[i], v) {
				t.Fatalf("round trip lost a bit pattern in field %d", i)
			}
		}

		// Owner differential: a decoder lending arena memory must decode
		// what the allocating decoder does — same values, same error at
		// the same field — on the intact frame, on one cut short, and on
		// one whose first length word declares more (or less) than the
		// frame holds. The frame gains an opaque and a bool array so every
		// kind the arena lends is covered.
		bools := make([]bool, len(data)%7)
		for i := range bools {
			bools[i] = data[i]&1 == 1
		}
		e = NewEncoder(len(fast) + len(data) + 64)
		e.Float64Array(f64)
		e.Int64Array(i64)
		e.Float32Array(f32)
		e.Int32Array(i32)
		e.Opaque(data)
		e.BoolArray(bools)
		whole := e.Bytes()
		decodeAll := func(d *Decoder) (out []any, err error) {
			for _, field := range []func() (any, error){
				func() (any, error) { return d.Float64Array() },
				func() (any, error) { return d.Int64Array() },
				func() (any, error) { return d.Float32Array() },
				func() (any, error) { return d.Int32Array() },
				func() (any, error) { return d.Opaque() },
				func() (any, error) { return d.BoolArray() },
			} {
				v, err := field()
				if err != nil {
					return out, err
				}
				out = append(out, v)
			}
			return out, nil
		}
		var arena Arena
		frames := [][]byte{whole, whole[:len(data)%(len(whole)+1)]}
		if len(data) >= 4 {
			relen := append([]byte(nil), whole...)
			copy(relen, data[:4]) // the float64 array's length word
			frames = append(frames, relen)
		}
		for round := 0; round < 2; round++ { // the second round decodes into a used slab
			for i, frame := range frames {
				want, wantErr := decodeAll(NewDecoder(frame))
				got, gotErr := decodeAll(arena.Decoder(frame))
				if gotErr != wantErr || len(got) != len(want) {
					t.Fatalf("frame %d: arena decoded %d fields, err %v; heap decoded %d, err %v",
						i, len(got), gotErr, len(want), wantErr)
				}
				for j := range want {
					if !wire.Equal(got[j], want[j]) {
						t.Fatalf("frame %d field %d: arena and heap decoders disagree", i, j)
					}
				}
				if af, hf := got, want; len(af) > 0 {
					a, h := af[0].([]float64), hf[0].([]float64)
					for k := range h {
						if math.Float64bits(a[k]) != math.Float64bits(h[k]) {
							t.Fatalf("frame %d: float64[%d] bit patterns differ", i, k)
						}
					}
				}
				arena.Release()
			}
		}
	})
}
