package xdr

import "testing"

// FuzzDecoderArrays drives the bulk-array decode fast paths with random
// input: no input may panic or read out of bounds.
func FuzzDecoderArrays(f *testing.F) {
	e := NewEncoder(64)
	e.Float64Array([]float64{1.5, -2.25, 3})
	e.Int32Array([]int32{1, 2, 3, 4})
	f.Add(e.Bytes())
	f.Add([]byte{0, 0, 0, 5})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dec := range []func(*Decoder) (any, error){
			func(d *Decoder) (any, error) { return d.Float64Array() },
			func(d *Decoder) (any, error) { return d.Float32Array() },
			func(d *Decoder) (any, error) { return d.Int64Array() },
			func(d *Decoder) (any, error) { return d.Int32Array() },
			func(d *Decoder) (any, error) { return d.BoolArray() },
			func(d *Decoder) (any, error) { return d.String() },
		} {
			d := NewDecoder(data)
			_, _ = dec(d)
		}
	})
}
