package xdr

// raw.go exposes the bulk numeric-array codec loops (the block fast
// paths behind the XDR array encoders) without the XDR length prefix,
// so other wire formats — notably the SOAP packed-array encoding, which
// carries the same big-endian element bytes in BASE64 text — reuse one
// set of tuned pack/unpack loops instead of growing their own: the same
// word-swap kernels as the Encoder/Decoder array paths (zerocopy.go).

import (
	"fmt"
	"slices"

	"harness2/internal/wire"
)

// RawSize returns the packed byte length of a supported numeric array
// value, or -1 when v is not a packable array.
func RawSize(v any) int {
	switch a := v.(type) {
	case []bool:
		return len(a)
	case []int32:
		return 4 * len(a)
	case []int64:
		return 8 * len(a)
	case []float32:
		return 4 * len(a)
	case []float64:
		return 8 * len(a)
	}
	return -1
}

// AppendRaw appends the big-endian raw element bytes of a numeric array
// (no length prefix, no padding) to dst and returns the extended slice.
// Unsupported values append nothing. Like the length-prefixed encoders,
// it grows dst once and block-converts.
func AppendRaw(dst []byte, v any) []byte {
	size := RawSize(v)
	if size <= 0 {
		return dst
	}
	off := len(dst)
	dst = slices.Grow(dst, size)[:off+size]
	out := dst[off:]
	switch a := v.(type) {
	case []bool:
		for i := range out {
			out[i] = 0
		}
		for i, x := range a {
			if x {
				out[i] = 1
			}
		}
	case []int32:
		swapPut32(out, i32words(a))
	case []int64:
		swapPut64(out, i64words(a))
	case []float32:
		swapPut32(out, f32words(a))
	case []float64:
		swapPut64(out, f64words(a))
	}
	return dst
}

// UnpackRaw decodes n big-endian elements of the given array kind from
// raw (which must be exactly the packed size) into a freshly allocated
// typed slice — the inverse of AppendRaw. The declared count passes the
// same CheckLen guard as every length prefix in the package.
func UnpackRaw(kind wire.Kind, raw []byte, n int) (any, error) {
	if err := CheckLen(n); err != nil {
		return nil, fmt.Errorf("xdr: raw array of %d elements: %w", n, err)
	}
	switch kind {
	case wire.KindBoolArray:
		if len(raw) != n {
			return nil, fmt.Errorf("xdr: bool array length mismatch")
		}
		out := make([]bool, n)
		for i, b := range raw {
			out[i] = b != 0
		}
		return out, nil
	case wire.KindInt32Array:
		if len(raw) != 4*n {
			return nil, fmt.Errorf("xdr: int array length mismatch")
		}
		out := make([]int32, n)
		swapGet32(i32words(out), raw)
		return out, nil
	case wire.KindInt64Array:
		if len(raw) != 8*n {
			return nil, fmt.Errorf("xdr: long array length mismatch")
		}
		out := make([]int64, n)
		swapGet64(i64words(out), raw)
		return out, nil
	case wire.KindFloat32Array:
		if len(raw) != 4*n {
			return nil, fmt.Errorf("xdr: float array length mismatch")
		}
		out := make([]float32, n)
		swapGet32(f32words(out), raw)
		return out, nil
	case wire.KindFloat64Array:
		if len(raw) != 8*n {
			return nil, fmt.Errorf("xdr: double array length mismatch")
		}
		out := make([]float64, n)
		swapGet64(f64words(out), raw)
		return out, nil
	}
	return nil, fmt.Errorf("xdr: cannot unpack kind %v", kind)
}
