// Package xdr implements the External Data Representation standard
// (RFC 1832 / RFC 4506) subset needed by the HARNESS II XDR binding:
// 32/64-bit integers, IEEE single and double floats, booleans, strings,
// variable-length opaque data, and variable-length arrays of those.
//
// The paper's XDR binding "is designed to be limited to the transfer of
// numerical data. As such, the only type of complex data available is the
// array" — this package enforces exactly that boundary when used through
// EncodeValue/DecodeValue, while the lower-level Encoder/Decoder expose
// the primitive XDR grammar.
//
// All quantities are big-endian and padded to 4-byte alignment, per the
// standard.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"harness2/internal/wire"
)

// Errors returned by the decoder.
var (
	ErrShortBuffer = errors.New("xdr: short buffer")
	ErrBadBool     = errors.New("xdr: boolean not 0 or 1")
	ErrTooLarge    = errors.New("xdr: declared length exceeds limit")
)

// MaxLen bounds any single declared string/opaque/array length to guard
// against hostile or corrupt length prefixes (256 Mi elements).
const MaxLen = 1 << 28

// CheckLen is the one guard every declared element count passes through,
// on both sides of the wire: the decoder's length prefixes, EncodeValue's
// outgoing array/opaque/string lengths, and the raw.go bulk helpers all
// funnel here, so the overflow rules cannot drift apart again. It rejects
// negative counts and anything above MaxLen — which also proves the count
// fits a uint32, making the uint32(n) length-word conversions lossless.
func CheckLen(n int) error {
	if n < 0 || n > MaxLen {
		return ErrTooLarge
	}
	return nil
}

// Encoder appends XDR-encoded primitives to an internal buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The slice is owned by the encoder
// until Reset is called.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the buffer for reuse, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Int32 encodes a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes an unsigned hyper integer.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 encodes a hyper integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool encodes a boolean as an int32 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// Float32 encodes an IEEE 754 single-precision float.
func (e *Encoder) Float32(v float32) { e.Uint32(math.Float32bits(v)) }

// Float64 encodes an IEEE 754 double-precision float.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Opaque encodes variable-length opaque data: a length word followed by
// the bytes, zero-padded to a 4-byte boundary.
func (e *Encoder) Opaque(b []byte) {
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	e.pad(len(b))
}

// String encodes a string as variable-length opaque data.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	e.pad(len(s))
}

func (e *Encoder) pad(n int) {
	for n%4 != 0 {
		e.buf = append(e.buf, 0)
		n++
	}
}

// grow widens the buffer by n bytes in one step and returns the
// sub-slice to fill — the block fast path shared by the numeric array
// encoders, replacing per-element append (and its repeated capacity
// checks) with a single capacity check and a tight fill loop.
func (e *Encoder) grow(n int) []byte {
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:off+n]
	return e.buf[off : off+n : off+n]
}

// The numeric array encoders widen the buffer once and byte-swap the
// whole array into it (zerocopy.go): no per-element append.

// Int32Array encodes a variable-length array of int32.
func (e *Encoder) Int32Array(a []int32) {
	e.Uint32(uint32(len(a)))
	swapPut32(e.grow(4*len(a)), i32words(a))
}

// Int64Array encodes a variable-length array of hyper.
func (e *Encoder) Int64Array(a []int64) {
	e.Uint32(uint32(len(a)))
	swapPut64(e.grow(8*len(a)), i64words(a))
}

// Float32Array encodes a variable-length array of single floats.
func (e *Encoder) Float32Array(a []float32) {
	e.Uint32(uint32(len(a)))
	swapPut32(e.grow(4*len(a)), f32words(a))
}

// Float64Array encodes a variable-length array of double floats, the hot
// path of the XDR binding.
func (e *Encoder) Float64Array(a []float64) {
	e.Uint32(uint32(len(a)))
	swapPut64(e.grow(8*len(a)), f64words(a))
}

// BoolArray encodes a variable-length array of booleans.
func (e *Encoder) BoolArray(a []bool) {
	e.Uint32(uint32(len(a)))
	dst := e.grow(4 * len(a))
	for i, v := range a {
		var w uint32
		if v {
			w = 1
		}
		binary.BigEndian.PutUint32(dst[4*i:], w)
	}
}

// StringArray encodes a variable-length array of strings.
func (e *Encoder) StringArray(a []string) {
	e.Uint32(uint32(len(a)))
	for _, v := range a {
		e.String(v)
	}
}

// Decoder consumes XDR primitives from a byte slice.
type Decoder struct {
	buf   []byte
	off   int
	arena *Arena // owner of decoded slices; nil = the caller (see Arena)
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf,
// and every slice it returns is freshly allocated and the caller's to keep.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes an unsigned hyper integer.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Int64 decodes a hyper integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes a boolean, rejecting any value other than 0 or 1.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, ErrBadBool
}

// Float32 decodes a single-precision float.
func (d *Decoder) Float32() (float32, error) {
	v, err := d.Uint32()
	return math.Float32frombits(v), err
}

// Float64 decodes a double-precision float.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

func (d *Decoder) declaredLen() (int, error) {
	n, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	if err := CheckLen(int(n)); err != nil {
		return 0, err
	}
	return int(n), nil
}

// opaque consumes variable-length opaque data and returns it in place, as
// a sub-slice of the frame.
func (d *Decoder) opaque() ([]byte, error) {
	n, err := d.declaredLen()
	if err != nil {
		return nil, err
	}
	padded := (n + 3) &^ 3
	if d.Remaining() < padded {
		return nil, ErrShortBuffer
	}
	src := d.buf[d.off : d.off+n]
	d.off += padded
	return src, nil
}

// Opaque decodes variable-length opaque data into a slice that does not
// alias the frame.
func (d *Decoder) Opaque() ([]byte, error) {
	src, err := d.opaque()
	if err != nil {
		return nil, err
	}
	out := alloc[byte](d, len(src))
	copy(out, src)
	return out, nil
}

// String decodes a variable-length string (one copy, straight out of the
// frame; strings are never arena memory).
func (d *Decoder) String() (string, error) {
	src, err := d.opaque()
	return string(src), err
}

// array carves the next elemSize*n bytes out of the frame in one bounds
// check, so the per-element conversion loops below run against a single
// sub-slice — the block decode path mirroring Encoder.grow.
func (d *Decoder) array(n, elemSize int) ([]byte, error) {
	if d.Remaining() < elemSize*n {
		return nil, ErrShortBuffer
	}
	src := d.buf[d.off : d.off+elemSize*n : d.off+elemSize*n]
	d.off += elemSize * n
	return src, nil
}

// Int32Array decodes a variable-length array of int32.
func (d *Decoder) Int32Array() ([]int32, error) { return d.Int32ArrayInto(nil) }

// Int32ArrayInto decodes an int32 array into dst, reusing its capacity
// when it suffices and otherwise taking the destination from the decoder's
// arena (or the heap, without one); it returns dst resliced to the decoded
// length, and never a nil slice, even for an empty array. The decode-into
// variants let steady-state callers (preallocated workspaces) take arrays
// off the wire with zero allocations.
func (d *Decoder) Int32ArrayInto(dst []int32) ([]int32, error) {
	n, err := d.declaredLen()
	if err != nil {
		return nil, err
	}
	src, err := d.array(n, 4)
	if err != nil {
		return nil, err
	}
	if cap(dst) < n || dst == nil {
		dst = alloc[int32](d, n)
	}
	dst = dst[:n]
	swapGet32(i32words(dst), src)
	return dst, nil
}

// Int64Array decodes a variable-length array of hyper.
func (d *Decoder) Int64Array() ([]int64, error) { return d.Int64ArrayInto(nil) }

// Int64ArrayInto is the decode-into variant of Int64Array; see
// Int32ArrayInto for the contract.
func (d *Decoder) Int64ArrayInto(dst []int64) ([]int64, error) {
	n, err := d.declaredLen()
	if err != nil {
		return nil, err
	}
	src, err := d.array(n, 8)
	if err != nil {
		return nil, err
	}
	if cap(dst) < n || dst == nil {
		dst = alloc[int64](d, n)
	}
	dst = dst[:n]
	swapGet64(i64words(dst), src)
	return dst, nil
}

// Float32Array decodes a variable-length array of single floats.
func (d *Decoder) Float32Array() ([]float32, error) { return d.Float32ArrayInto(nil) }

// Float32ArrayInto is the decode-into variant of Float32Array; see
// Int32ArrayInto for the contract.
func (d *Decoder) Float32ArrayInto(dst []float32) ([]float32, error) {
	n, err := d.declaredLen()
	if err != nil {
		return nil, err
	}
	src, err := d.array(n, 4)
	if err != nil {
		return nil, err
	}
	if cap(dst) < n || dst == nil {
		dst = alloc[float32](d, n)
	}
	dst = dst[:n]
	swapGet32(f32words(dst), src)
	return dst, nil
}

// Float64Array decodes a variable-length array of double floats.
func (d *Decoder) Float64Array() ([]float64, error) { return d.Float64ArrayInto(nil) }

// Float64ArrayInto is the decode-into variant of Float64Array — the hot
// path of the XDR binding taken with a pooled destination; see
// Int32ArrayInto for the contract.
func (d *Decoder) Float64ArrayInto(dst []float64) ([]float64, error) {
	n, err := d.declaredLen()
	if err != nil {
		return nil, err
	}
	src, err := d.array(n, 8)
	if err != nil {
		return nil, err
	}
	if cap(dst) < n || dst == nil {
		dst = alloc[float64](d, n)
	}
	dst = dst[:n]
	swapGet64(f64words(dst), src)
	return dst, nil
}

// BoolArray decodes a variable-length array of booleans.
func (d *Decoder) BoolArray() ([]bool, error) {
	n, err := d.declaredLen()
	if err != nil {
		return nil, err
	}
	if d.Remaining() < 4*n {
		return nil, ErrShortBuffer // before n sizes anything
	}
	out := alloc[bool](d, n)
	for i := range out {
		v, err := d.Bool()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// StringArray decodes a variable-length array of strings.
func (d *Decoder) StringArray() ([]string, error) {
	n, err := d.declaredLen()
	if err != nil {
		return nil, err
	}
	if d.Remaining() < 4*n {
		return nil, ErrShortBuffer // before n sizes anything
	}
	out := make([]string, n)
	for i := range out {
		v, err := d.String()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// elemCount returns the element count of a variable-length wire value,
// or 0 for scalars — the encode-side input to CheckLen.
func elemCount(v any) int {
	switch x := v.(type) {
	case []byte:
		return len(x)
	case []bool:
		return len(x)
	case []int32:
		return len(x)
	case []int64:
		return len(x)
	case []float32:
		return len(x)
	case []float64:
		return len(x)
	}
	return 0
}

// EncodeValue appends a tagged wire value. A one-word kind discriminant
// precedes the payload so DecodeValue can reconstruct the dynamic type.
// Only kinds admitted by the XDR binding (wire.Kind.Numeric, i.e. numeric
// scalars, numeric arrays, booleans and opaque bytes) are accepted.
func EncodeValue(e *Encoder, v any) error {
	k := wire.KindOf(v)
	if !k.Numeric() {
		return fmt.Errorf("xdr: kind %v not supported by the XDR binding (numeric data and arrays only)", k)
	}
	// The encoder must refuse what the decoder would: an array beyond
	// MaxLen would be rejected by every peer (and beyond 2^32 its length
	// word would silently truncate), so the one shared guard runs here
	// before any bytes are produced.
	if err := CheckLen(elemCount(v)); err != nil {
		return fmt.Errorf("xdr: %v of %d elements: %w", k, elemCount(v), err)
	}
	e.Uint32(uint32(k))
	switch x := v.(type) {
	case bool:
		e.Bool(x)
	case int32:
		e.Int32(x)
	case int64:
		e.Int64(x)
	case float32:
		e.Float32(x)
	case float64:
		e.Float64(x)
	case []byte:
		e.Opaque(x)
	case []bool:
		e.BoolArray(x)
	case []int32:
		e.Int32Array(x)
	case []int64:
		e.Int64Array(x)
	case []float32:
		e.Float32Array(x)
	case []float64:
		e.Float64Array(x)
	default:
		return fmt.Errorf("xdr: unreachable kind %v", k)
	}
	return nil
}

// DecodeValue reads one tagged wire value written by EncodeValue.
func DecodeValue(d *Decoder) (any, error) {
	kw, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	k := wire.Kind(kw)
	switch k {
	case wire.KindBool:
		return d.Bool()
	case wire.KindInt32:
		return d.Int32()
	case wire.KindInt64:
		return d.Int64()
	case wire.KindFloat32:
		return d.Float32()
	case wire.KindFloat64:
		return d.Float64()
	case wire.KindBytes:
		return d.Opaque()
	case wire.KindBoolArray:
		return d.BoolArray()
	case wire.KindInt32Array:
		return d.Int32Array()
	case wire.KindInt64Array:
		return d.Int64Array()
	case wire.KindFloat32Array:
		return d.Float32Array()
	case wire.KindFloat64Array:
		return d.Float64Array()
	}
	return nil, fmt.Errorf("xdr: invalid value tag %d", kw)
}

// EncodeValues encodes a sequence of tagged values prefixed by a count.
func EncodeValues(e *Encoder, vs []any) error {
	e.Uint32(uint32(len(vs)))
	for _, v := range vs {
		if err := EncodeValue(e, v); err != nil {
			return err
		}
	}
	return nil
}

// DecodeValues decodes a counted sequence of tagged values.
func DecodeValues(d *Decoder) ([]any, error) {
	n, err := d.declaredLen()
	if err != nil {
		return nil, err
	}
	// A value is at least a tag word and a payload word: a count the frame
	// cannot hold is refused before it sizes anything.
	if n > d.Remaining()/8 {
		return nil, ErrShortBuffer
	}
	out := make([]any, n)
	for i := range out {
		if out[i], err = DecodeValue(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteFrame writes a length-prefixed XDR record to w: a 4-byte big-endian
// payload length followed by the payload. This is the record framing used
// by the XDR socket binding.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed record from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxLen {
		return nil, ErrTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
