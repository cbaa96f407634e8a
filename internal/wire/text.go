package wire

import (
	"encoding/base64"
	"fmt"
	"strconv"
)

// The lexical form of every scalar kind, shared by the text bindings
// (SOAP, HTTP GET) and the command-line client so that a value reads back
// the same whichever of them carried it:
//
//	boolean       true | false
//	int, long     decimal
//	float, double shortest round-tripping 'g' form at the kind's width,
//	              with NaN, +Inf, -Inf and -0 spelled as strconv does
//	string        the text itself
//	base64Binary  standard BASE64 with padding
//
// Markup escaping is the document format's business, not this file's:
// strings are appended raw.

// AppendText appends the lexical form of scalar v to dst. Values that are
// not scalars append nothing.
func AppendText(dst []byte, v any) []byte {
	switch x := v.(type) {
	case bool:
		return strconv.AppendBool(dst, x)
	case int32:
		return strconv.AppendInt(dst, int64(x), 10)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float32:
		return strconv.AppendFloat(dst, float64(x), 'g', -1, 32)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case string:
		return append(dst, x...)
	case []byte:
		return base64.StdEncoding.AppendEncode(dst, x)
	}
	return dst
}

// ParseText parses text as a scalar of kind k. T lets a streaming decoder
// hand over scanner bytes: numbers parse without a heap copy of the text.
// An empty base64Binary text is an empty, non-nil []byte.
func ParseText[T string | []byte](k Kind, text T) (any, error) {
	switch k {
	case KindBool:
		return strconv.ParseBool(string(text))
	case KindInt32:
		v, err := strconv.ParseInt(string(text), 10, 32)
		return int32(v), err
	case KindInt64:
		return strconv.ParseInt(string(text), 10, 64)
	case KindFloat32:
		v, err := strconv.ParseFloat(string(text), 32)
		return float32(v), err
	case KindFloat64:
		return strconv.ParseFloat(string(text), 64)
	case KindString:
		return string(text), nil
	case KindBytes:
		out := make([]byte, base64.StdEncoding.DecodedLen(len(text)))
		n, err := base64.StdEncoding.Decode(out, []byte(text))
		return out[:n], err
	}
	return nil, fmt.Errorf("wire: kind %v has no text form", k)
}

// ArrayBuilder accumulates element texts into the typed slice of one
// array kind — []bool, []int32, []int64, []float32, []float64 or
// []string — without boxing the elements. Like ParseText it takes
// string or []byte text.
type ArrayBuilder[T string | []byte] struct {
	elem    Kind
	bools   []bool
	ints    []int32
	longs   []int64
	floats  []float32
	doubles []float64
	strs    []string
}

// NewArrayBuilder returns a builder for an array of elem with room for n
// elements; ok is false when elem is not the element kind of an array
// kind.
func NewArrayBuilder[T string | []byte](elem Kind, n int) (b ArrayBuilder[T], ok bool) {
	b.elem = elem
	switch elem {
	case KindBool:
		b.bools = make([]bool, 0, n)
	case KindInt32:
		b.ints = make([]int32, 0, n)
	case KindInt64:
		b.longs = make([]int64, 0, n)
	case KindFloat32:
		b.floats = make([]float32, 0, n)
	case KindFloat64:
		b.doubles = make([]float64, 0, n)
	case KindString:
		b.strs = make([]string, 0, n)
	default:
		return b, false
	}
	return b, true
}

// Add parses text as the next element.
func (b *ArrayBuilder[T]) Add(text T) error {
	var err error
	switch b.elem {
	case KindBool:
		var v bool
		v, err = strconv.ParseBool(string(text))
		b.bools = append(b.bools, v)
	case KindInt32:
		var v int64
		v, err = strconv.ParseInt(string(text), 10, 32)
		b.ints = append(b.ints, int32(v))
	case KindInt64:
		var v int64
		v, err = strconv.ParseInt(string(text), 10, 64)
		b.longs = append(b.longs, v)
	case KindFloat32:
		var v float64
		v, err = strconv.ParseFloat(string(text), 32)
		b.floats = append(b.floats, float32(v))
	case KindFloat64:
		var v float64
		v, err = strconv.ParseFloat(string(text), 64)
		b.doubles = append(b.doubles, v)
	case KindString:
		b.strs = append(b.strs, string(text))
	}
	return err
}

// Value returns the array built so far; it is never a nil slice.
func (b *ArrayBuilder[T]) Value() any {
	switch b.elem {
	case KindBool:
		return b.bools
	case KindInt32:
		return b.ints
	case KindInt64:
		return b.longs
	case KindFloat32:
		return b.floats
	case KindFloat64:
		return b.doubles
	}
	return b.strs
}

// Len returns the element count of array v, or 0 when v is not an array.
func Len(v any) int {
	switch a := v.(type) {
	case []bool:
		return len(a)
	case []int32:
		return len(a)
	case []int64:
		return len(a)
	case []float32:
		return len(a)
	case []float64:
		return len(a)
	case []string:
		return len(a)
	}
	return 0
}

// AppendItem appends the lexical form of element i of array v to dst.
func AppendItem(dst []byte, v any, i int) []byte {
	switch a := v.(type) {
	case []bool:
		return AppendText(dst, a[i])
	case []int32:
		return AppendText(dst, a[i])
	case []int64:
		return AppendText(dst, a[i])
	case []float32:
		return AppendText(dst, a[i])
	case []float64:
		return AppendText(dst, a[i])
	case []string:
		return append(dst, a[i]...)
	}
	return dst
}
