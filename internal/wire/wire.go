// Package wire defines the closed set of value types that may cross a
// HARNESS II service boundary, together with type introspection helpers
// shared by every encoder in the framework (SOAP/XML, XDR binary, and the
// in-process JavaObject binding).
//
// The paper constrains the XDR binding to numeric data whose only complex
// type is the array; the SOAP binding additionally carries strings and
// structured records. Keeping the type system closed lets each encoder be
// total over it: any value accepted by Check can be marshalled by every
// binding that supports its kind.
package wire

import (
	"fmt"
	"math"
)

// Kind enumerates the wire-level type of a value.
type Kind int

// The closed set of wire kinds. Array kinds are flat, homogeneous slices.
const (
	KindInvalid Kind = iota
	KindBool
	KindInt32
	KindInt64
	KindFloat32
	KindFloat64
	KindString
	KindBytes        // opaque byte payload
	KindBoolArray    // []bool
	KindInt32Array   // []int32
	KindInt64Array   // []int64
	KindFloat32Array // []float32
	KindFloat64Array // []float64
	KindStringArray  // []string
	KindStruct       // *Struct: named, ordered fields
)

var kindNames = [...]string{
	KindInvalid:      "invalid",
	KindBool:         "boolean",
	KindInt32:        "int",
	KindInt64:        "long",
	KindFloat32:      "float",
	KindFloat64:      "double",
	KindString:       "string",
	KindBytes:        "base64Binary",
	KindBoolArray:    "ArrayOfBoolean",
	KindInt32Array:   "ArrayOfInt",
	KindInt64Array:   "ArrayOfLong",
	KindFloat32Array: "ArrayOfFloat",
	KindFloat64Array: "ArrayOfDouble",
	KindStringArray:  "ArrayOfString",
	KindStruct:       "struct",
}

// String returns the XSD-flavoured name of the kind, matching the type
// names the paper's WSDL listings use (xsd:string, xsd:double, ...).
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Numeric reports whether the kind is a scalar or array numeric type,
// i.e. whether the XDR binding may carry it.
func (k Kind) Numeric() bool {
	switch k {
	case KindInt32, KindInt64, KindFloat32, KindFloat64,
		KindInt32Array, KindInt64Array, KindFloat32Array, KindFloat64Array,
		KindBool, KindBoolArray, KindBytes:
		return true
	}
	return false
}

// IsArray reports whether the kind is one of the homogeneous array kinds.
func (k Kind) IsArray() bool {
	switch k {
	case KindBoolArray, KindInt32Array, KindInt64Array,
		KindFloat32Array, KindFloat64Array, KindStringArray:
		return true
	}
	return false
}

// Elem returns the element kind of an array kind, or KindInvalid.
func (k Kind) Elem() Kind {
	switch k {
	case KindBoolArray:
		return KindBool
	case KindInt32Array:
		return KindInt32
	case KindInt64Array:
		return KindInt64
	case KindFloat32Array:
		return KindFloat32
	case KindFloat64Array:
		return KindFloat64
	case KindStringArray:
		return KindString
	}
	return KindInvalid
}

// KindByName resolves an XSD-flavoured type name (as produced by
// Kind.String) back to its Kind. Unknown names yield KindInvalid.
func KindByName(name string) Kind {
	for k, n := range kindNames {
		if n == name {
			return Kind(k)
		}
	}
	return KindInvalid
}

// Struct is a named record with ordered fields, the wire representation of
// structured SOAP payloads. Field order is significant for encoding.
type Struct struct {
	Name   string
	Fields []Field
}

// Field is a single named member of a Struct.
type Field struct {
	Name  string
	Value any
}

// NewStruct returns an empty struct with the given type name.
func NewStruct(name string) *Struct { return &Struct{Name: name} }

// Set appends or replaces the field named name.
func (s *Struct) Set(name string, v any) *Struct {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			s.Fields[i].Value = v
			return s
		}
	}
	s.Fields = append(s.Fields, Field{Name: name, Value: v})
	return s
}

// Get returns the value of the field named name.
func (s *Struct) Get(name string) (any, bool) {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return s.Fields[i].Value, true
		}
	}
	return nil, false
}

// FieldNames returns the field names in declaration order.
func (s *Struct) FieldNames() []string {
	out := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		out[i] = f.Name
	}
	return out
}

// KindOf classifies a Go value into its wire kind. Unsupported dynamic
// types map to KindInvalid.
func KindOf(v any) Kind {
	switch v.(type) {
	case bool:
		return KindBool
	case int32:
		return KindInt32
	case int64:
		return KindInt64
	case float32:
		return KindFloat32
	case float64:
		return KindFloat64
	case string:
		return KindString
	case []byte:
		return KindBytes
	case []bool:
		return KindBoolArray
	case []int32:
		return KindInt32Array
	case []int64:
		return KindInt64Array
	case []float32:
		return KindFloat32Array
	case []float64:
		return KindFloat64Array
	case []string:
		return KindStringArray
	case *Struct:
		return KindStruct
	}
	return KindInvalid
}

// Check verifies that v (including every field of a nested Struct) lies
// inside the closed wire type set. It returns a descriptive error naming
// the offending path otherwise.
func Check(v any) error { return check(v, "value") }

func check(v any, path string) error {
	k := KindOf(v)
	switch k {
	case KindInvalid:
		return fmt.Errorf("wire: %s: unsupported type %T", path, v)
	case KindStruct:
		s := v.(*Struct)
		if s == nil {
			return fmt.Errorf("wire: %s: nil struct", path)
		}
		seen := map[string]bool{}
		for _, f := range s.Fields {
			if f.Name == "" {
				return fmt.Errorf("wire: %s: struct %q has unnamed field", path, s.Name)
			}
			if seen[f.Name] {
				return fmt.Errorf("wire: %s: struct %q has duplicate field %q", path, s.Name, f.Name)
			}
			seen[f.Name] = true
			if err := check(f.Value, path+"."+f.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// ByteSize returns the intrinsic payload size of v in bytes: the size of
// the raw data before any encoding overhead. Used by the experiment
// harness to compute encoding expansion factors.
func ByteSize(v any) int {
	switch x := v.(type) {
	case bool:
		return 1
	case int32, float32:
		return 4
	case int64, float64:
		return 8
	case string:
		return len(x)
	case []byte:
		return len(x)
	case []bool:
		return len(x)
	case []int32:
		return 4 * len(x)
	case []int64:
		return 8 * len(x)
	case []float32:
		return 4 * len(x)
	case []float64:
		return 8 * len(x)
	case []string:
		n := 0
		for _, s := range x {
			n += len(s)
		}
		return n
	case *Struct:
		n := 0
		for _, f := range x.Fields {
			n += ByteSize(f.Value)
		}
		return n
	}
	return 0
}

// Equal reports deep equality of two wire values, with NaN considered
// equal to NaN so that round-trip tests can use it on arbitrary floats.
func Equal(a, b any) bool {
	ka, kb := KindOf(a), KindOf(b)
	if ka != kb {
		return false
	}
	switch ka {
	case KindBool:
		return a.(bool) == b.(bool)
	case KindInt32:
		return a.(int32) == b.(int32)
	case KindInt64:
		return a.(int64) == b.(int64)
	case KindFloat32:
		return f32eq(a.(float32), b.(float32))
	case KindFloat64:
		return f64eq(a.(float64), b.(float64))
	case KindString:
		return a.(string) == b.(string)
	case KindBytes:
		x, y := a.([]byte), b.([]byte)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case KindBoolArray:
		x, y := a.([]bool), b.([]bool)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case KindInt32Array:
		x, y := a.([]int32), b.([]int32)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case KindInt64Array:
		x, y := a.([]int64), b.([]int64)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case KindFloat32Array:
		x, y := a.([]float32), b.([]float32)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !f32eq(x[i], y[i]) {
				return false
			}
		}
		return true
	case KindFloat64Array:
		x, y := a.([]float64), b.([]float64)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !f64eq(x[i], y[i]) {
				return false
			}
		}
		return true
	case KindStringArray:
		x, y := a.([]string), b.([]string)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case KindStruct:
		x, y := a.(*Struct), b.(*Struct)
		if x.Name != y.Name || len(x.Fields) != len(y.Fields) {
			return false
		}
		for i := range x.Fields {
			if x.Fields[i].Name != y.Fields[i].Name {
				return false
			}
			if !Equal(x.Fields[i].Value, y.Fields[i].Value) {
				return false
			}
		}
		return true
	}
	return false
}

func f32eq(a, b float32) bool {
	if math.IsNaN(float64(a)) && math.IsNaN(float64(b)) {
		return true
	}
	return a == b
}

func f64eq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// Kinds returns every valid kind in a stable order, for exhaustive tests.
func Kinds() []Kind {
	out := make([]Kind, 0, len(kindNames)-1)
	for k := KindInvalid + 1; int(k) < len(kindNames); k++ {
		out = append(out, k)
	}
	return out
}

// Zero returns the zero value of the given kind, or nil for KindInvalid.
func Zero(k Kind) any {
	switch k {
	case KindBool:
		return false
	case KindInt32:
		return int32(0)
	case KindInt64:
		return int64(0)
	case KindFloat32:
		return float32(0)
	case KindFloat64:
		return float64(0)
	case KindString:
		return ""
	case KindBytes:
		return []byte{}
	case KindBoolArray:
		return []bool{}
	case KindInt32Array:
		return []int32{}
	case KindInt64Array:
		return []int64{}
	case KindFloat32Array:
		return []float32{}
	case KindFloat64Array:
		return []float64{}
	case KindStringArray:
		return []string{}
	case KindStruct:
		return NewStruct("")
	}
	return nil
}
