package wire

import (
	"math"
	"reflect"
	"testing"
)

// FuzzTextRoundTrip: every scalar kind reads back from its own lexical
// form, through both text types, and the array builder agrees with
// ParseText element by element — on those forms and on arbitrary text.
// bits drives the numeric kinds (the float32 from its low half), s the
// string and a free-form text, raw the bytes.
func FuzzTextRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint64, s string, raw []byte) {
		values := []any{
			bits&1 == 1, int32(bits), int64(bits),
			math.Float32frombits(uint32(bits)), math.Float64frombits(bits),
			s, raw,
		}
		for _, v := range values {
			k := KindOf(v)
			text := AppendText(nil, v)
			for _, got := range roundTrips(t, k, text) {
				if !Equal(got, v) || signbit(got) != signbit(v) {
					t.Fatalf("%v: %#v -> %q -> %#v", k, v, text, got)
				}
			}
			if k != KindBytes {
				checkBuilder(t, k, string(text), s)
			}
		}
		if b := AppendText(nil, []byte{}); len(b) != 0 {
			t.Fatalf("empty bytes -> %q", b)
		}
	})
}

// roundTrips parses text as k through both text types, which must agree.
func roundTrips(t *testing.T, k Kind, text []byte) []any {
	t.Helper()
	a, err := ParseText(k, text)
	if err != nil {
		t.Fatalf("%v: ParseText(%q): %v", k, text, err)
	}
	b, err := ParseText(k, string(text))
	if err != nil {
		t.Fatalf("%v: ParseText(string %q): %v", k, text, err)
	}
	return []any{a, b}
}

// checkBuilder feeds texts to a builder of elem and compares each
// accepted element with ParseText's reading of the same text.
func checkBuilder(t *testing.T, elem Kind, texts ...string) {
	t.Helper()
	bs, ok := NewArrayBuilder[string](elem, 0)
	bb, ok2 := NewArrayBuilder[[]byte](elem, len(texts))
	if !ok || !ok2 {
		t.Fatalf("no builder for %v", elem)
	}
	for i, text := range texts {
		want, perr := ParseText(elem, text)
		serr, berr := bs.Add(text), bb.Add([]byte(text))
		if (perr == nil) != (serr == nil) || (perr == nil) != (berr == nil) {
			t.Fatalf("%v %q: ParseText err %v, builder errs %v / %v", elem, text, perr, serr, berr)
		}
		if perr != nil {
			continue
		}
		for _, arr := range []any{bs.Value(), bb.Value()} {
			got := reflect.ValueOf(arr).Index(i).Interface()
			if !Equal(got, want) || signbit(got) != signbit(want) {
				t.Fatalf("%v %q: builder %#v, ParseText %#v", elem, text, got, want)
			}
		}
	}
}

// signbit tells -0 from 0, which Equal does not; a NaN's sign is not
// part of its lexical form.
func signbit(v any) bool {
	switch x := v.(type) {
	case float32:
		return !math.IsNaN(float64(x)) && math.Signbit(float64(x))
	case float64:
		return !math.IsNaN(x) && math.Signbit(x)
	}
	return false
}

// TestTextForms pins the lexical forms the text bindings share.
func TestTextForms(t *testing.T) {
	for _, tc := range []struct {
		v    any
		text string
	}{
		{true, "true"},
		{int32(math.MinInt32), "-2147483648"},
		{int64(math.MaxInt64), "9223372036854775807"},
		{float32(0.1), "0.1"},
		{float32(math.SmallestNonzeroFloat32), "1e-45"},
		{math.Copysign(0, -1), "-0"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{"a <b> & c", "a <b> & c"},
		{[]byte{0, 1, 255}, "AAH/"},
		{[]byte{}, ""},
	} {
		if got := string(AppendText(nil, tc.v)); got != tc.text {
			t.Errorf("AppendText(%#v) = %q, want %q", tc.v, got, tc.text)
		}
	}
	if v, err := ParseText(KindBytes, ""); err != nil || v == nil || len(v.([]byte)) != 0 || v.([]byte) == nil {
		t.Errorf("empty base64Binary = %#v, %v; want []byte{}", v, err)
	}
	for _, k := range []Kind{KindInvalid, KindStruct, KindFloat64Array} {
		if _, err := ParseText(k, "1"); err == nil {
			t.Errorf("ParseText accepted kind %v", k)
		}
	}
	for _, k := range Kinds() {
		b, ok := NewArrayBuilder[string](k.Elem(), 0)
		if ok != k.IsArray() {
			t.Errorf("%v: builder ok=%v, IsArray=%v", k, ok, k.IsArray())
		}
		if v := b.Value(); ok && (KindOf(v) != k || reflect.ValueOf(v).IsNil()) {
			t.Errorf("%v: empty builder gives %#v, want an empty %v", k, v, k)
		}
	}
}

// TestLenAndAppendItem: the element walk every text writer shares.
func TestLenAndAppendItem(t *testing.T) {
	v := []float32{1.5, float32(math.Inf(-1))}
	if Len(v) != 2 || Len(3.0) != 0 || Len([]string{}) != 0 {
		t.Fatal("Len")
	}
	if got := string(AppendItem(AppendItem(nil, v, 0), v, 1)); got != "1.5-Inf" {
		t.Fatalf("AppendItem = %q", got)
	}
	if got := string(AppendItem(nil, []string{"x <y>"}, 0)); got != "x <y>" {
		t.Fatalf("AppendItem string = %q", got)
	}
}
