package main

import (
	"reflect"
	"testing"
)

func TestParseValueSpellings(t *testing.T) {
	for _, tc := range []struct {
		typ, value string
		want       any
	}{
		{"", "2.5", 2.5},
		{"", "1,2, 3", []float64{1, 2, 3}},
		{"", "hello", "hello"},
		{"double", "-0.5", -0.5},
		{"string", "a,b", "a,b"},
		{"bool", "true", true},
		{"int", "-7", int32(-7)},
		{"long", "9000000000", int64(9000000000)},
	} {
		got, err := parseValue(tc.typ, tc.value)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseValue(%q, %q) = %#v, %v; want %#v", tc.typ, tc.value, got, err, tc.want)
		}
	}
	for _, bad := range [][2]string{{"int", "x"}, {"double", "1,x"}, {"bool", "1,0"}, {"float", "1"}} {
		if _, err := parseValue(bad[0], bad[1]); err == nil {
			t.Errorf("parseValue(%q, %q) accepted", bad[0], bad[1])
		}
	}
}
