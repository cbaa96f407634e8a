package invoke

import (
	"reflect"
	"strings"
	"testing"

	"harness2/internal/wire"
)

// allArgs covers every kind the GET binding can carry.
var allArgs = []wire.Arg{
	{Name: "b", Value: true},
	{Name: "i", Value: int32(-42)},
	{Name: "l", Value: int64(1 << 40)},
	{Name: "f", Value: float32(2.5)},
	{Name: "d", Value: 3.14159},
	{Name: "s", Value: "hello <world> & more"},
	{Name: "raw", Value: []byte{0, 1, 2, 255}},
	{Name: "bools", Value: []bool{true, false}},
	{Name: "ints", Value: []int32{1, -2, 3}},
	{Name: "longs", Value: []int64{4, 5}},
	{Name: "floats", Value: []float32{0.5, -1.5}},
	{Name: "doubles", Value: []float64{1e300, -2e-300, 0}},
	{Name: "strs", Value: []string{"a", "b & c", ""}},
	{Name: "empty", Value: ""},
	{Name: "emptyArr", Value: []float64{}},
}

// TestAppendResponseDocMatchesDOMParser checks the renderer round-trips
// every carried kind through the binding's one (DOM) parser.
func TestAppendResponseDocMatchesDOMParser(t *testing.T) {
	doc, err := appendResponseDoc(nil, "op", allArgs)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := parseResponseDoc(doc)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, doc)
	}
	if !reflect.DeepEqual(got, allArgs) {
		t.Fatalf("got  %#v\nwant %#v\n%s", got, allArgs, doc)
	}
}

// TestParseResponseDoc pins the parser's value or error on documents
// other servers, proxies or hand-written fixtures may send: markup the
// renderer never emits, whitespace, entities and malformed input.
func TestParseResponseDoc(t *testing.T) {
	arg := func(name string, v any) []wire.Arg { return []wire.Arg{{Name: name, Value: v}} }
	for _, tc := range []struct {
		name, doc string
		want      []wire.Arg
		err       string // substring of the error; empty wants success
	}{
		{"no_outputs", `<response op="x"/>`, nil, ""},
		{"pretty_printed", "<response op=\"x\">\n  <out name=\"v\" type=\"double\">1.5</out>\n</response>\n", arg("v", 1.5), ""},
		{"no_op_attribute", `<response><out name="v" type="int">7</out></response>`, arg("v", int32(7)), ""},
		{"missing_name", `<response><out type="int">7</out></response>`, arg("", int32(7)), ""},
		{"unknown_type", `<response><out name="v" type="nosuch">7</out></response>`, nil, `unknown type "nosuch"`},
		{"value_parse_error", `<response><out name="v" type="int">x</out></response>`, nil, `output "v": strconv.ParseInt`},
		{"comment_in_value", `<response><out name="v" type="int"><!-- c -->7</out></response>`, arg("v", int32(7)), ""},
		{"entity_in_text", `<response><out name="s" type="string">a &amp; b</out></response>`, arg("s", "a & b"), ""},
		{"padded_text_trimmed", `<response><out name="s" type="string"> padded  </out></response>`, arg("s", "padded"), ""},
		{"empty_string", `<response><out name="s" type="string"/></response>`, arg("s", ""), ""},
		{"empty_string_array", `<response><out name="a" type="ArrayOfString"/></response>`, arg("a", []string{}), ""},
		{"padded_items", `<response><out name="a" type="ArrayOfInt"><item>1</item><item> 2 </item></out></response>`, arg("a", []int32{1, 2}), ""},
		{"empty_int_item", `<response><out name="a" type="ArrayOfInt"><item/><item>2</item></out></response>`, nil, `output "a": strconv.ParseInt`},
		{"stray_text_between_items", `<response><out name="a" type="ArrayOfDouble"><item>1</item>stray<item>2</item></out></response>`, arg("a", []float64{1, 2}), ""},
		{"foreign_type_name", `<response><out name="raw" type="bytes">AAEC</out></response>`, nil, `unknown type "bytes"`},
		{"loose_text_in_root", `<response>loose text<out name="v" type="boolean">true</out></response>`, arg("v", true), ""},
		{"wrong_root", `<wrong op="x"/>`, nil, `root is "wrong"`},
		{"prefixed_root", `<response:ns op="x"/>`, nil, `root is "ns"`},
		{"foreign_child_ignored", `<response><unknown/></response>`, nil, ""},
		{"char_ref_non_ascii", `<response><out name="v" type="string">caf&#233;</out></response>`, arg("v", "café"), ""},
		{"pi_splits_text", `<response><out name="v" type="string">a<?pi?>b</out></response>`, arg("v", "ab"), ""},
		{"not_xml", `not xml at all`, nil, "xmlq: empty document"},
		{"unknown_entity", `<response><out name="v" type="string">bad &entity;</out></response>`, nil, "invalid character entity"},
		{"xml_declaration", `<?xml version="1.0"?>` + "\n" + `<response op="x"><out name="v" type="long">9</out></response>` + "\n", arg("v", int64(9)), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseResponseDoc([]byte(tc.doc))
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %#v, want %#v", got, tc.want)
			}
		})
	}
}

// TestResponseDocScalarEncodeAllocFree is the regression gate for the
// append-based renderer: encoding a scalar-only response into a
// pre-sized buffer must not allocate.
func TestResponseDocScalarEncodeAllocFree(t *testing.T) {
	args := []wire.Arg{
		{Name: "d", Value: 3.14},
		{Name: "n", Value: int64(123456)},
		{Name: "ok", Value: true},
		{Name: "raw", Value: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Name: "s", Value: "plain text"},
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := appendResponseDoc(buf, "op", args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("appendResponseDoc scalar path allocates %.0f times per call, want 0", allocs)
	}
}

func BenchmarkResponseDocEncodeScalars(b *testing.B) {
	args := []wire.Arg{
		{Name: "d", Value: 3.14},
		{Name: "n", Value: int64(123456)},
		{Name: "raw", Value: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
	}
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := appendResponseDoc(buf, "op", args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseResponseDoc(b *testing.B) {
	doc, err := appendResponseDoc(nil, "op", []wire.Arg{
		{Name: "d", Value: 3.14},
		{Name: "vals", Value: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parseResponseDoc(doc); err != nil {
			b.Fatal(err)
		}
	}
}
