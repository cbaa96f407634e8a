package wsdl

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"harness2/internal/xmlq"
)

// endpointShapes are the EndpointSet shapes a node can advertise: SOAP
// only, every binding, and capabilities with and without a value.
var endpointShapes = []EndpointSet{
	{SOAPAddress: "http://127.0.0.1:8080/services/S-1"},
	{
		SOAPAddress: "http://127.0.0.1:8080/services/S-1", HTTPAddress: "http://127.0.0.1:8080/rest/S-1",
		XDRAddress: "127.0.0.1:9010", XDRCompress: "flate", ShmAddress: "shm:host:/dev/shm/h2shm-1-1.sock",
		LocalAddress: "local:c/S-1", Class: "S", Instance: "S-1",
	},
}

// generatedDocs renders WSTimeSpec and MatMulSpec under every endpoint
// shape they can carry, plus a document whose capabilities come with and
// without values.
func generatedDocs(t testing.TB) []string {
	t.Helper()
	var docs []string
	for _, spec := range []ServiceSpec{WSTimeSpec(), MatMulSpec()} {
		for _, eps := range endpointShapes {
			if spec.Name == "WSTime" {
				// A string result cannot ride the numeric-only bindings.
				eps.XDRAddress, eps.XDRCompress, eps.ShmAddress = "", "", ""
			}
			d, err := Generate(spec, eps)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, d.String())
		}
	}
	d, err := Generate(MatMulSpec(), endpointShapes[1])
	if err != nil {
		t.Fatal(err)
	}
	b := d.Binding("MatMulXDRBinding")
	b.Capabilities = append(b.Capabilities, Capability{Name: "mux"}, Capability{Name: "window", Value: "64"})
	return append(docs, d.String())
}

// fiveBindingDoc is the generated MatMul document with all five bindings.
func fiveBindingDoc(t testing.TB) string {
	t.Helper()
	d, err := Generate(MatMulSpec(), endpointShapes[1])
	if err != nil {
		t.Fatal(err)
	}
	return d.String()
}

// hostileDocs are documents built to pull the scan and the DOM apart:
// each is either refused by the scan or must come out the same.
var hostileDocs = []string{
	// prefix rebound on a child element
	`<definitions name="X" xmlns:soap="urn:a"><binding name="b" type="t" xmlns:soap="urn:b"><soap:binding/></binding></definitions>`,
	`<definitions name="X" xmlns:soap="urn:a"><binding name="b" type="t"><soap:binding xmlns:soap="urn:b"/></binding></definitions>`,
	// two prefixes for one URI: the DOM recovers the first declared
	`<definitions name="X" xmlns:xdr="urn:a" xmlns:soap="urn:a"><binding name="b" type="t"><soap:binding/></binding></definitions>`,
	`<definitions name="X" xmlns="urn:a" xmlns:soap="urn:a"><binding name="b" type="t"><soap:binding/></binding></definitions>`,
	// one prefix declared twice
	`<definitions name="X" xmlns:soap="urn:a" xmlns:soap="urn:b"><binding name="b" type="t"><soap:binding/></binding></definitions>`,
	// undeclared prefix, empty binding, special prefixes
	`<definitions name="X"><binding name="b" type="t"><soap:binding/></binding></definitions>`,
	`<definitions name="X" xmlns:soap=""><binding name="b" type="t"><soap:binding/></binding></definitions>`,
	`<definitions name="X"><binding name="b" type="t"><xml:binding/></binding></definitions>`,
	`<definitions name="X"><binding name="b" type="t"><xmlns:binding/></binding></definitions>`,
	// a prefixed attribute that reads as a declaration through a URI spelt "xmlns"
	`<definitions name="X" xmlns:bar="xmlns" bar:soap="urn:x" xmlns:zzz="urn:x"><binding name="b" type="t"><zzz:binding/></binding></definitions>`,
	// unprefixed extension element, with and without a default namespace
	`<definitions name="X"><binding name="b" type="t"><binding/></binding></definitions>`,
	`<definitions name="X" xmlns="urn:a"><binding name="b" type="t"><binding/></binding></definitions>`,
	// soap:binding nested under service is not a binding's extension
	`<definitions name="X" xmlns:soap="urn:a"><service name="s"><soap:binding style="document"/><port name="p" binding="b"><soap:binding/><address location="l"/></port></service></definitions>`,
	// a prefixed element at the top level still counts by local name
	`<w:definitions name="X" xmlns:w="urn:w" xmlns:soap="urn:a"><soap:binding name="b" type="t"><soap:binding/></soap:binding><w:message name="m"><w:part name="p" type="xsd:int"/></w:message></w:definitions>`,
	// only the first extension element, input, output and address count
	`<definitions name="X" xmlns:xdr="urn:x" xmlns:shm="urn:s"><binding name="b" type="t"><xdr:binding><xdr:capability name="a"/></xdr:binding><shm:binding><shm:capability name="b"/></shm:binding></binding></definitions>`,
	`<definitions name="X"><portType name="pt"><operation name="o"><input/><input message="second"/><output message="first"/><output message="second"/></operation></portType></definitions>`,
	`<definitions name="X"><service name="s"><port name="p" binding="b"><address/><address location="second"/></port></service></definitions>`,
	// self-closing against open/close forms, and nesting that must be ignored
	`<definitions name="X"></definitions>`,
	`<definitions name="X"/>`,
	`<definitions name="X"><message name="m"></message><message name="n"/><message name="o"><part name="p" type="xsd:double"></part><message name="inner"><part name="q" type="xsd:int"/></message></message></definitions>`,
	`<definitions name="X"><message name="m"><part name="p" type="xsd:int"><part name="q" type="xsd:bogus"/></part></message></definitions>`,
	// attributes found by local name, first one wins, whatever the prefix
	`<definitions xmlns:name="urn:n" name="X"/>`,
	`<definitions a:name="first" name="second" name="third"/>`,
	`<definitions name='X' targetNamespace = "urn:t"/>`,
	// errors in Parse's order: messages before bindings, whatever the document order
	`<definitions name="X"><binding name="b" type="t"/><message name="m"><part name="p" type="xsd:bogus"/></message></definitions>`,
	`<definitions name="X" xmlns:weird="urn:w"><binding name="b" type="t"><weird:binding/></binding><binding name="c" type="t"/></definitions>`,
	`<definitions name="X"><binding name="b" type="t"></binding></definitions>`,
	`<notdefs><message name="m"><part name="p" type="xsd:bogus"/></message></notdefs>`,
	`<definitions name="X" xmlns:soap="urn:a"><binding name="b" type="t"><soap:binding transport="t"/></binding></definitions>`,
	`<definitions name="X"><message name="m"><part name="p" type="invalid"/></message></definitions>`,
	`<definitions name="X"><message name="m"><part name="p"/></message></definitions>`,
	// the rest of the XML grammar
	`<definitions name="X"><!-- a comment --></definitions>`,
	`<definitions name="X"><documentation><![CDATA[ <raw> ]]></documentation></definitions>`,
	`<definitions name="X"><documentation>plain text</documentation></definitions>`,
	`<definitions name="X"><documentation>a ]]> b</documentation></definitions>`,
	`<definitions name="X"><documentation>&amp; &bogus;</documentation></definitions>`,
	"<definitions name=\"X\">\r\n  <message name=\"m\"/>\r\n</definitions>\r\n",
	`<?xml version="1.0" encoding="UTF-8"?><definitions name="X"/>`,
	`<?xml version="2.0"?><definitions name="X"/>`,
	`<definitions name="X"><?1 ?></definitions>`,
	"<?A\xe4?><A/>", // encoding/xml reads the non-ASCII byte into the target name
	`<definitions name="X"><service name="s"><port name="p" binding="b"><address location="http://h/?a=1&amp;b=2"/></port></service></definitions>`,
	`<definitions name="Größe"/>`,
	// malformed
	``,
	`   `,
	`text only`,
	`<definitions name="X">`,
	`<definitions name="X"></definition>`,
	`<definitions name="X"/><definitions name="Y"/>`,
	`<definitions name="X"/>trailing`,
	`</definitions>`,
	`<definitions name="X"><message name="m"></definitions>`,
	`<a><a><a><a><a><a><a><a><a><a><a><a><a><a><a><a><a><a/></a></a></a></a></a></a></a></a></a></a></a></a></a></a></a></a></a>`,
}

// checkDifferential holds parseScan to its contract on one input: the
// same Definitions as the DOM path, the same error, or a refusal.
func checkDifferential(t *testing.T, doc string) (scanned bool) {
	t.Helper()
	got, gotErr := parseScan(doc)
	if errors.Is(gotErr, xmlq.ErrComplex) {
		return false
	}
	want, wantErr := parseDOM(doc)
	switch {
	case gotErr != nil && wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("scan error %q, DOM error %q\ninput: %q", gotErr, wantErr, doc)
		}
	case gotErr != nil || wantErr != nil:
		t.Fatalf("scan err = %v, DOM err = %v\ninput: %q", gotErr, wantErr, doc)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("scan and DOM disagree\nscan: %+v\nDOM:  %+v\ninput: %q", got, want, doc)
	}
	return true
}

func TestScanMatchesDOM(t *testing.T) {
	for _, doc := range generatedDocs(t) {
		if !checkDifferential(t, doc) {
			t.Errorf("a generated document must take the scan path:\n%s", doc)
		}
	}
	for _, doc := range hostileDocs {
		checkDifferential(t, doc)
	}
}

// TestScanRefusals pins which way a few documents go, so that the scan
// neither guesses at namespace resolution nor gives up more than it must.
func TestScanRefusals(t *testing.T) {
	for _, tc := range []struct {
		doc     string
		scanned bool
	}{
		{`<definitions name="X" xmlns:soap="urn:a"><binding name="b" type="t"><soap:binding/></binding></definitions>`, true},
		{`<definitions name="X"><documentation>plain text</documentation></definitions>`, true},
		{`<w:definitions name="X" xmlns:w="urn:w"><w:message name="m"/></w:definitions>`, true},
		{`<definitions name="X"><binding name="b" type="t"/></definitions>`, true}, // a wsdl-level error is the scan's to give
		{`<definitions name="X" xmlns:soap="urn:a"><binding name="b" type="t" xmlns:soap="urn:b"><soap:binding/></binding></definitions>`, false},
		{`<definitions name="X" xmlns:xdr="urn:a" xmlns:soap="urn:a"><binding name="b" type="t"><soap:binding/></binding></definitions>`, false},
		{`<definitions name="X"><binding name="b" type="t"><soap:binding/></binding></definitions>`, false},
		{`<definitions name="X"><!-- a comment --></definitions>`, false},
		{`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<definitions name="X"/>`, true},
		{`<?xml version="2.0"?><definitions name="X"/>`, false},
		{`<definitions name="X">`, false},
	} {
		if got := checkDifferential(t, tc.doc); got != tc.scanned {
			t.Errorf("scanned = %v, want %v: %s", got, tc.scanned, tc.doc)
		}
	}
}

// FuzzWSDLParseDifferential: for every input, the scan and the DOM path
// both succeed with equal Definitions, or both fail alike, or the scan
// refuses.
func FuzzWSDLParseDifferential(f *testing.F) {
	for _, doc := range generatedDocs(f) {
		f.Add(doc)
	}
	for _, doc := range hostileDocs {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		checkDifferential(t, doc)
	})
}

// TestParseStringCountsPath: no silent fallback — a generated document
// counts as a scan, a document with a comment as a DOM parse.
func TestParseStringCountsPath(t *testing.T) {
	doc := fiveBindingDoc(t)
	scan0, dom0 := parseScanned.Value(), parseDOMed.Value()
	want, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if s, d := parseScanned.Value()-scan0, parseDOMed.Value()-dom0; s != 1 || d != 0 {
		t.Fatalf("generated document counted scan=%d dom=%d, want 1, 0", s, d)
	}
	commented := strings.Replace(doc, "<message", "<!-- messages -->\n  <message", 1)
	got, err := ParseString(commented)
	if err != nil {
		t.Fatal(err)
	}
	if s, d := parseScanned.Value()-scan0, parseDOMed.Value()-dom0; s != 1 || d != 1 {
		t.Fatalf("after a commented document scan=%d dom=%d, want 1, 1", s, d)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the comment changed the parse")
	}
}

// TestParseStringAllocs holds the point of the scan: it allocates the
// Definitions and its slices, not a tree.
func TestParseStringAllocs(t *testing.T) {
	doc := fiveBindingDoc(t)
	measure := func(parse func(string) (*Definitions, error)) int64 {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := parse(doc); err != nil {
					b.Fatal(err)
				}
			}
		}).AllocedBytesPerOp()
	}
	scan, dom := measure(parseScan), measure(parseDOM)
	t.Logf("%d-byte document: scan %d B/op, DOM %d B/op", len(doc), scan, dom)
	if scan*5 > dom {
		t.Fatalf("scan allocates %d B/op, want at most a fifth of the DOM path's %d", scan, dom)
	}
}

var parseSink *Definitions

func benchmarkParse(b *testing.B, parse func(string) (*Definitions, error)) {
	doc := fiveBindingDoc(b)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := parse(doc)
		if err != nil {
			b.Fatal(err)
		}
		parseSink = d
	}
}

func BenchmarkParseStringScan(b *testing.B) { benchmarkParse(b, parseScan) }
func BenchmarkParseStringDOM(b *testing.B)  { benchmarkParse(b, parseDOM) }
