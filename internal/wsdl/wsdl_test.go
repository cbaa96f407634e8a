package wsdl

import (
	"strings"
	"testing"

	"harness2/internal/wire"
	"harness2/internal/xmlq"
)

func matmulDefs(t *testing.T) *Definitions {
	t.Helper()
	d, err := Generate(MatMulSpec(), EndpointSet{
		SOAPAddress:  "http://host:8080/services/MatMul",
		XDRAddress:   "host:9010",
		LocalAddress: "local:node1/MatMul-0",
		Class:        "MatMul",
		Instance:     "MatMul-0",
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateMatMul(t *testing.T) {
	d := matmulDefs(t)
	if d.Name != "MatMul" {
		t.Fatalf("name = %q", d.Name)
	}
	if len(d.Messages) != 2 {
		t.Fatalf("messages = %d", len(d.Messages))
	}
	req := d.Message("getResultRequest")
	if req == nil || len(req.Parts) != 2 || req.Parts[0].Type != wire.KindFloat64Array {
		t.Fatalf("request message wrong: %+v", req)
	}
	pt, op := d.Operation("getResult")
	if pt == nil || op == nil || op.Output != "getResultResponse" {
		t.Fatal("operation not resolvable")
	}
	if len(d.Bindings) != 3 || len(d.Services[0].Ports) != 3 {
		t.Fatalf("bindings=%d ports=%d", len(d.Bindings), len(d.Services[0].Ports))
	}
	jb := d.Binding("MatMulJavaBinding")
	if jb == nil || jb.Kind != BindJavaObject || jb.Instance != "MatMul-0" {
		t.Fatalf("java binding = %+v", jb)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateWSTime(t *testing.T) {
	// Fig. 7: WSTime with SOAP and Java bindings, no XDR (string output).
	d, err := Generate(WSTimeSpec(), EndpointSet{
		SOAPAddress:  "http://host:8080/services/WSTime",
		LocalAddress: "local:node1/WSTime",
		Class:        "WSTime",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bindings) != 2 {
		t.Fatalf("bindings = %d", len(d.Bindings))
	}
	xml := d.String()
	for _, want := range []string{"getTimeRequest", "getTimeResponse", "soap:binding", "java:binding", "WSTimeService"} {
		if !strings.Contains(xml, want) {
			t.Errorf("generated WSDL missing %q:\n%s", want, xml)
		}
	}
}

func TestGenerateRejectsXDRWithStrings(t *testing.T) {
	// The XDR binding is numeric-only; WSTime returns a string.
	_, err := Generate(WSTimeSpec(), EndpointSet{XDRAddress: "host:9"})
	if err == nil {
		t.Fatal("Generate should reject XDR endpoint for string-typed service")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(ServiceSpec{}, EndpointSet{SOAPAddress: "x"}); err == nil {
		t.Error("unnamed spec should fail")
	}
	if _, err := Generate(ServiceSpec{Name: "S"}, EndpointSet{SOAPAddress: "x"}); err == nil {
		t.Error("no operations should fail")
	}
	if _, err := Generate(MatMulSpec(), EndpointSet{}); err == nil {
		t.Error("no endpoints should fail")
	}
	spec := ServiceSpec{Name: "S", Operations: []OpSpec{{Name: ""}}}
	if _, err := Generate(spec, EndpointSet{SOAPAddress: "x"}); err == nil {
		t.Error("unnamed operation should fail")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	d := matmulDefs(t)
	xml := d.String()
	got, err := ParseString(xml)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, xml)
	}
	if got.Name != d.Name || got.TargetNamespace != d.TargetNamespace {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Messages) != len(d.Messages) ||
		len(got.PortTypes) != len(d.PortTypes) ||
		len(got.Bindings) != len(d.Bindings) ||
		len(got.Services) != len(d.Services) {
		t.Fatalf("section counts differ")
	}
	for i, b := range d.Bindings {
		g := got.Bindings[i]
		if g.Name != b.Name || g.Kind != b.Kind || g.Type != b.Type ||
			g.Class != b.Class || g.Instance != b.Instance {
			t.Errorf("binding %d: got %+v want %+v", i, g, b)
		}
	}
	for i, p := range d.Services[0].Ports {
		g := got.Services[0].Ports[i]
		if g != p {
			t.Errorf("port %d: got %+v want %+v", i, g, p)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure7Structure(t *testing.T) {
	// The generated WSTime document must expose the structural elements of
	// the paper's Figure 7: message/portType/operation/binding/service
	// with both a SOAP and a Java binding on the same port type.
	d, err := Generate(WSTimeSpec(), EndpointSet{
		SOAPAddress:  "http://host/WSTime",
		LocalAddress: "local:c/WSTime",
	})
	if err != nil {
		t.Fatal(err)
	}
	root := d.Node()
	queries := map[string]int{
		"/definitions/message":                        2,
		"/definitions/portType/operation":             1,
		"/definitions/binding/soap:binding":           1,
		"/definitions/binding/java:binding":           1,
		"/definitions/service/port":                   2,
		"/definitions/service/port/address":           2,
		"//operation[@name='getTime']":                1,
		"//binding[@type='WSTimePortType']":           2,
		"//port[@binding='WSTimeSOAPBinding']":        1,
		"/definitions/service[@name='WSTimeService']": 1,
	}
	for q, want := range queries {
		nodes, err := xmlq.SelectString(root, q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if len(nodes) != want {
			t.Errorf("query %q: got %d want %d\n%s", q, len(nodes), want, root)
		}
	}
}

func TestValidateCatchesBrokenRefs(t *testing.T) {
	base := func() *Definitions { return matmulDefs(t) }

	d := base()
	d.PortTypes[0].Operations[0].Input = "nonexistent"
	if err := d.Validate(); err == nil {
		t.Error("unknown input message should fail validation")
	}

	d = base()
	d.Bindings[0].Type = "nope"
	if err := d.Validate(); err == nil {
		t.Error("unknown binding type should fail validation")
	}

	d = base()
	d.Services[0].Ports[0].Binding = "nope"
	if err := d.Validate(); err == nil {
		t.Error("unknown port binding should fail validation")
	}

	d = base()
	d.Services[0].Ports[0].Address = ""
	if err := d.Validate(); err == nil {
		t.Error("empty address should fail validation")
	}

	d = base()
	d.Messages = append(d.Messages, Message{Name: "getResultRequest"})
	if err := d.Validate(); err == nil {
		t.Error("duplicate message should fail validation")
	}

	d = base()
	// Make an XDR-bound message non-numeric.
	d.Messages[0].Parts[0].Type = wire.KindString
	if err := d.Validate(); err == nil {
		t.Error("non-numeric part behind XDR binding should fail validation")
	}

	// A struct has no text form for an HTTP GET binding to carry.
	d, err := Generate(MatMulSpec(), EndpointSet{SOAPAddress: "http://h/services/m", HTTPAddress: "http://h/rest/m"})
	if err != nil {
		t.Fatal(err)
	}
	d.Messages[0].Parts[0].Type = wire.KindStruct
	if err := d.Validate(); err == nil {
		t.Error("struct part behind HTTP binding should fail validation")
	}
}

func TestPortsByKind(t *testing.T) {
	d := matmulDefs(t)
	for _, k := range []BindingKind{BindSOAP, BindXDR, BindJavaObject} {
		refs := d.PortsByKind(k)
		if len(refs) != 1 {
			t.Fatalf("kind %v: %d refs", k, len(refs))
		}
		if refs[0].Binding.Kind != k {
			t.Fatalf("kind %v: wrong binding", k)
		}
	}
	if refs := d.PortsByKind(BindHTTP); len(refs) != 0 {
		t.Fatalf("no HTTP ports expected, got %d", len(refs))
	}
}

func TestBindingKindString(t *testing.T) {
	if BindSOAP.String() != "soap" || BindXDR.String() != "xdr" ||
		BindJavaObject.String() != "java" || BindHTTP.String() != "http" ||
		BindingKind(99).String() != "unknown" {
		t.Fatal("BindingKind.String broken")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<notdefs/>`,
		`<definitions name="X"><message name="m"><part name="p" type="xsd:bogus"/></message></definitions>`,
		`<definitions name="X"><binding name="b" type="t"/></definitions>`,
		`<definitions name="X" xmlns:weird="urn:w"><binding name="b" type="t"><weird:binding/></binding></definitions>`,
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString should fail for: %s", s)
		}
	}
}

func TestLookupsReturnNilOnMiss(t *testing.T) {
	d := matmulDefs(t)
	if d.Message("x") != nil || d.PortType("x") != nil || d.Binding("x") != nil || d.Service("x") != nil {
		t.Fatal("lookups should return nil on miss")
	}
	if pt, op := d.Operation("x"); pt != nil || op != nil {
		t.Fatal("Operation should return nils on miss")
	}
}

// TestCapabilityRoundTrip proves declared binding capabilities (S33: the
// XDR `compress` advertisement) survive generate → render → parse.
func TestCapabilityRoundTrip(t *testing.T) {
	d, err := Generate(MatMulSpec(), EndpointSet{
		XDRAddress:  "host:9010",
		XDRCompress: "flate",
	})
	if err != nil {
		t.Fatal(err)
	}
	xb := d.Binding("MatMulXDRBinding")
	if xb == nil {
		t.Fatal("no XDR binding")
	}
	if v, ok := xb.Capability("compress"); !ok || v != "flate" {
		t.Fatalf("compress capability = %q, %v", v, ok)
	}
	text := d.String()
	if !strings.Contains(text, `xdr:capability name="compress" value="flate"`) {
		t.Fatalf("rendered document lacks capability element:\n%s", text)
	}
	rt, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	xb2 := rt.Binding("MatMulXDRBinding")
	if xb2 == nil {
		t.Fatal("no XDR binding after round trip")
	}
	if v, ok := xb2.Capability("compress"); !ok || v != "flate" {
		t.Fatalf("round-tripped capability = %q, %v", v, ok)
	}
	if _, ok := xb2.Capability("nope"); ok {
		t.Fatal("phantom capability")
	}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
}
