package xmlq

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

const sampleWSDL = `<?xml version="1.0"?>
<definitions name="MatMul" xmlns="http://schemas.xmlsoap.org/wsdl/"
             xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/">
  <message name="getResultRequest">
    <part name="mata" type="xsd:ArrayOfDouble"/>
    <part name="matb" type="xsd:ArrayOfDouble"/>
  </message>
  <message name="getResultResponse">
    <part name="result" type="xsd:ArrayOfDouble"/>
  </message>
  <portType name="MatMulPortType">
    <operation name="getResult">
      <input message="getResultRequest"/>
      <output message="getResultResponse"/>
    </operation>
  </portType>
  <binding name="MatMulSOAPBinding" type="MatMulPortType">
    <soap:binding style="rpc" transport="http://schemas.xmlsoap.org/soap/http"/>
  </binding>
  <binding name="MatMulJavaBinding" type="MatMulPortType">
    <format>java</format>
  </binding>
  <service name="MatMulService">
    <port name="SOAPPort" binding="MatMulSOAPBinding">
      <address location="http://host:8080/matmul"/>
    </port>
    <port name="JavaPort" binding="MatMulJavaBinding">
      <address location="local:MatMul"/>
    </port>
  </service>
</definitions>`

func mustParse(t *testing.T, s string) *Node {
	t.Helper()
	n, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestParseBasics(t *testing.T) {
	root := mustParse(t, sampleWSDL)
	if root.Local != "definitions" {
		t.Fatalf("root = %s", root.Local)
	}
	if got := root.AttrOr("name", ""); got != "MatMul" {
		t.Fatalf("name attr = %q", got)
	}
	if len(root.ChildrenNamed("message")) != 2 {
		t.Fatalf("messages = %d", len(root.ChildrenNamed("message")))
	}
	svc := root.Child("service")
	if svc == nil || svc.AttrOr("name", "") != "MatMulService" {
		t.Fatal("service not found")
	}
	if svc.Parent != root {
		t.Fatal("parent link broken")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"not xml at all <",
		"<a><b></a></b>",
		"<a/><b/>", // two roots
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) should fail", s)
		}
	}
}

func TestTextAccumulation(t *testing.T) {
	n := mustParse(t, "<a> hello <b>inner</b> world </a>")
	if n.Text != "helloworld" {
		t.Fatalf("text = %q", n.Text)
	}
	if n.Child("b").Text != "inner" {
		t.Fatalf("inner text = %q", n.Child("b").Text)
	}
}

func TestRoundTripSerialise(t *testing.T) {
	root := mustParse(t, sampleWSDL)
	out := root.String()
	again, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, out)
	}
	if again.Count() != root.Count() {
		t.Fatalf("node count changed: %d -> %d", root.Count(), again.Count())
	}
	if again.Child("service").Children[0].AttrOr("binding", "") != "MatMulSOAPBinding" {
		t.Fatal("attribute lost in round trip")
	}
}

func TestEscaping(t *testing.T) {
	n := NewNode("a").SetText(`x < y & "z"`)
	n.SetAttr("q", `a"b<c&d`)
	again, err := ParseString(n.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.Text != `x < y & "z"` {
		t.Fatalf("text = %q", again.Text)
	}
	if got := again.AttrOr("q", ""); got != `a"b<c&d` {
		t.Fatalf("attr = %q", got)
	}
}

func TestBuilderAPI(t *testing.T) {
	root := NewNode("definitions")
	root.SetAttr("name", "T")
	root.AddNew("service").SetAttr("name", "S").AddNew("port").SetAttr("name", "P")
	if root.Child("service").Child("port").AttrOr("name", "") != "P" {
		t.Fatal("builder chain failed")
	}
	if root.Child("service").Parent != root {
		t.Fatal("parent not set by Add")
	}
	p := NewNode("soap:binding")
	if p.Prefix != "soap" || p.Local != "binding" {
		t.Fatalf("prefix split: %q %q", p.Prefix, p.Local)
	}
}

func TestClone(t *testing.T) {
	root := mustParse(t, sampleWSDL)
	c := root.Clone()
	if c.Count() != root.Count() {
		t.Fatal("clone count differs")
	}
	c.Child("service").SetAttr("name", "Changed")
	if root.Child("service").AttrOr("name", "") != "MatMulService" {
		t.Fatal("clone aliases original")
	}
	if c.Child("service").Parent != c {
		t.Fatal("clone parent links broken")
	}
}

func TestQuerySelect(t *testing.T) {
	root := mustParse(t, sampleWSDL)
	cases := []struct {
		q    string
		want int
	}{
		{"/definitions", 1},
		{"/definitions/message", 2},
		{"/definitions/message/part", 3},
		{"/definitions/service/port", 2},
		{"//port", 2},
		{"//address", 2},
		{"/definitions/service[@name='MatMulService']", 1},
		{"/definitions/service[@name='Nope']", 0},
		{"/definitions/binding[@type='MatMulPortType']", 2},
		{"//port[@binding='MatMulJavaBinding']", 1},
		{"/definitions/*", 6},
		{"//operation[input]", 1},
		{"//operation[missing]", 0},
		{"//binding[format='java']", 1},
		{"//binding[format='cpp']", 0},
		{"//soap:binding", 1},
		{"/nomatch", 0},
		{"//part[@name='mata']", 1},
	}
	for _, c := range cases {
		nodes, err := SelectString(root, c.q)
		if err != nil {
			t.Errorf("query %q: %v", c.q, err)
			continue
		}
		if len(nodes) != c.want {
			t.Errorf("query %q: got %d nodes, want %d", c.q, len(nodes), c.want)
		}
	}
}

func TestQueryValues(t *testing.T) {
	root := mustParse(t, sampleWSDL)
	q, err := Compile("//port/address/@location")
	if err != nil {
		t.Fatal(err)
	}
	vals := q.Values(root)
	if len(vals) != 2 || vals[0] != "http://host:8080/matmul" || vals[1] != "local:MatMul" {
		t.Fatalf("values = %v", vals)
	}
	q2, _ := Compile("//binding/format")
	if vs := q2.Values(root); len(vs) != 1 || vs[0] != "java" {
		t.Fatalf("text values = %v", vs)
	}
}

func TestQueryMatches(t *testing.T) {
	root := mustParse(t, sampleWSDL)
	yes := []string{"//port", "/definitions/service/@name", "//soap:binding/@style"}
	no := []string{"//nothing", "//port/@nonexistent"}
	for _, s := range yes {
		q, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		if !q.Matches(root) {
			t.Errorf("%q should match", s)
		}
	}
	for _, s := range no {
		q, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		if q.Matches(root) {
			t.Errorf("%q should not match", s)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"relative/path",
		"/a/",
		"/a//",
		"/a[unterminated",
		"/a[@x=unquoted]",
		"/a[@x='mismatch\"]",
		"/a[]",
		"/a/@",
		"//",
		"/a[=v]",
		"/a[@='v']",
	}
	for _, s := range bad {
		if _, err := Compile(s); err == nil {
			t.Errorf("Compile(%q) should fail", s)
		}
	}
}

func TestDescendantDedup(t *testing.T) {
	// //a//b where nested a elements could yield the same b twice.
	root := mustParse(t, `<r><a><a><b/></a></a></r>`)
	nodes, err := SelectString(root, "//a//b")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 {
		t.Fatalf("want 1 deduped node, got %d", len(nodes))
	}
}

func TestDescendantSelfOnFirstStep(t *testing.T) {
	root := mustParse(t, `<a><a/><c><a/></c></a>`)
	nodes, err := SelectString(root, "//a")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 { // root itself + two descendants
		t.Fatalf("want 3, got %d", len(nodes))
	}
}

func TestSortChildren(t *testing.T) {
	root := mustParse(t, `<r><b name="2"/><a/><b name="1"/></r>`)
	root.SortChildren()
	got := []string{}
	for _, c := range root.Children {
		got = append(got, c.Local+c.AttrOr("name", ""))
	}
	want := []string{"a", "b1", "b2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v", got)
		}
	}
}

func TestPathAndWalkPrune(t *testing.T) {
	root := mustParse(t, sampleWSDL)
	port := root.Child("service").Children[0]
	if got := port.Path(); got != "/definitions/service/port" {
		t.Fatalf("path = %q", got)
	}
	// Prune: stop descending at service; addresses must not be visited.
	visited := 0
	root.Walk(func(n *Node) bool {
		visited++
		return n.Local != "service"
	})
	if visited >= root.Count() {
		t.Fatal("walk did not prune")
	}
}

func TestPropertyEscapeRoundTrip(t *testing.T) {
	f := func(text string) bool {
		// Strip control chars the XML parser legitimately rejects.
		clean := strings.Map(func(r rune) rune {
			if r < 0x20 && r != '\t' && r != '\n' && r != '\r' {
				return -1
			}
			if r == 0xFFFE || r == 0xFFFF || (r >= 0xD800 && r <= 0xDFFF) {
				return -1
			}
			return r
		}, text)
		n := NewNode("t").SetText(clean)
		again, err := ParseString(n.String())
		if err != nil {
			return false
		}
		// Serialiser trims whitespace-only text and the parser trims
		// surrounding space, so compare trimmed forms.
		return again.Text == strings.Join(strings.Fields(clean), "") ||
			again.Text == strings.TrimSpace(clean)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// scanAll drains a scanner, returning the first error.
func scanAll(s *Scanner) error {
	for {
		tok, err := s.Next()
		if err != nil || tok.Kind == TokEOF {
			return err
		}
	}
}

// TestScannerProcessingInstructions: the scanner skips a processing
// instruction only when encoding/xml is certain to pass it — a plain XML
// declaration, any other well-named target — and refuses the rest, so
// that it never accepts a document the DOM parser rejects.
func TestScannerProcessingInstructions(t *testing.T) {
	for doc, accepted := range map[string]bool{
		`<?xml version="1.0"?><a/>`:                         true,
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n<a/>": true,
		`<?xml version="1.0" encoding="utf-8" ?><a/>`:       true,
		`<a><?xml-stylesheet href="x"?></a>`:                true,
		`<?xml version="2.0"?><a/>`:                         false,
		`<?xml version="1.0" encoding="latin1"?><a/>`:       false,
		`<?xml version='1.0'?><a/>`:                         false, // fine for the DOM; not worth a rule here
		`<??><a/>`:                                          false,
		"<?A\xe4?><a/>":                                     false,
		`<?1?><a/>`:                                         false,
		`<? xml version="1.0"?><a/>`:                        false,
	} {
		err := scanAll(NewScanner([]byte(doc)))
		if accepted != (err == nil) {
			t.Errorf("%q: scanner err = %v, want accepted = %v", doc, err, accepted)
		}
		if err != nil && !errors.Is(err, ErrComplex) {
			t.Errorf("%q: refusal must be ErrComplex, got %v", doc, err)
		}
		if _, domErr := ParseString(doc); err == nil && domErr != nil {
			t.Errorf("%q: scanner accepts what the DOM parser rejects: %v", doc, domErr)
		}
	}
}

// TestScannerResetString: tokens over a string alias it, and Substring
// gives them back as substrings, reslices included.
func TestScannerResetString(t *testing.T) {
	doc := `<p:item name="alpha" xmlns:p="urn:p"> body </p:item>`
	var s Scanner
	s.ResetString(doc)
	tok, err := s.Next()
	if err != nil || tok.Kind != TokStart {
		t.Fatalf("tok = %+v, err = %v", tok, err)
	}
	if got := s.Substring(tok.Name); got != "p:item" {
		t.Errorf("name = %q", got)
	}
	if got := s.Substring(LocalName(tok.Name)); got != "item" {
		t.Errorf("local = %q", got)
	}
	if got := s.Substring(PrefixOf(tok.Name)); got != "p" {
		t.Errorf("prefix = %q", got)
	}
	if got := s.Substring(tok.Attrs[0].Value); got != "alpha" || unsafe.StringData(got) != unsafe.StringData(doc[14:]) {
		t.Errorf("value = %q, or not a substring of the document", got)
	}
	if tok, _ = s.Next(); s.Substring(TrimSpaceBytes(tok.Text)) != "body" {
		t.Errorf("text = %q", s.Substring(TrimSpaceBytes(tok.Text)))
	}
	if got := s.Substring(nil); got != "" {
		t.Errorf("Substring(nil) = %q", got)
	}
}

// TestAttrEscapeRoundTrip: attribute values come back from String and
// ParseString exactly, including the characters Go quoting would have
// escaped with backslashes and the whitespace attribute-value
// normalisation would have turned into spaces.
func TestAttrEscapeRoundTrip(t *testing.T) {
	for _, v := range []string{`a\b`, "tab\there", "line\nbreak", "cr\rlf", `say "hi"`, "<&>", "é", ""} {
		doc := NewNode("e").SetAttr("v", v).String()
		back, err := ParseString(doc)
		if err != nil {
			t.Fatalf("%q: %v\n%s", v, err, doc)
		}
		if got, _ := back.Attr("v"); got != v {
			t.Errorf("attribute %q came back as %q\n%s", v, got, doc)
		}
	}
}

// TestValidChars holds the Char predicate to the parser: a string passes
// exactly when a document carrying it as text (escaped) parses.
func TestValidChars(t *testing.T) {
	for _, s := range []string{"", "plain", "tab\tlf\ncr\r", "\u00e9\u20ac\U0001f600", "\u007f", "\ufffd",
		"\x00", "\x01", "a\x1fb", "\xff", "\xc3", "\xed\xa0\x80", "\ufffe", "\uffff", "x\ufffe"} {
		_, err := ParseString("<e>" + escapeText(s) + "</e>")
		if got, want := ValidChars(s), err == nil; got != want {
			t.Errorf("ValidChars(%q) = %v; the parser says %v (%v)", s, got, want, err)
		}
	}
}
