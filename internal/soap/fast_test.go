package soap

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harness2/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func callsEqual(a, b *Call) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Method != b.Method || a.Namespace != b.Namespace {
		return false
	}
	if len(a.Headers) != len(b.Headers) {
		return false
	}
	for i := range a.Headers {
		x, y := a.Headers[i], b.Headers[i]
		if x.Name != y.Name || x.MustUnderstand != y.MustUnderstand || x.Actor != y.Actor {
			return false
		}
		if !wire.Equal(x.Value, y.Value) {
			return false
		}
	}
	return paramsEqual(a.Params, b.Params)
}

func respsEqual(a, b *Response) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Method != b.Method {
		return false
	}
	if (a.Fault == nil) != (b.Fault == nil) {
		return false
	}
	if a.Fault != nil {
		if *a.Fault != *b.Fault {
			return false
		}
	}
	return paramsEqual(a.Params, b.Params)
}

func paramsEqual(a, b []Param) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !wire.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// diffCheck runs one input through the fast decoder and the DOM decoder
// and enforces the differential contract: when the fast path commits to
// a result (success or definitive error), the DOM must agree.
func diffCheck(t *testing.T, data []byte) {
	t.Helper()
	fc, ferr := fastDecodeCall(data)
	dc, derr := Codec{}.domDecodeCall(data)
	if !errors.Is(ferr, errFallback) {
		if (ferr == nil) != (derr == nil) {
			t.Fatalf("call decode disagreement on %q:\nfast err=%v\ndom err=%v", data, ferr, derr)
		}
		if ferr == nil && !callsEqual(fc, dc) {
			t.Fatalf("call result disagreement on %q:\nfast=%+v\ndom=%+v", data, fc, dc)
		}
	}
	fr, ferr := fastDecodeResponse(data)
	dr, derr := Codec{}.domDecodeResponse(data)
	if !errors.Is(ferr, errFallback) {
		if (ferr == nil) != (derr == nil) {
			t.Fatalf("response decode disagreement on %q:\nfast err=%v\ndom err=%v", data, ferr, derr)
		}
		if ferr == nil && !respsEqual(fr, dr) {
			t.Fatalf("response result disagreement on %q:\nfast=%+v\ndom=%+v", data, fr, dr)
		}
	}
}

// trickyEnvelopes is the satellite regression battery: envelopes with
// comments, CDATA, namespace-prefix variation, insignificant
// whitespace, entities, and element-wise arrays. Both decode paths must
// produce identical results on every one (for some the fast path
// internally falls back — that IS the correct behaviour).
var trickyEnvelopes = []string{
	// Plain call produced by our own encoder shape.
	`<?xml version="1.0" encoding="UTF-8"?>
<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:SOAP-ENC="http://schemas.xmlsoap.org/soap/encoding/">
  <SOAP-ENV:Body>
    <m:Add xmlns:m="urn:harness2">
      <a xsi:type="xsd:int">2</a>
      <b xsi:type="xsd:int">3</b>
    </m:Add>
  </SOAP-ENV:Body>
</SOAP-ENV:Envelope>`,
	// Comment inside the body (DOM drops it; fast path falls back).
	`<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><SOAP-ENV:Body><m:f xmlns:m="urn:x"><!-- hello --><p xsi:type="xsd:int">7</p></m:f></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
	// CDATA section carrying the value.
	`<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><SOAP-ENV:Body><m:f xmlns:m="urn:x"><p xsi:type="xsd:string"><![CDATA[<raw & data>]]></p></m:f></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
	// Unusual envelope prefix.
	`<env:Envelope xmlns:env="http://schemas.xmlsoap.org/soap/envelope/" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><env:Body><q:f xmlns:q="urn:other"><p xsi:type="xsd:long">99</p></q:f></env:Body></env:Envelope>`,
	// No prefix at all, default namespace on the method element.
	`<Envelope><Body><f xmlns="urn:default"><p xsi:type="xsd:double">1.5</p></f></Body></Envelope>`,
	// Undeclared method prefix (encoding/xml reports the prefix itself).
	`<Envelope><Body><mm:f><p xsi:type="xsd:boolean">true</p></mm:f></Body></Envelope>`,
	// Whitespace everywhere, including inside tags.
	"<Envelope >\n\t<Body >\n  <m:f xmlns:m  =  \"urn:x\" >\n\t\t<p xsi:type = \"xsd:int\" > 42 </p>\n  </m:f>\n</Body ></Envelope >\n\n",
	// Element-wise arrays of every element type.
	`<Envelope><Body><m:f xmlns:m="urn:x">
	  <xs xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:int[3]"><item>1</item><item>2</item><item>3</item></xs>
	  <ys xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:double[2]"><item>1.25</item><item>-2e3</item></ys>
	  <zs xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:string[2]"><item>alpha</item><item>beta&amp;gamma</item></zs>
	  <bs xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:boolean[2]"><item>true</item><item>0</item></bs>
	  <ls xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:long[1]"><item>-9007199254740993</item></ls>
	  <fs xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:float[1]"><item>0.5</item></fs>
	</m:f></Body></Envelope>`,
	// Element-wise array with stray non-item children and text.
	`<Envelope><Body><m:f xmlns:m="urn:x"><a xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:int[2]"> junk <noise/><item>5</item><other><item>ignored</item></other><item>6</item></a></m:f></Body></Envelope>`,
	// Packed arrays, base64 and hex.
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xsi:type="hns:ArrayOfDouble" enc="base64" length="2">P/AAAAAAAABAAAAAAAAAAA==</p><q xsi:type="hns:ArrayOfInt" enc="hex" length="2">0000000100000002</q></m:f></Body></Envelope>`,
	// Headers: mustUnderstand, actor, struct-valued entry, response-side skip.
	`<Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"><SOAP-ENV:Header><auth xsi:type="xsd:string" SOAP-ENV:mustUnderstand="1" SOAP-ENV:actor="urn:me">tok&lt;1&gt;</auth><ctx xsi:type="m:Ctx"><id xsi:type="xsd:int">4</id></ctx></SOAP-ENV:Header><SOAP-ENV:Body><m:f xmlns:m="urn:x"></m:f></SOAP-ENV:Body></Envelope>`,
	// Fault response with prefixed children and detail.
	`<Envelope><Body><SOAP-ENV:Fault><faultcode>SOAP-ENV:Server</faultcode><faultstring>boom &amp; bust</faultstring><detail>ctx</detail></SOAP-ENV:Fault></Body></Envelope>`,
	// Fault with duplicate children: first one wins in both paths.
	`<Envelope><Body><Fault><faultcode>A</faultcode><faultcode>B</faultcode><faultstring>s</faultstring></Fault></Body></Envelope>`,
	// Nested struct with entity-bearing strings.
	`<Envelope><Body><m:f xmlns:m="urn:x"><s xsi:type="m:Outer"><inner xsi:type="m:Inner"><msg xsi:type="xsd:string">a&amp;b&#33;</msg></inner><n xsi:type="xsd:long">8</n></s></m:f></Body></Envelope>`,
	// Untyped element with no children decodes as a string.
	`<Envelope><Body><m:f xmlns:m="urn:x"><p>bare text</p></m:f></Body></Envelope>`,
	// Untyped element WITH children: definitive error on both paths.
	`<Envelope><Body><m:f xmlns:m="urn:x"><p><q/></p></m:f></Body></Envelope>`,
	// Scalar with ignored child elements: text runs concatenate.
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xsi:type="xsd:int"> 1 <gap/> 2 </p></m:f></Body></Envelope>`,
	// Extra envelope children and duplicate Body: first Body wins.
	`<Envelope><Other><deep><er/></deep></Other><Body><m:f xmlns:m="urn:x"/></Body><Body><n:g xmlns:n="urn:y"/></Body></Envelope>`,
	// Processing instruction between elements.
	`<Envelope><Body><?pi data?><m:f xmlns:m="urn:x"><p xsi:type="xsd:int">1<?mid?>2</p></m:f></Body></Envelope>`,
	// Self-closing everything.
	`<Envelope><Body><f/></Body></Envelope>`,
	// Numeric character references, decimal and hex.
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xsi:type="xsd:string">&#104;&#x69;</p></m:f></Body></Envelope>`,
	// Non-ASCII text: fast path must fall back, results still equal.
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xsi:type="xsd:string">héllo</p></m:f></Body></Envelope>`,
	// Non-ASCII smuggled through a character reference.
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xsi:type="xsd:string">&#233;</p></m:f></Body></Envelope>`,
	// xmlns:type shadows the xsi:type lookup by local name in the DOM.
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xmlns:type="u" xsi:type="xsd:int">3</p></m:f></Body></Envelope>`,
	// Attribute-order variation: first "type" local wins.
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xsi:type="xsd:int" foo:type="xsd:long">3</p></m:f></Body></Envelope>`,
	// Bad values: both paths must error identically.
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xsi:type="xsd:int">twelve</p></m:f></Body></Envelope>`,
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xsi:type="hns:ArrayOfDouble" enc="base64" length="9">AAAA</p></m:f></Body></Envelope>`,
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xsi:type="hns:ArrayOfDouble" enc="wat" length="0"></p></m:f></Body></Envelope>`,
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xsi:type="nope">x</p></m:f></Body></Envelope>`,
	// Response envelope.
	`<Envelope><Body><m:AddResponse xmlns:m="urn:harness2"><result xsi:type="xsd:int">5</result></m:AddResponse></Body></Envelope>`,
	// Trailing junk after the root element.
	`<Envelope><Body><f/></Body></Envelope>  ` + "\n",
	`<Envelope><Body><f/></Body></Envelope><more/>`,
	// Unicode whitespace through character references: the DOM trims it
	// (strings.TrimSpace), so the fast path must fall back.
	`<Envelope><Body><m:f xmlns:m="urn:x"><p xsi:type="xsd:string">&#xA0;x&amp;y&#x2003;</p></m:f></Body></Envelope>`,
}

// TestFastPathGoldenEnvelopes runs the regression battery through both
// decode paths and requires identical results.
func TestFastPathGoldenEnvelopes(t *testing.T) {
	for i, env := range trickyEnvelopes {
		t.Run(string(rune('a'+i%26))+"_"+itoa(i), func(t *testing.T) {
			diffCheck(t, []byte(env))
		})
	}
}

func itoa(i int) string {
	return string([]byte{byte('0' + i/10), byte('0' + i%10)})
}

// TestFastPathTakesOwnTraffic guards against silent fallback: envelopes
// produced by our own encoders must decode on the fast path, not fall
// back to the DOM.
func TestFastPathTakesOwnTraffic(t *testing.T) {
	for _, arrays := range []ArrayEncoding{EncodeBase64, EncodeElementwise, EncodeHex} {
		c := Codec{Arrays: arrays}
		call := &Call{
			Method: "Mix",
			Headers: []Header{
				{Name: "auth", Value: "secret", MustUnderstand: true, Actor: "urn:me"},
				{Name: "seq", Value: int64(42)},
			},
			Params: []Param{
				{"b", true},
				{"i", int32(-7)},
				{"l", int64(1) << 40},
				{"f", float32(0.25)},
				{"d", 3.25},
				{"s", "a<b>&c"},
				{"raw", []byte{0, 1, 2, 254}},
				{"xs", []float64{1, 2.5, -3}},
				{"ys", []int32{4, 5}},
				{"strs", []string{"x", "y&z"}},
				{"st", wire.NewStruct("Point").Set("x", int32(1)).Set("y", 2.5)},
			},
		}
		data, err := c.EncodeCall(call)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fastDecodeCall(data)
		if err != nil {
			t.Fatalf("arrays=%v: fast path declined own encoding: %v", arrays, err)
		}
		dom, err := Codec{}.domDecodeCall(data)
		if err != nil {
			t.Fatal(err)
		}
		if !callsEqual(got, dom) {
			t.Fatalf("arrays=%v: fast=%+v dom=%+v", arrays, got, dom)
		}
		rdata, err := c.EncodeResponse("Mix", call.Params)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fastDecodeResponse(rdata); err != nil {
			t.Fatalf("arrays=%v: fast path declined own response: %v", arrays, err)
		}
		fdata := c.EncodeFault(&Fault{Code: "Server", String: "s>t", Detail: "d"})
		fr, err := fastDecodeResponse(fdata)
		if err != nil {
			t.Fatalf("arrays=%v: fast path declined fault: %v", arrays, err)
		}
		if fr.Fault == nil || fr.Fault.Code != "Server" || fr.Fault.String != "s>t" || fr.Fault.Detail != "d" {
			t.Fatalf("fault mismatch: %+v", fr.Fault)
		}
	}
}

// TestEncodeGolden freezes the envelope byte format. The golden file
// locks both interop (other stacks parse these bytes) and the
// append-based encoder against drift; regenerate with -update.
func TestEncodeGolden(t *testing.T) {
	call := &Call{
		Method:    "Survey",
		Namespace: "urn:harness2",
		Headers: []Header{
			{Name: "auth", Value: "tok<1>", MustUnderstand: true, Actor: "urn:me&you"},
			{Name: "seq", Value: int64(7)},
		},
		Params: []Param{
			{"flag", true},
			{"count", int32(-12)},
			{"big", int64(1) << 40},
			{"ratio", float32(0.5)},
			{"exact", 6.125},
			{"label", "x<y>&z"},
			{"blob", []byte{0xDE, 0xAD, 0xBE, 0xEF}},
			{"grid", []float64{1, -2.5, 3e10}},
			{"ids", []int32{1, 2, 3}},
			{"names", []string{"a", "b&c"}},
			{"pt", wire.NewStruct("Point").Set("x", int32(1)).Set("y", 2.5)},
		},
	}
	var got strings.Builder
	for _, arrays := range []ArrayEncoding{EncodeBase64, EncodeElementwise, EncodeHex} {
		c := Codec{Arrays: arrays}
		data, err := c.EncodeCall(call)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString("=== call arrays=" + arrays.String() + "\n")
		got.Write(data)
	}
	c := Codec{}
	rdata, err := c.EncodeResponse("Survey", []Param{{"result", []float64{4, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString("=== response\n")
	got.Write(rdata)
	got.WriteString("=== fault\n")
	got.Write(c.EncodeFault(&Fault{Code: "Client", String: "bad & wrong", Detail: "<detail>"}))

	path := filepath.Join("testdata", "envelopes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("envelope bytes drifted from golden; diff against %s", path)
	}
}

// FuzzFastDecodeDifferential is the satellite differential target: on
// every input the fast path must agree with the DOM path whenever it
// does not fall back.
func FuzzFastDecodeDifferential(f *testing.F) {
	for _, env := range trickyEnvelopes {
		f.Add([]byte(env))
	}
	c := Codec{}
	seed, err := c.EncodeCall(&Call{
		Method:  "m",
		Headers: []Header{{Name: "h", Value: "v", MustUnderstand: true}},
		Params: []Param{
			{"a", []float64{1, 2}},
			{"s", wire.NewStruct("T").Set("x", int32(1))},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		diffCheck(t, data)
	})
}
