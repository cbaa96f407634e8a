// Package soap implements the SOAP 1.1 subset that backs the HARNESS II
// standard binding: RPC-style envelopes, typed parameter encoding, faults,
// and an HTTP transport.
//
// The paper's data-encoding critique concerns exactly this code path:
// "SOAP, being an XML-based protocol, is suitable mostly for exchanging
// structured data in reasonably small quantities ... the default BASE64
// encoding adopted by SOAP for XSD data types introduces unacceptable
// overheads for scientific data both in terms of the network bandwidth and
// the encoding/decoding time". The package therefore supports three array
// encodings — element-wise XML, BASE64-packed, and hex-packed — so the
// E2 experiment can measure each against the XDR binding.
//
// Two data planes exist per direction (experiment E14). Encoding is
// append-based: envelopes are built directly into (pooled) byte slices
// with in-place BASE64/hex encoding of packed arrays, no intermediate
// strings or DOM. Decoding first attempts a streaming scan of the common
// RPC envelope shape (fastdecode.go) and falls back to the xmlq DOM
// parser for anything outside that subset — comments, CDATA, exotic
// namespaces, non-ASCII content — so the fast path takes the hot traffic
// while the DOM path keeps full-grammar correctness.
package soap

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/xdr"
	"harness2/internal/xmlq"
)

// ArrayEncoding selects how numeric arrays are carried inside envelopes.
type ArrayEncoding int

const (
	// EncodeBase64 packs the raw big-endian element bytes in BASE64 text,
	// the default the paper attributes to SOAP toolkits of the era.
	EncodeBase64 ArrayEncoding = iota
	// EncodeElementwise writes one XML element per array element,
	// SOAP-ENC:Array style.
	EncodeElementwise
	// EncodeHex packs raw element bytes as hexadecimal text (ablation).
	EncodeHex
)

// String names the encoding for reports.
func (a ArrayEncoding) String() string {
	switch a {
	case EncodeBase64:
		return "base64"
	case EncodeElementwise:
		return "elementwise"
	case EncodeHex:
		return "hex"
	}
	return "unknown"
}

// Param is a named RPC parameter.
type Param struct {
	Name  string
	Value any
}

// Header is one SOAP header entry. Headers carry out-of-band context —
// routing hints, credentials, transaction identity — and the SOAP 1.1
// mustUnderstand attribute obliges the receiver to fault rather than
// silently ignore an entry it does not support.
type Header struct {
	Name           string
	Value          any
	MustUnderstand bool
	// Actor is the SOAP 1.1 actor URI; empty targets the final receiver.
	Actor string
}

// Call is an RPC request: a method within a namespace plus parameters and
// optional header entries.
type Call struct {
	Method    string
	Namespace string
	Headers   []Header
	Params    []Param
}

// Response carries either return values or a fault.
type Response struct {
	Method string // echoed method name with "Response" suffix stripped
	Params []Param
	Fault  *Fault
}

// Fault is a SOAP 1.1 fault element.
type Fault struct {
	Code   string // e.g. "Client", "Server"
	String string // human-readable description
	Detail string
}

// Error implements the error interface so faults can flow as Go errors.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// Codec encodes and decodes envelopes with a fixed array encoding.
// The zero value uses BASE64 array packing and the streaming decoder.
type Codec struct {
	Arrays ArrayEncoding
}

const (
	envNS = "http://schemas.xmlsoap.org/soap/envelope/"
	xsdNS = "http://www.w3.org/2001/XMLSchema"
	xsiNS = "http://www.w3.org/2001/XMLSchema-instance"
	encNS = "http://schemas.xmlsoap.org/soap/encoding/"
)

// Envelope buffer pool: CallRemote, the HTTP handlers, and hot encode
// loops reuse envelope-sized buffers instead of allocating one per call.
// Buffers above the cap are dropped rather than pooled so one huge array
// payload does not pin memory forever.
const maxPooledBuffer = 16 << 20

var bufferPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// AcquireBuffer returns a reusable byte slice (length 0) from the
// package pool. Release it with ReleaseBuffer when the encoded bytes
// are no longer referenced.
func AcquireBuffer() *[]byte {
	b := bufferPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// ReleaseBuffer returns a buffer obtained from AcquireBuffer.
func ReleaseBuffer(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuffer {
		return
	}
	bufferPool.Put(b)
}

// scratchPool holds raw-byte scratch for packed-array encode/decode.
var scratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// decode-path telemetry (S27): how much traffic the streaming decoder
// takes versus the DOM fallback.
var (
	decodeFast     *telemetry.Counter
	decodeFallback *telemetry.Counter
)

func init() {
	r := telemetry.Default()
	r.Help("harness_soap_decode_total", "SOAP envelope decodes by path (fast scan vs DOM fallback)")
	decodeFast = r.Counter("harness_soap_decode_total", "path", "fast")
	decodeFallback = r.Counter("harness_soap_decode_total", "path", "dom")
}

// EncodeCall serialises an RPC request envelope.
func (c Codec) EncodeCall(call *Call) ([]byte, error) {
	return c.AppendCall(make([]byte, 0, c.sizeHintCall(call)), call)
}

// AppendCall appends an RPC request envelope to dst and returns the
// extended slice — the allocation-free encode path when dst comes from
// AcquireBuffer.
func (c Codec) AppendCall(dst []byte, call *Call) ([]byte, error) {
	dst = c.appendPrologWithHeaders(dst, call.Headers)
	ns := call.Namespace
	if ns == "" {
		ns = "urn:harness2"
	}
	dst = append(dst, "    <m:"...)
	dst = append(dst, call.Method...)
	dst = append(dst, ` xmlns:m="`...)
	dst = xmlq.AppendAttrEscaped(dst, ns)
	dst = append(dst, "\">\n"...)
	var err error
	for _, p := range call.Params {
		if dst, err = c.appendValue(dst, p.Name, p.Value, 6); err != nil {
			return nil, fmt.Errorf("soap: encode call %s: %w", call.Method, err)
		}
	}
	dst = append(dst, "    </m:"...)
	dst = append(dst, call.Method...)
	dst = append(dst, ">\n"...)
	return c.appendEpilog(dst), nil
}

// EncodeResponse serialises an RPC response envelope for method.
func (c Codec) EncodeResponse(method string, params []Param) ([]byte, error) {
	return c.AppendResponse(make([]byte, 0, c.sizeHintParams(params)), method, params)
}

// AppendResponse appends an RPC response envelope to dst.
func (c Codec) AppendResponse(dst []byte, method string, params []Param) ([]byte, error) {
	dst = c.appendProlog(dst)
	dst = append(dst, "    <m:"...)
	dst = append(dst, method...)
	dst = append(dst, `Response xmlns:m="urn:harness2">`...)
	dst = append(dst, '\n')
	var err error
	for _, p := range params {
		if dst, err = c.appendValue(dst, p.Name, p.Value, 6); err != nil {
			return nil, fmt.Errorf("soap: encode response %s: %w", method, err)
		}
	}
	dst = append(dst, "    </m:"...)
	dst = append(dst, method...)
	dst = append(dst, "Response>\n"...)
	return c.appendEpilog(dst), nil
}

// EncodeFault serialises a fault envelope.
func (c Codec) EncodeFault(f *Fault) []byte {
	return c.AppendFault(make([]byte, 0, 512), f)
}

// AppendFault appends a fault envelope to dst.
func (c Codec) AppendFault(dst []byte, f *Fault) []byte {
	dst = c.appendProlog(dst)
	dst = append(dst, "    <SOAP-ENV:Fault>\n      <faultcode>SOAP-ENV:"...)
	dst = xmlq.AppendEscaped(dst, f.Code)
	dst = append(dst, "</faultcode>\n      <faultstring>"...)
	dst = xmlq.AppendEscaped(dst, f.String)
	dst = append(dst, "</faultstring>\n"...)
	if f.Detail != "" {
		dst = append(dst, "      <detail>"...)
		dst = xmlq.AppendEscaped(dst, f.Detail)
		dst = append(dst, "</detail>\n"...)
	}
	dst = append(dst, "    </SOAP-ENV:Fault>\n"...)
	return c.appendEpilog(dst)
}

// sizeHintCall estimates the envelope size so the one allocation the
// non-pooled entry points make is usually the only one.
func (c Codec) sizeHintCall(call *Call) int {
	n := 512 + 64*len(call.Headers)
	for _, h := range call.Headers {
		if s, ok := h.Value.(string); ok {
			n += len(s)
		}
	}
	return n + c.sizeHintValues(call.Params)
}

func (c Codec) sizeHintParams(params []Param) int {
	return 512 + c.sizeHintValues(params)
}

func (c Codec) sizeHintValues(params []Param) int {
	n := 0
	for _, p := range params {
		switch v := p.Value.(type) {
		case string:
			n += len(v) + 64
		case []byte:
			n += base64.StdEncoding.EncodedLen(len(v)) + 64
		case []string:
			for _, s := range v {
				n += len(s) + 16
			}
			n += 128
		default:
			if raw := xdr.RawSize(v); raw >= 0 {
				switch c.Arrays {
				case EncodeElementwise:
					n += raw*4 + 128
				case EncodeHex:
					n += raw*2 + 96
				default:
					n += base64.StdEncoding.EncodedLen(raw) + 96
				}
			} else {
				n += 96
			}
		}
	}
	return n
}

const prologText = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
	`<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + envNS + `" xmlns:xsd="` + xsdNS +
	`" xmlns:xsi="` + xsiNS + `" xmlns:SOAP-ENC="` + encNS + `">` + "\n"

func (c Codec) appendProlog(dst []byte) []byte {
	dst = append(dst, prologText...)
	return append(dst, "  <SOAP-ENV:Body>\n"...)
}

func (c Codec) appendPrologWithHeaders(dst []byte, headers []Header) []byte {
	if len(headers) == 0 {
		return c.appendProlog(dst)
	}
	dst = append(dst, prologText...)
	dst = append(dst, "  <SOAP-ENV:Header>\n"...)
	for _, h := range headers {
		attrs := ""
		if h.MustUnderstand {
			attrs += ` SOAP-ENV:mustUnderstand="1"`
		}
		if h.Actor != "" {
			attrs += ` SOAP-ENV:actor="` + string(xmlq.AppendAttrEscaped(nil, h.Actor)) + `"`
		}
		if s, ok := h.Value.(string); ok {
			dst = append(dst, "    <"...)
			dst = append(dst, h.Name...)
			dst = append(dst, ` xsi:type="xsd:string"`...)
			dst = append(dst, attrs...)
			dst = append(dst, '>')
			dst = xmlq.AppendEscaped(dst, s)
			dst = append(dst, "</"...)
			dst = append(dst, h.Name...)
			dst = append(dst, ">\n"...)
			continue
		}
		// Non-string header values reuse the body value encoding, then
		// splice the attributes into the opening tag (cold path).
		hb, err := c.appendValue(nil, h.Name, h.Value, 4)
		if err != nil {
			continue
		}
		entry := string(hb)
		if attrs != "" {
			entry = strings.Replace(entry, "<"+h.Name+" ", "<"+h.Name+attrs+" ", 1)
		}
		dst = append(dst, entry...)
	}
	dst = append(dst, "  </SOAP-ENV:Header>\n  <SOAP-ENV:Body>\n"...)
	return dst
}

func (c Codec) appendEpilog(dst []byte) []byte {
	return append(dst, "  </SOAP-ENV:Body>\n</SOAP-ENV:Envelope>\n"...)
}

// xsdKind resolves the xsi:type name of a scalar, "xsd:"+Kind.String(),
// back to its kind; any other name is KindInvalid.
func xsdKind[T string | []byte](name T) wire.Kind {
	switch string(name) {
	case "xsd:boolean":
		return wire.KindBool
	case "xsd:int":
		return wire.KindInt32
	case "xsd:long":
		return wire.KindInt64
	case "xsd:float":
		return wire.KindFloat32
	case "xsd:double":
		return wire.KindFloat64
	case "xsd:string":
		return wire.KindString
	case "xsd:base64Binary":
		return wire.KindBytes
	}
	return wire.KindInvalid
}

const padSpaces = "                                                                "

// appendPad appends n spaces.
func appendPad(dst []byte, n int) []byte {
	for n > len(padSpaces) {
		dst = append(dst, padSpaces...)
		n -= len(padSpaces)
	}
	return append(dst, padSpaces[:n]...)
}

// appendScalarOpen writes `<name xsi:type="xsd:kind">` at the given indent.
func appendScalarOpen(dst []byte, name string, k wire.Kind, indent int) []byte {
	dst = appendPad(dst, indent)
	dst = append(dst, '<')
	dst = append(dst, name...)
	dst = append(dst, ` xsi:type="xsd:`...)
	dst = append(dst, k.String()...)
	dst = append(dst, `">`...)
	return dst
}

func appendClose(dst []byte, name string) []byte {
	dst = append(dst, "</"...)
	dst = append(dst, name...)
	dst = append(dst, ">\n"...)
	return dst
}

func (c Codec) appendValue(dst []byte, name string, v any, indent int) ([]byte, error) {
	if err := wire.Check(v); err != nil {
		return dst, err
	}
	k := wire.KindOf(v)
	switch k {
	case wire.KindBool, wire.KindInt32, wire.KindInt64, wire.KindFloat32,
		wire.KindFloat64, wire.KindString, wire.KindBytes:
		dst = appendScalarOpen(dst, name, k, indent)
		if s, ok := v.(string); ok {
			dst = xmlq.AppendEscaped(dst, s)
		} else {
			dst = wire.AppendText(dst, v)
		}
		return appendClose(dst, name), nil
	case wire.KindBoolArray, wire.KindInt32Array, wire.KindInt64Array,
		wire.KindFloat32Array, wire.KindFloat64Array, wire.KindStringArray:
		return c.appendArray(dst, name, v, k, indent), nil
	case wire.KindStruct:
		s := v.(*wire.Struct)
		dst = appendPad(dst, indent)
		dst = append(dst, '<')
		dst = append(dst, name...)
		dst = append(dst, ` xsi:type="m:`...)
		dst = append(dst, s.Name...)
		dst = append(dst, `">`...)
		dst = append(dst, '\n')
		var err error
		for _, f := range s.Fields {
			if dst, err = c.appendValue(dst, f.Name, f.Value, indent+2); err != nil {
				return dst, err
			}
		}
		dst = appendPad(dst, indent)
		return appendClose(dst, name), nil
	}
	return dst, fmt.Errorf("soap: cannot encode kind %v", k)
}

// appendArray writes an array element-wise (always, for strings, whose
// packing is meaningless) or packed, as the codec's encoding selects.
func (c Codec) appendArray(dst []byte, name string, v any, k wire.Kind, indent int) []byte {
	n := wire.Len(v)
	if c.Arrays == EncodeElementwise || k == wire.KindStringArray {
		dst = appendPad(dst, indent)
		dst = append(dst, '<')
		dst = append(dst, name...)
		dst = append(dst, ` xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:`...)
		dst = append(dst, k.Elem().String()...)
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, `]">`...)
		dst = append(dst, '\n')
		dst = AppendItems(dst, v, indent+2)
		dst = appendPad(dst, indent)
		return appendClose(dst, name)
	}
	dst = appendPad(dst, indent)
	dst = append(dst, '<')
	dst = append(dst, name...)
	dst = append(dst, ` xsi:type="hns:`...)
	dst = append(dst, k.String()...)
	dst = append(dst, `" enc="`...)
	if c.Arrays == EncodeHex {
		dst = append(dst, `hex" length="`...)
	} else {
		dst = append(dst, `base64" length="`...)
	}
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, `">`...)
	// Pack the raw big-endian element bytes into pooled scratch (the
	// XDR bulk loops), then text-encode them in place into dst — no
	// intermediate string, no full-copy EncodeToString.
	scratch := scratchPool.Get().(*[]byte)
	raw := xdr.AppendRaw((*scratch)[:0], v)
	if c.Arrays == EncodeHex {
		dst = hex.AppendEncode(dst, raw)
	} else {
		dst = base64.StdEncoding.AppendEncode(dst, raw)
	}
	*scratch = raw
	if cap(raw) <= maxPooledBuffer {
		scratchPool.Put(scratch)
	}
	return appendClose(dst, name)
}

// AppendItems appends the elements of array v as `<item>` lines at the
// given indent, strings markup-escaped.
func AppendItems(dst []byte, v any, indent int) []byte {
	ss, _ := v.([]string)
	for i, n := 0, wire.Len(v); i < n; i++ {
		dst = appendPad(dst, indent)
		dst = append(dst, "<item>"...)
		if ss != nil {
			dst = xmlq.AppendEscaped(dst, ss[i])
		} else {
			dst = wire.AppendItem(dst, v, i)
		}
		dst = append(dst, "</item>\n"...)
	}
	return dst
}

// unpackArray decodes packed big-endian element bytes through the shared
// XDR bulk loops.
func unpackArray(kind wire.Kind, raw []byte, n int) (any, error) {
	v, err := xdr.UnpackRaw(kind, raw, n)
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	return v, nil
}

// DecodeCall parses a request envelope into a Call, including any header
// entries. The streaming scanner handles the common envelope shape; any
// input outside its subset is retried through the DOM parser.
func (c Codec) DecodeCall(data []byte) (*Call, error) {
	call, err := fastDecodeCall(data)
	if !errors.Is(err, errFallback) {
		decodeFast.Inc()
		return call, err
	}
	decodeFallback.Inc()
	return c.domDecodeCall(data)
}

func (c Codec) domDecodeCall(data []byte) (*Call, error) {
	root, err := c.envelope(data)
	if err != nil {
		return nil, err
	}
	body, err := c.bodyOf(root)
	if err != nil {
		return nil, err
	}
	if body.Local == "Fault" {
		return nil, fmt.Errorf("soap: request envelope contains a fault")
	}
	call := &Call{Method: body.Local, Namespace: body.Space}
	if hdr := root.Child("Header"); hdr != nil {
		for _, hn := range hdr.Children {
			v, err := c.decodeValue(hn)
			if err != nil {
				return nil, fmt.Errorf("soap: header %s: %w", hn.Local, err)
			}
			call.Headers = append(call.Headers, Header{
				Name:           hn.Local,
				Value:          v,
				MustUnderstand: hn.AttrOr("mustUnderstand", "") == "1",
				Actor:          hn.AttrOr("actor", ""),
			})
		}
	}
	call.Params, err = c.decodeParams(body)
	if err != nil {
		return nil, err
	}
	return call, nil
}

// DecodeResponse parses a response envelope. A fault envelope yields a
// Response whose Fault field is set (and no error). Like DecodeCall it
// scans first and falls back to the DOM parser outside the subset.
func (c Codec) DecodeResponse(data []byte) (*Response, error) {
	resp, err := fastDecodeResponse(data)
	if !errors.Is(err, errFallback) {
		decodeFast.Inc()
		return resp, err
	}
	decodeFallback.Inc()
	return c.domDecodeResponse(data)
}

func (c Codec) domDecodeResponse(data []byte) (*Response, error) {
	body, err := c.bodyElement(data)
	if err != nil {
		return nil, err
	}
	if body.Local == "Fault" {
		f := &Fault{}
		if fc := body.Child("faultcode"); fc != nil {
			f.Code = strings.TrimPrefix(fc.Text, "SOAP-ENV:")
		}
		if fs := body.Child("faultstring"); fs != nil {
			f.String = fs.Text
		}
		if d := body.Child("detail"); d != nil {
			f.Detail = d.Text
		}
		return &Response{Fault: f}, nil
	}
	resp := &Response{Method: strings.TrimSuffix(body.Local, "Response")}
	resp.Params, err = c.decodeParams(body)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (c Codec) bodyElement(data []byte) (*xmlq.Node, error) {
	root, err := c.envelope(data)
	if err != nil {
		return nil, err
	}
	return c.bodyOf(root)
}

func (c Codec) envelope(data []byte) (*xmlq.Node, error) {
	root, err := xmlq.Parse(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	if root.Local != "Envelope" {
		return nil, fmt.Errorf("soap: root element is %q, want Envelope", root.Local)
	}
	return root, nil
}

func (c Codec) bodyOf(root *xmlq.Node) (*xmlq.Node, error) {
	body := root.Child("Body")
	if body == nil {
		return nil, fmt.Errorf("soap: envelope has no Body")
	}
	if len(body.Children) != 1 {
		return nil, fmt.Errorf("soap: Body must contain exactly one element, has %d", len(body.Children))
	}
	return body.Children[0], nil
}

func (c Codec) decodeParams(parent *xmlq.Node) ([]Param, error) {
	params := make([]Param, 0, len(parent.Children))
	for _, child := range parent.Children {
		v, err := c.decodeValue(child)
		if err != nil {
			return nil, err
		}
		params = append(params, Param{Name: child.Local, Value: v})
	}
	return params, nil
}

func (c Codec) decodeValue(n *xmlq.Node) (any, error) {
	xsiType := n.AttrOr("type", "")
	k := xsdKind(xsiType)
	if xsiType == "" && len(n.Children) == 0 {
		k = wire.KindString
	}
	switch {
	case k != wire.KindInvalid:
		return wire.ParseText(k, n.Text)
	case strings.HasSuffix(xsiType, ":Array") || xsiType == "Array":
		return c.decodeElementwiseArray(n)
	case strings.HasPrefix(xsiType, "hns:ArrayOf"):
		return c.decodePackedArray(n, xsiType)
	case strings.Contains(xsiType, ":"):
		// Treat any other prefixed type as a struct.
		return c.decodeStruct(n, xsiType)
	}
	return nil, fmt.Errorf("soap: cannot decode element %s with type %q", n.Local, xsiType)
}

func (c Codec) decodeStruct(n *xmlq.Node, xsiType string) (any, error) {
	name := xsiType
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[i+1:]
	}
	s := wire.NewStruct(name)
	for _, child := range n.Children {
		v, err := c.decodeValue(child)
		if err != nil {
			return nil, err
		}
		s.Set(child.Local, v)
	}
	return s, nil
}

func (c Codec) decodeElementwiseArray(n *xmlq.Node) (any, error) {
	at := n.AttrOr("arrayType", "")
	i := strings.IndexByte(at, '[')
	if i < 0 {
		return nil, fmt.Errorf("soap: array %s missing arrayType", n.Local)
	}
	items := n.ChildrenNamed("item")
	b, ok := wire.NewArrayBuilder[string](xsdKind(at[:i]), len(items))
	if !ok {
		return nil, fmt.Errorf("soap: unsupported arrayType %q", at)
	}
	for _, it := range items {
		if err := b.Add(it.Text); err != nil {
			return nil, err
		}
	}
	return b.Value(), nil
}

func (c Codec) decodePackedArray(n *xmlq.Node, xsiType string) (any, error) {
	kindName := strings.TrimPrefix(xsiType, "hns:")
	kind := wire.KindByName(kindName)
	if kind == wire.KindInvalid || !kind.IsArray() {
		return nil, fmt.Errorf("soap: unknown packed array type %q", xsiType)
	}
	length, err := strconv.Atoi(n.AttrOr("length", ""))
	if err != nil || length < 0 {
		return nil, fmt.Errorf("soap: packed array %s has bad length attribute", n.Local)
	}
	var raw []byte
	switch n.AttrOr("enc", "") {
	case "base64":
		raw, err = base64.StdEncoding.DecodeString(n.Text)
	case "hex":
		raw, err = hex.DecodeString(n.Text)
	default:
		return nil, fmt.Errorf("soap: packed array %s has unknown enc", n.Local)
	}
	if err != nil {
		return nil, fmt.Errorf("soap: packed array %s: %w", n.Local, err)
	}
	return unpackArray(kind, raw, length)
}

// WriteEnvelope writes data to w. Split out so transports can stream.
func WriteEnvelope(w io.Writer, data []byte) error {
	_, err := w.Write(data)
	return err
}
