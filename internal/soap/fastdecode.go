package soap

// fastdecode.go is the streaming decode plane (experiment E14): a
// scan-based decoder for the common RPC envelope shape — single body
// element, flat params, packed arrays — that walks the raw bytes with
// xmlq.Scanner instead of building a DOM.
//
// The contract with the DOM path is differential: on any input, the
// fast path must either (a) return exactly the result the DOM decoder
// would, (b) return a definitive error only when the DOM decoder
// certainly also errors, or (c) return errFallback, in which case the
// caller retries through the DOM. Anything outside the scanner subset
// (comments, CDATA, non-ASCII text, unusual entities) — and any
// structural situation whose DOM outcome is not provably identical —
// takes route (c). The fuzz target FuzzFastDecodeDifferential enforces
// the contract.

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"harness2/internal/wire"
	"harness2/internal/xmlq"
)

// errFallback routes a decode to the DOM parser. Never returned to
// callers of DecodeCall/DecodeResponse.
var errFallback = errors.New("soap: envelope outside fast-path subset")

// nsBinding is one xmlns declaration seen on the Envelope → Body →
// method descent. A nil prefix is the default namespace.
type nsBinding struct {
	prefix []byte
	uri    []byte
}

// fastDecoder holds the reusable state for one decode. Pooled; all
// returned values are copied out of its buffers.
type fastDecoder struct {
	sc      xmlq.Scanner
	textBuf []byte      // accumulated trimmed text runs of the current leaf
	raw     []byte      // packed-array byte scratch
	stack   [][]byte    // open-element names while skipping a subtree
	ns      []nsBinding // xmlns declarations on the descent to the method
}

var fastDecPool = sync.Pool{New: func() any { return new(fastDecoder) }}

func fastDecodeCall(data []byte) (*Call, error) {
	d := fastDecPool.Get().(*fastDecoder)
	call, _, err := d.envelope(data, true)
	putFastDecoder(d)
	return call, err
}

func fastDecodeResponse(data []byte) (*Response, error) {
	d := fastDecPool.Get().(*fastDecoder)
	_, resp, err := d.envelope(data, false)
	putFastDecoder(d)
	return resp, err
}

func putFastDecoder(d *fastDecoder) {
	d.sc.Reset(nil)
	if cap(d.textBuf) > maxPooledBuffer {
		d.textBuf = nil
	}
	if cap(d.raw) > maxPooledBuffer {
		d.raw = nil
	}
	// The name/binding slices alias the caller's buffer; zero them past
	// len so the pool does not pin old request bodies.
	clear(d.stack[:cap(d.stack)])
	clear(d.ns[:cap(d.ns)])
	d.stack, d.ns = d.stack[:0], d.ns[:0]
	fastDecPool.Put(d)
}

// envelope scans one document. wantCall selects Call vs Response
// semantics, mirroring domDecodeCall / domDecodeResponse.
func (d *fastDecoder) envelope(data []byte, wantCall bool) (*Call, *Response, error) {
	d.sc.Reset(data)
	d.ns = d.ns[:0]

	// Leading content: PIs are skipped by the scanner, pure whitespace
	// is insignificant; anything else (the DOM ignores stray top-level
	// chardata) falls back.
	var root xmlq.RawToken
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, nil, errFallback
		}
		if tok.Kind == xmlq.TokText {
			if !allSpace(tok.Text) {
				return nil, nil, errFallback
			}
			continue
		}
		if tok.Kind != xmlq.TokStart {
			return nil, nil, errFallback
		}
		root = tok
		break
	}
	if root.SelfClose || string(xmlq.LocalName(root.Name)) != "Envelope" {
		return nil, nil, errFallback
	}
	rootName := root.Name
	d.pushNS(root.Attrs)

	var (
		call       *Call
		resp       *Response
		hdrs       []Header
		seenHeader bool
		seenBody   bool
	)
envloop:
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, nil, errFallback
		}
		switch tok.Kind {
		case xmlq.TokEOF:
			return nil, nil, errFallback
		case xmlq.TokText:
			// Root text is dropped by the DOM; entities in it would
			// still be validated there, so any '&' falls back.
			if xmlq.HasAmp(tok.Text) {
				return nil, nil, errFallback
			}
		case xmlq.TokEnd:
			if !bytes.Equal(tok.Name, rootName) {
				return nil, nil, errFallback
			}
			break envloop
		case xmlq.TokStart:
			local := xmlq.LocalName(tok.Name)
			switch {
			case !seenHeader && string(local) == "Header":
				seenHeader = true
				if wantCall {
					hdrs, err = d.headers(tok)
					if err != nil {
						return nil, nil, err
					}
				} else if err := d.skipFrom(tok); err != nil {
					return nil, nil, err
				}
			case !seenBody && string(local) == "Body":
				seenBody = true
				if tok.SelfClose {
					return nil, nil, errFallback
				}
				d.pushNS(tok.Attrs)
				call, resp, err = d.body(tok.Name, wantCall)
				if err != nil {
					return nil, nil, err
				}
			default:
				if err := d.skipFrom(tok); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	if !seenBody {
		return nil, nil, errFallback
	}
	// Trailing content: whitespace and PIs only; a second root or
	// stray text is the DOM's call.
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, nil, errFallback
		}
		switch tok.Kind {
		case xmlq.TokEOF:
			if call != nil {
				call.Headers = hdrs
			}
			return call, resp, nil
		case xmlq.TokText:
			if !allSpace(tok.Text) {
				return nil, nil, errFallback
			}
		default:
			return nil, nil, errFallback
		}
	}
}

// body scans the Body element: exactly one child (the method element or
// a Fault), mirroring bodyOf's "exactly one element" rule by falling
// back on anything else.
func (d *fastDecoder) body(bodyName []byte, wantCall bool) (*Call, *Response, error) {
	parent := bodyName
	var call *Call
	var resp *Response
	seen := false
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, nil, errFallback
		}
		switch tok.Kind {
		case xmlq.TokEOF:
			return nil, nil, errFallback
		case xmlq.TokText:
			if xmlq.HasAmp(tok.Text) {
				return nil, nil, errFallback
			}
		case xmlq.TokEnd:
			if !seen || !bytes.Equal(tok.Name, parent) {
				return nil, nil, errFallback
			}
			return call, resp, nil
		case xmlq.TokStart:
			if seen {
				// Second Body child: DOM reports a count error.
				return nil, nil, errFallback
			}
			seen = true
			local := xmlq.LocalName(tok.Name)
			if wantCall {
				if string(local) == "Fault" {
					return nil, nil, errFallback
				}
				d.pushNS(tok.Attrs)
				ns, err := d.resolveName(tok.Name)
				if err != nil {
					return nil, nil, err
				}
				call = &Call{Method: string(local), Namespace: ns}
				call.Params, err = d.paramList(tok)
				if err != nil {
					return nil, nil, err
				}
				continue
			}
			if string(local) == "Fault" {
				f, err := d.fault(tok)
				if err != nil {
					return nil, nil, err
				}
				resp = &Response{Fault: f}
				continue
			}
			resp = &Response{Method: string(bytes.TrimSuffix(local, []byte("Response")))}
			var perr error
			resp.Params, perr = d.paramList(tok)
			if perr != nil {
				return nil, nil, perr
			}
		}
	}
}

// paramList decodes the children of the method element in order.
func (d *fastDecoder) paramList(parentTok xmlq.RawToken) ([]Param, error) {
	params := make([]Param, 0, 4)
	if parentTok.SelfClose {
		return params, nil
	}
	parent := parentTok.Name
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, errFallback
		}
		switch tok.Kind {
		case xmlq.TokEOF:
			return nil, errFallback
		case xmlq.TokText:
			if xmlq.HasAmp(tok.Text) {
				return nil, errFallback
			}
		case xmlq.TokEnd:
			if !bytes.Equal(tok.Name, parent) {
				return nil, errFallback
			}
			return params, nil
		case xmlq.TokStart:
			name := string(xmlq.LocalName(tok.Name))
			v, err := d.value(tok)
			if err != nil {
				return nil, err
			}
			params = append(params, Param{Name: name, Value: v})
		}
	}
}

// headers decodes the Header element's entries, mirroring
// domDecodeCall's header loop.
func (d *fastDecoder) headers(hdrTok xmlq.RawToken) ([]Header, error) {
	var out []Header
	if hdrTok.SelfClose {
		return out, nil
	}
	parent := hdrTok.Name
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, errFallback
		}
		switch tok.Kind {
		case xmlq.TokEOF:
			return nil, errFallback
		case xmlq.TokText:
			if xmlq.HasAmp(tok.Text) {
				return nil, errFallback
			}
		case xmlq.TokEnd:
			if !bytes.Equal(tok.Name, parent) {
				return nil, errFallback
			}
			return out, nil
		case xmlq.TokStart:
			name := string(xmlq.LocalName(tok.Name))
			var muR, actR []byte
			var muSet, actSet bool
			for _, a := range tok.Attrs {
				switch string(xmlq.LocalName(a.Name)) {
				case "mustUnderstand":
					if !muSet {
						muSet, muR = true, a.Value
					}
				case "actor":
					if !actSet {
						actSet, actR = true, a.Value
					}
				}
			}
			mu, err := attrVal(muR)
			if err != nil {
				return nil, err
			}
			act, err := attrVal(actR)
			if err != nil {
				return nil, err
			}
			actor := string(act)
			must := string(mu) == "1"
			v, err := d.value(tok)
			if err != nil {
				if errors.Is(err, errFallback) {
					return nil, err
				}
				return nil, fmt.Errorf("soap: header %s: %w", name, err)
			}
			out = append(out, Header{Name: name, Value: v, MustUnderstand: must, Actor: actor})
		}
	}
}

// fault decodes a Fault body element: first faultcode / faultstring /
// detail child each win, like Node.Child.
func (d *fastDecoder) fault(tok xmlq.RawToken) (*Fault, error) {
	f := &Fault{}
	if tok.SelfClose {
		return f, nil
	}
	parent := tok.Name
	var codeSet, strSet, detSet bool
	for {
		t, err := d.sc.Next()
		if err != nil {
			return nil, errFallback
		}
		switch t.Kind {
		case xmlq.TokEOF:
			return nil, errFallback
		case xmlq.TokText:
			if xmlq.HasAmp(t.Text) {
				return nil, errFallback
			}
		case xmlq.TokEnd:
			if !bytes.Equal(t.Name, parent) {
				return nil, errFallback
			}
			return f, nil
		case xmlq.TokStart:
			local := string(xmlq.LocalName(t.Name))
			isFirst := (local == "faultcode" && !codeSet) ||
				(local == "faultstring" && !strSet) ||
				(local == "detail" && !detSet)
			if !isFirst {
				if err := d.skipFrom(t); err != nil {
					return nil, err
				}
				continue
			}
			txt, _, err := d.leafText(t.Name, t.SelfClose)
			if err != nil {
				return nil, err
			}
			switch local {
			case "faultcode":
				codeSet = true
				f.Code = string(bytes.TrimPrefix(txt, []byte("SOAP-ENV:")))
			case "faultstring":
				strSet = true
				f.String = string(txt)
			case "detail":
				detSet = true
				f.Detail = string(txt)
			}
		}
	}
}

// value mirrors Codec.decodeValue over the scanner. tok is the already
// consumed start tag of the value element; on success the matching end
// tag has been consumed too.
func (d *fastDecoder) value(tok xmlq.RawToken) (any, error) {
	name := tok.Name
	var typR, atR, encR, lenR []byte
	var typSet, atSet, encSet, lenSet bool
	for _, a := range tok.Attrs {
		switch string(xmlq.LocalName(a.Name)) {
		case "type":
			if !typSet {
				typSet, typR = true, a.Value
			}
		case "arrayType":
			if !atSet {
				atSet, atR = true, a.Value
			}
		case "enc":
			if !encSet {
				encSet, encR = true, a.Value
			}
		case "length":
			if !lenSet {
				lenSet, lenR = true, a.Value
			}
		}
	}
	typ, err := attrVal(typR)
	if err != nil {
		return nil, err
	}
	switch k := xsdKind(typ); {
	case k != wire.KindInvalid || len(typ) == 0:
		t, children, err := d.leafText(name, tok.SelfClose)
		if err != nil {
			return nil, err
		}
		if len(typ) == 0 {
			if children > 0 {
				return nil, fmt.Errorf("soap: cannot decode element %s with type %q",
					string(xmlq.LocalName(name)), "")
			}
			k = wire.KindString
		}
		return wire.ParseText(k, t)
	case bytes.HasSuffix(typ, []byte(":Array")) || string(typ) == "Array":
		return d.elementwise(name, atR, tok.SelfClose)
	case bytes.HasPrefix(typ, []byte("hns:ArrayOf")):
		return d.packed(name, typ, encR, lenR, tok.SelfClose)
	case bytes.IndexByte(typ, ':') >= 0:
		return d.structValue(name, typ, tok.SelfClose)
	}
	return nil, fmt.Errorf("soap: cannot decode element %s with type %q",
		string(xmlq.LocalName(name)), string(typ))
}

// structValue mirrors decodeStruct: every child is a field value.
func (d *fastDecoder) structValue(parent, typ []byte, selfClose bool) (any, error) {
	nm := typ
	if i := bytes.IndexByte(typ, ':'); i >= 0 {
		nm = typ[i+1:]
	}
	s := wire.NewStruct(string(nm))
	if selfClose {
		return s, nil
	}
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, errFallback
		}
		switch tok.Kind {
		case xmlq.TokEOF:
			return nil, errFallback
		case xmlq.TokText:
			if xmlq.HasAmp(tok.Text) {
				return nil, errFallback
			}
		case xmlq.TokEnd:
			if !bytes.Equal(tok.Name, parent) {
				return nil, errFallback
			}
			return s, nil
		case xmlq.TokStart:
			fname := string(xmlq.LocalName(tok.Name))
			v, err := d.value(tok)
			if err != nil {
				return nil, err
			}
			s.Set(fname, v)
		}
	}
}

// elementwise mirrors decodeElementwiseArray: children locally named
// "item" are elements, everything else is skipped.
func (d *fastDecoder) elementwise(parent, atR []byte, selfClose bool) (any, error) {
	at, err := attrVal(atR)
	if err != nil {
		return nil, err
	}
	i := bytes.IndexByte(at, '[')
	if i < 0 {
		return nil, fmt.Errorf("soap: array %s missing arrayType", string(xmlq.LocalName(parent)))
	}
	b, ok := wire.NewArrayBuilder[[]byte](xsdKind(at[:i]), 0)
	if !ok {
		return nil, fmt.Errorf("soap: unsupported arrayType %q", string(at))
	}
	if selfClose {
		return b.Value(), nil
	}
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, errFallback
		}
		switch tok.Kind {
		case xmlq.TokEOF:
			return nil, errFallback
		case xmlq.TokText:
			if xmlq.HasAmp(tok.Text) {
				return nil, errFallback
			}
		case xmlq.TokEnd:
			if !bytes.Equal(tok.Name, parent) {
				return nil, errFallback
			}
			return b.Value(), nil
		case xmlq.TokStart:
			if string(xmlq.LocalName(tok.Name)) != "item" {
				if err := d.skipFrom(tok); err != nil {
					return nil, err
				}
				continue
			}
			t, _, err := d.leafText(tok.Name, tok.SelfClose)
			if err != nil {
				return nil, err
			}
			if err := b.Add(t); err != nil {
				return nil, err
			}
		}
	}
}

// packed mirrors decodePackedArray: BASE64/hex text decoded straight
// into pooled scratch, elements unpacked by the shared XDR bulk loops.
func (d *fastDecoder) packed(parent, typ, encR, lenR []byte, selfClose bool) (any, error) {
	kind := wire.KindByName(string(typ[len("hns:"):]))
	if kind == wire.KindInvalid || !kind.IsArray() {
		return nil, fmt.Errorf("soap: unknown packed array type %q", string(typ))
	}
	lenV, err := attrVal(lenR)
	if err != nil {
		return nil, err
	}
	length, aerr := strconv.Atoi(string(lenV))
	if aerr != nil || length < 0 {
		return nil, fmt.Errorf("soap: packed array %s has bad length attribute", string(xmlq.LocalName(parent)))
	}
	encV, err := attrVal(encR)
	if err != nil {
		return nil, err
	}
	text, _, err := d.leafText(parent, selfClose)
	if err != nil {
		return nil, err
	}
	var raw []byte
	var derr error
	switch string(encV) {
	case "base64":
		raw, derr = base64.StdEncoding.AppendDecode(d.raw[:0], text)
	case "hex":
		raw, derr = hex.AppendDecode(d.raw[:0], text)
	default:
		return nil, fmt.Errorf("soap: packed array %s has unknown enc", string(xmlq.LocalName(parent)))
	}
	d.raw = raw[:0]
	if derr != nil {
		return nil, fmt.Errorf("soap: packed array %s: %w", string(xmlq.LocalName(parent)), derr)
	}
	return unpackArray(kind, raw, length)
}

// leafText consumes the element opened by open (already scanned) up to
// its end tag, returning the concatenated per-run-trimmed text — the
// byte-level equivalent of Node.Text — plus the number of child
// elements (whose subtrees are validated and skipped).
func (d *fastDecoder) leafText(open []byte, selfClose bool) ([]byte, int, error) {
	d.textBuf = d.textBuf[:0]
	var only []byte // single-run zero-copy case: aliases the input buffer
	useBuf := false
	children := 0
	if selfClose {
		return nil, 0, nil
	}
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return nil, 0, errFallback
		}
		switch tok.Kind {
		case xmlq.TokEOF:
			return nil, 0, errFallback
		case xmlq.TokEnd:
			if !bytes.Equal(tok.Name, open) {
				return nil, 0, errFallback
			}
			if !useBuf {
				return only, children, nil
			}
			return d.textBuf, children, nil
		case xmlq.TokStart:
			children++
			if err := d.skipFrom(tok); err != nil {
				return nil, 0, err
			}
		case xmlq.TokText:
			run := tok.Text
			if !xmlq.HasAmp(run) {
				run = xmlq.TrimSpaceBytes(run)
				if len(run) == 0 {
					continue
				}
				if !useBuf && only == nil {
					only = run
					continue
				}
				if !useBuf {
					d.textBuf = append(d.textBuf[:0], only...)
					useBuf = true
				}
				d.textBuf = append(d.textBuf, run...)
				continue
			}
			// Entity run: unescape, then trim, the DOM's order. Non-ASCII
			// output would diverge from strings.TrimSpace's Unicode
			// whitespace handling, so it falls back. The scanner refused
			// raw non-ASCII bytes, so only a character reference ("&#")
			// can produce one, and only a run holding a '#' is checked.
			if !useBuf {
				d.textBuf = append(d.textBuf[:0], only...)
				only = nil
				useBuf = true
			}
			pre := len(d.textBuf)
			d.textBuf, err = xmlq.AppendUnescaped(d.textBuf, run)
			if err != nil {
				return nil, 0, errFallback
			}
			seg := d.textBuf[pre:]
			if bytes.IndexByte(run, '#') >= 0 && !ascii(seg) {
				return nil, 0, errFallback
			}
			seg = xmlq.TrimSpaceBytes(seg)
			n := copy(d.textBuf[pre:], seg)
			d.textBuf = d.textBuf[:pre+n]
		}
	}
}

// skipFrom structurally consumes the subtree opened by tok (a start
// tag), verifying balanced, byte-identical end tags; any uncertainty
// falls back.
func (d *fastDecoder) skipFrom(tok xmlq.RawToken) error {
	if tok.SelfClose {
		return nil
	}
	d.stack = d.stack[:0]
	d.stack = append(d.stack, tok.Name)
	for len(d.stack) > 0 {
		t, err := d.sc.Next()
		if err != nil {
			return errFallback
		}
		switch t.Kind {
		case xmlq.TokEOF:
			return errFallback
		case xmlq.TokText:
			if xmlq.HasAmp(t.Text) {
				return errFallback
			}
		case xmlq.TokStart:
			if !t.SelfClose {
				d.stack = append(d.stack, t.Name)
			}
		case xmlq.TokEnd:
			if !bytes.Equal(t.Name, d.stack[len(d.stack)-1]) {
				return errFallback
			}
			d.stack = d.stack[:len(d.stack)-1]
		}
	}
	return nil
}

// pushNS records the xmlns declarations of one start tag, innermost
// last, so resolveName can search backward.
func (d *fastDecoder) pushNS(attrs []xmlq.RawAttr) {
	for _, a := range attrs {
		p := xmlq.PrefixOf(a.Name)
		if p == nil {
			if string(a.Name) == "xmlns" {
				d.ns = append(d.ns, nsBinding{prefix: nil, uri: a.Value})
			}
		} else if string(p) == "xmlns" {
			d.ns = append(d.ns, nsBinding{prefix: xmlq.LocalName(a.Name), uri: a.Value})
		}
	}
}

// resolveName maps the method element's written name to the namespace
// string encoding/xml would report: the nearest matching declaration,
// the prefix itself when undeclared, the xml/xmlns specials, or "".
func (d *fastDecoder) resolveName(name []byte) (string, error) {
	p := xmlq.PrefixOf(name)
	if p == nil {
		if string(name) == "xmlns" {
			return "", nil
		}
		for i := len(d.ns) - 1; i >= 0; i-- {
			if len(d.ns[i].prefix) == 0 {
				return d.nsValue(i)
			}
		}
		return "", nil
	}
	if string(p) == "xmlns" {
		return "xmlns", nil
	}
	if string(p) == "xml" {
		return "http://www.w3.org/XML/1998/namespace", nil
	}
	for i := len(d.ns) - 1; i >= 0; i-- {
		if bytes.Equal(d.ns[i].prefix, p) {
			return d.nsValue(i)
		}
	}
	return string(p), nil
}

func (d *fastDecoder) nsValue(i int) (string, error) {
	v, err := attrVal(d.ns[i].uri)
	if err != nil {
		return "", err
	}
	return string(v), nil
}

// attrVal materialises an attribute value: raw bytes when entity-free,
// an unescaped copy otherwise. Unknown entities fall back (the DOM
// parser errors on them).
func attrVal(raw []byte) ([]byte, error) {
	if len(raw) == 0 || !xmlq.HasAmp(raw) {
		return raw, nil
	}
	out, err := xmlq.AppendUnescaped(make([]byte, 0, len(raw)), raw)
	if err != nil {
		return nil, errFallback
	}
	return out, nil
}

func ascii(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

func allSpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' {
			return false
		}
	}
	return true
}
