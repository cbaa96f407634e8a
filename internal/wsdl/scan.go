package wsdl

// scan.go is the parse the lookup loop pays for: one pass over
// xmlq.Scanner that fills Definitions straight from the token stream,
// with no tree in between. The contract with the DOM path (xmlq.Parse,
// then Parse) is differential, as for SOAP envelopes: parseScan returns
// exactly what the DOM path returns — the same Definitions or the same
// wsdl-level error — or it refuses with xmlq.ErrComplex and ParseString
// runs the DOM path. It refuses rather than guesses: malformed markup (the
// DOM path owns the wording of syntax errors), anything outside the
// scanner's subset, and every document in which the written prefix of a
// binding extension element might not be the Prefix the DOM recovers from
// the namespace declarations. FuzzWSDLParseDifferential holds the two equal.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"harness2/internal/wire"
	"harness2/internal/xmlq"
)

// role is what an open element means to the parser, decided from its
// local name and its parent's role the way Parse picks children by
// local name: definitions › message|portType|binding|service ›
// part|operation|<ext>:binding|port › input|output|capability|address.
// Leaves need no role of their own; they and everything else are skipped.
type role uint8

const (
	roleSkip role = iota
	roleDefinitions
	roleMessage
	rolePortType
	roleOperation
	roleBinding
	roleExt
	roleService
	rolePort
)

const (
	// maxScanDepth bounds the open-element stack; deeper documents are
	// refused. A generated document is five deep.
	maxScanDepth = 16
	// maxScanNS bounds the namespace declarations kept from the root.
	maxScanNS = 12
)

type openElem struct {
	name []byte // as written, for matching the end tag
	role role
}

type nsDecl struct{ prefix, uri string }

// scanParser is the reusable state of one parse: the scanner with its
// attribute scratch, the open-element stack and the root's namespace
// declarations. Pooled; a parse leaves nothing in it that the returned
// Definitions references.
type scanParser struct {
	sc    xmlq.Scanner
	stack [maxScanDepth]openElem
	ns    [maxScanNS]nsDecl
	nns   int
}

var scanPool = sync.Pool{New: func() any { return new(scanParser) }}

// parseScan parses doc in place: the strings in the result are
// substrings of doc. See the contract at the top of the file.
func parseScan(doc string) (*Definitions, error) {
	p := scanPool.Get().(*scanParser)
	d, err := p.parse(doc)
	// Keep the scanner's scratch, drop every reference into doc: the pool
	// must not pin it.
	p.sc.ResetString("")
	*p = scanParser{sc: p.sc}
	scanPool.Put(p)
	return d, err
}

func (p *scanParser) parse(doc string) (*Definitions, error) {
	p.sc.ResetString(doc)
	var (
		d        *Definitions
		depth    int
		rootSeen bool
		// Parse runs after the whole document has been read, and walks
		// messages before bindings: so a wsdl-level error is only recorded
		// here, the scan goes on to the end of the document, and the first
		// error in Parse's order is the one returned.
		rootErr, msgErr, bindErr error
		// First-child-wins flags for the element being filled: Node.Child
		// returns the first match and Parse never looks at a second.
		seenIn, seenOut, seenExt, seenAddr bool
	)
	for {
		tok, err := p.sc.Next()
		if err != nil {
			return nil, xmlq.ErrComplex
		}
		switch tok.Kind {
		case xmlq.TokEOF:
			if depth != 0 || !rootSeen {
				return nil, xmlq.ErrComplex
			}
			for _, err := range []error{rootErr, msgErr, bindErr} {
				if err != nil {
					return nil, err
				}
			}
			return d, nil

		case xmlq.TokText:
			// Parse ignores character data, but encoding/xml still
			// validates references and rejects a bare "]]>" in it.
			if xmlq.HasAmp(tok.Text) || bytes.Contains(tok.Text, []byte("]]>")) {
				return nil, xmlq.ErrComplex
			}

		case xmlq.TokEnd:
			if depth == 0 || !bytes.Equal(tok.Name, p.stack[depth-1].name) {
				return nil, xmlq.ErrComplex
			}
			depth--
			if p.stack[depth].role == roleBinding && !seenExt && bindErr == nil {
				bindErr = noExtension(d)
			}

		case xmlq.TokStart:
			local := xmlq.LocalName(tok.Name)
			r := roleSkip
			if depth == 0 {
				if rootSeen {
					return nil, xmlq.ErrComplex // a second root: the DOM path's error
				}
				rootSeen = true
				if !p.declare(tok.Attrs) {
					return nil, xmlq.ErrComplex
				}
				if string(local) == "definitions" {
					r = roleDefinitions
					d = &Definitions{
						Name:            p.attr(tok.Attrs, "name", ""),
						TargetNamespace: p.attr(tok.Attrs, "targetNamespace", ""),
					}
				} else {
					rootErr = fmt.Errorf("wsdl: root element is %q, want definitions", local)
				}
			} else {
				if declaresNS(tok.Attrs) {
					return nil, xmlq.ErrComplex // a binding below the root: prefixes are the DOM's to resolve
				}
				switch p.stack[depth-1].role {
				case roleDefinitions:
					switch string(local) {
					case "message":
						r = roleMessage
						d.Messages = append(d.Messages, Message{Name: p.attr(tok.Attrs, "name", "")})
					case "portType":
						r = rolePortType
						d.PortTypes = append(d.PortTypes, PortType{Name: p.attr(tok.Attrs, "name", "")})
					case "binding":
						r = roleBinding
						seenExt = false
						if d.Bindings == nil {
							// One binding per kind is the common shape:
							// allocate for it once instead of growing.
							d.Bindings = make([]Binding, 0, len(kindNames))
						}
						d.Bindings = append(d.Bindings, Binding{
							Name: p.attr(tok.Attrs, "name", ""),
							Type: p.attr(tok.Attrs, "type", ""),
						})
					case "service":
						r = roleService
						d.Services = append(d.Services, Service{Name: p.attr(tok.Attrs, "name", "")})
					}
				case roleMessage:
					if string(local) == "part" {
						m := &d.Messages[len(d.Messages)-1]
						name := p.attr(tok.Attrs, "name", "")
						typeName := strings.TrimPrefix(p.attr(tok.Attrs, "type", ""), "xsd:")
						k := wire.KindByName(typeName)
						if k == wire.KindInvalid && msgErr == nil {
							msgErr = fmt.Errorf("wsdl: message %q part %q has unknown type %q", m.Name, name, typeName)
						}
						m.Parts = append(m.Parts, Part{Name: name, Type: k})
					}
				case rolePortType:
					if string(local) == "operation" {
						r = roleOperation
						seenIn, seenOut = false, false
						pt := &d.PortTypes[len(d.PortTypes)-1]
						pt.Operations = append(pt.Operations, Operation{Name: p.attr(tok.Attrs, "name", "")})
					}
				case roleOperation:
					pt := &d.PortTypes[len(d.PortTypes)-1]
					op := &pt.Operations[len(pt.Operations)-1]
					switch {
					case string(local) == "input" && !seenIn:
						seenIn = true
						op.Input = p.attr(tok.Attrs, "message", "")
					case string(local) == "output" && !seenOut:
						seenOut = true
						op.Output = p.attr(tok.Attrs, "message", "")
					}
				case roleBinding:
					if string(local) == "binding" && !seenExt {
						r = roleExt
						seenExt = true
						b := &d.Bindings[len(d.Bindings)-1]
						prefix, ok := p.extPrefix(tok.Name)
						if !ok {
							return nil, xmlq.ErrComplex
						}
						if err := p.extension(b, prefix, tok.Attrs); err != nil && bindErr == nil {
							bindErr = err
						}
					}
				case roleExt:
					if string(local) == "capability" {
						b := &d.Bindings[len(d.Bindings)-1]
						b.Capabilities = append(b.Capabilities, Capability{
							Name:  p.attr(tok.Attrs, "name", ""),
							Value: p.attr(tok.Attrs, "value", ""),
						})
					}
				case roleService:
					if string(local) == "port" {
						r = rolePort
						seenAddr = false
						s := &d.Services[len(d.Services)-1]
						s.Ports = append(s.Ports, Port{
							Name:    p.attr(tok.Attrs, "name", ""),
							Binding: p.attr(tok.Attrs, "binding", ""),
						})
					}
				case rolePort:
					if string(local) == "address" && !seenAddr {
						seenAddr = true
						s := &d.Services[len(d.Services)-1]
						s.Ports[len(s.Ports)-1].Address = p.attr(tok.Attrs, "location", "")
					}
				}
			}
			switch {
			case tok.SelfClose:
				if r == roleBinding && bindErr == nil {
					bindErr = noExtension(d)
				}
			case depth == maxScanDepth:
				return nil, xmlq.ErrComplex
			default:
				p.stack[depth] = openElem{name: tok.Name, role: r}
				depth++
			}
		}
	}
}

// noExtension is Parse's error for the binding that has just closed
// without a <prefix:binding> child.
func noExtension(d *Definitions) error {
	return fmt.Errorf("wsdl: binding %q has no extension element", d.Bindings[len(d.Bindings)-1].Name)
}

// extension fills the kind-specific fields of b from its extension
// element, as Parse does from the element's recovered prefix.
func (p *scanParser) extension(b *Binding, prefix string, attrs []xmlq.RawAttr) error {
	switch prefix {
	case "soap":
		b.Kind = BindSOAP
		b.Style = p.attr(attrs, "style", "rpc")
		b.Transport = p.attr(attrs, "transport", "")
	case "http":
		b.Kind = BindHTTP
	case "java":
		b.Kind = BindJavaObject
		b.Class = p.attr(attrs, "class", "")
		b.Instance = p.attr(attrs, "instance", "")
	case "xdr":
		b.Kind = BindXDR
	case "shm":
		b.Kind = BindShm
	default:
		return fmt.Errorf("wsdl: binding %q has unknown extension prefix %q", b.Name, prefix)
	}
	return nil
}

// attr returns the value of the first attribute whose local name is
// local, or def — Node.AttrOr, which ignores the attribute's prefix.
func (p *scanParser) attr(attrs []xmlq.RawAttr, local, def string) string {
	for i := range attrs {
		if string(xmlq.LocalName(attrs[i].Name)) == local {
			return p.sc.Substring(attrs[i].Value)
		}
	}
	return def
}

// nsPrefix reports whether an attribute is a namespace declaration, and
// the prefix it binds: "" for the default namespace.
func nsPrefix(name []byte) ([]byte, bool) {
	if string(name) == "xmlns" {
		return nil, true
	}
	if string(xmlq.PrefixOf(name)) == "xmlns" {
		return xmlq.LocalName(name), true
	}
	return nil, false
}

func declaresNS(attrs []xmlq.RawAttr) bool {
	for i := range attrs {
		if _, ok := nsPrefix(attrs[i].Name); ok {
			return true
		}
	}
	return false
}

// declare records the root's namespace declarations and reports whether
// they are simple enough that a written prefix is the one the DOM path
// recovers. xmlq.Parse resolves an element's prefix to a URI and then
// takes the first declaration, in attribute order, bound to that URI: so
// every prefix and every URI may be declared once only, a prefix must be
// bound to something, and nothing may bind the names encoding/xml treats
// specially ("xml", "xmlns"; a URI spelt "xmlns" would make a prefixed
// attribute read as a declaration).
func (p *scanParser) declare(attrs []xmlq.RawAttr) bool {
	for i := range attrs {
		prefix, ok := nsPrefix(attrs[i].Name)
		if !ok {
			continue
		}
		if p.nns == maxScanNS {
			return false
		}
		decl := nsDecl{prefix: p.sc.Substring(prefix), uri: p.sc.Substring(attrs[i].Value)}
		if decl.uri == "xmlns" || decl.prefix == "xml" || decl.prefix == "xmlns" ||
			(decl.prefix != "" && decl.uri == "") {
			return false
		}
		for _, seen := range p.ns[:p.nns] {
			if seen.prefix == decl.prefix || seen.uri == decl.uri {
				return false
			}
		}
		p.ns[p.nns] = decl
		p.nns++
	}
	return true
}

// extPrefix returns the Prefix the DOM path gives an extension element
// written as name: none for an unprefixed element, the written prefix
// when the root declares it; an undeclared prefix is refused.
func (p *scanParser) extPrefix(name []byte) (string, bool) {
	written := xmlq.PrefixOf(name)
	if written == nil {
		return "", true
	}
	for _, decl := range p.ns[:p.nns] {
		if decl.prefix == string(written) {
			return decl.prefix, true
		}
	}
	return "", false
}
