// Package wsdl models the Web Services Description Language 1.1 subset
// used by HARNESS II: abstract messages, port types, and operations, plus
// concrete bindings and service ports.
//
// Following the paper, four binding kinds are supported:
//
//   - SOAP/HTTP — the W3C-standardised binding, usable by any SOAP client
//     (including the "lightweight clients (e.g. handheld devices)" case);
//   - HTTP GET — the second standardised binding, carried for completeness;
//   - JavaObject — the HARNESS II extension binding that addresses a
//     specific, pre-existing, stateful component instance in the local
//     container ("the binding not only defines the object type but also a
//     specific instance");
//   - XDR — the HARNESS II extension binding that delivers numerical data
//     on direct socket-level connections in XDR encoding;
//   - Shm — a further extension binding for co-located processes: the
//     same XDR-encoded records carried over a shared-memory ring pair
//     instead of a socket, usable only when client and server share a
//     host (see internal/shmring).
//
// The package also implements the paper's `wsdlgen`/`servicegen` tooling
// equivalent: Generate produces a complete WSDL definition from a Go
// service descriptor (see Generate), and Parse/Node round-trip definitions
// through XML so they can be published in the registry.
package wsdl

import (
	"errors"
	"fmt"
	"strings"

	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/xmlq"
)

// BindingKind identifies the concrete access mechanism of a binding.
type BindingKind int

// Binding kinds, in decreasing order of expected invocation cost — the
// invocation framework prefers later entries when co-located.
const (
	BindSOAP       BindingKind = iota // SOAP over HTTP
	BindHTTP                          // HTTP GET (urlEncoded)
	BindXDR                           // XDR over direct socket
	BindJavaObject                    // in-process instance access
	BindShm                           // XDR records over a same-host shared-memory ring
)

// kindNames is the one list of binding kinds, indexed by kind: each
// kind's WSDL extension element prefix.
var kindNames = [...]string{
	BindSOAP: "soap", BindHTTP: "http", BindXDR: "xdr", BindJavaObject: "java", BindShm: "shm",
}

// String returns the binding kind's WSDL extension element prefix.
func (k BindingKind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// BindingKinds returns every binding kind — the kinds String names — in
// declaration order.
func BindingKinds() []BindingKind {
	out := make([]BindingKind, len(kindNames))
	for i := range out {
		out[i] = BindingKind(i)
	}
	return out
}

// Carries reports whether a binding of kind b can carry values of wire
// kind k. It is the one statement of which kinds each binding carries:
// the XDR binding "is designed to be limited to the transfer of numerical
// data", and the shm binding carries the same XDR records; HTTP GET
// carries every kind with a text form, which a struct has not; SOAP and
// the in-process JavaObject binding carry every kind.
func (b BindingKind) Carries(k wire.Kind) bool {
	switch {
	case k == wire.KindInvalid:
		return false
	case b == BindXDR || b == BindShm:
		return k.Numeric()
	case b == BindHTTP:
		return k != wire.KindStruct
	}
	return true
}

// Part is one named, typed piece of a message.
type Part struct {
	Name string
	Type wire.Kind
}

// Message is a named collection of parts.
type Message struct {
	Name  string
	Parts []Part
}

// Operation is an exchange of messages between client and server.
type Operation struct {
	Name   string
	Input  string // request message name
	Output string // response message name; empty for one-way
}

// PortType groups operations, per the WSDL abstract-interface model.
type PortType struct {
	Name       string
	Operations []Operation
}

// Binding associates a port type with a concrete protocol.
type Binding struct {
	Name string
	Type string // port type name
	Kind BindingKind
	// Style and Transport apply to SOAP bindings.
	Style     string
	Transport string
	// Class and Instance apply to JavaObject bindings: Class names the
	// component type; Instance, when non-empty, pins a specific stateful
	// instance in the container, which is the HARNESS II extension over
	// IBM's WSIF Java binding.
	Class    string
	Instance string
	// Capabilities are declared, negotiable properties of the endpoint
	// (the first step toward a declared-capability registry): named,
	// optionally-valued, rendered as <prefix:capability> children of the
	// binding extension element. The XDR binding advertises
	// {Name: "compress", Value: "<codec>"} when its server accepts v3
	// wire compression; clients that understand a capability opt in at
	// dial time, and ones that do not simply ignore it.
	Capabilities []Capability
}

// Capability is one declared binding capability.
type Capability struct {
	Name  string
	Value string
}

// Capability looks up a declared capability by name.
func (b *Binding) Capability(name string) (string, bool) {
	for _, c := range b.Capabilities {
		if c.Name == name {
			return c.Value, true
		}
	}
	return "", false
}

// Port exposes a binding at a network (or local) address.
type Port struct {
	Name    string
	Binding string // binding name
	// Address is the endpoint: an http:// URL for SOAP/HTTP bindings, a
	// host:port for XDR bindings, or a container-local locator
	// (local:<container>/<instance>) for JavaObject bindings.
	Address string
}

// Service is a named set of ports.
type Service struct {
	Name  string
	Ports []Port
}

// Definitions is a complete WSDL document.
type Definitions struct {
	Name            string
	TargetNamespace string
	Messages        []Message
	PortTypes       []PortType
	Bindings        []Binding
	Services        []Service
}

// Message returns the message with the given name, or nil.
func (d *Definitions) Message(name string) *Message {
	for i := range d.Messages {
		if d.Messages[i].Name == name {
			return &d.Messages[i]
		}
	}
	return nil
}

// PortType returns the port type with the given name, or nil.
func (d *Definitions) PortType(name string) *PortType {
	for i := range d.PortTypes {
		if d.PortTypes[i].Name == name {
			return &d.PortTypes[i]
		}
	}
	return nil
}

// Binding returns the binding with the given name, or nil.
func (d *Definitions) Binding(name string) *Binding {
	for i := range d.Bindings {
		if d.Bindings[i].Name == name {
			return &d.Bindings[i]
		}
	}
	return nil
}

// Service returns the service with the given name, or nil.
func (d *Definitions) Service(name string) *Service {
	for i := range d.Services {
		if d.Services[i].Name == name {
			return &d.Services[i]
		}
	}
	return nil
}

// Operation resolves an operation by name across all port types.
func (d *Definitions) Operation(name string) (*PortType, *Operation) {
	for i := range d.PortTypes {
		pt := &d.PortTypes[i]
		for j := range pt.Operations {
			if pt.Operations[j].Name == name {
				return pt, &pt.Operations[j]
			}
		}
	}
	return nil, nil
}

// PortsByKind returns every (service, port, binding) triple whose binding
// has the given kind, in document order.
func (d *Definitions) PortsByKind(kind BindingKind) []PortRef {
	var out []PortRef
	for i := range d.Services {
		svc := &d.Services[i]
		for j := range svc.Ports {
			p := &svc.Ports[j]
			b := d.Binding(p.Binding)
			if b != nil && b.Kind == kind {
				out = append(out, PortRef{Service: svc, Port: p, Binding: b})
			}
		}
	}
	return out
}

// PortRef bundles a resolved port with its service and binding.
type PortRef struct {
	Service *Service
	Port    *Port
	Binding *Binding
}

// Validate checks referential integrity: every operation references
// defined messages, every binding a defined port type, every port a
// defined binding; and every binding can carry every part of its port
// type's messages (BindingKind.Carries).
func (d *Definitions) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("wsdl: definitions must be named")
	}
	seenMsg := map[string]bool{}
	for _, m := range d.Messages {
		if m.Name == "" {
			return fmt.Errorf("wsdl: unnamed message")
		}
		if seenMsg[m.Name] {
			return fmt.Errorf("wsdl: duplicate message %q", m.Name)
		}
		seenMsg[m.Name] = true
		for _, p := range m.Parts {
			if p.Name == "" {
				return fmt.Errorf("wsdl: message %q has unnamed part", m.Name)
			}
			if p.Type == wire.KindInvalid {
				return fmt.Errorf("wsdl: message %q part %q has invalid type", m.Name, p.Name)
			}
		}
	}
	for _, pt := range d.PortTypes {
		for _, op := range pt.Operations {
			if op.Input != "" && d.Message(op.Input) == nil {
				return fmt.Errorf("wsdl: operation %q references unknown input message %q", op.Name, op.Input)
			}
			if op.Output != "" && d.Message(op.Output) == nil {
				return fmt.Errorf("wsdl: operation %q references unknown output message %q", op.Name, op.Output)
			}
		}
	}
	for _, b := range d.Bindings {
		pt := d.PortType(b.Type)
		if pt == nil {
			return fmt.Errorf("wsdl: binding %q references unknown port type %q", b.Name, b.Type)
		}
		for _, op := range pt.Operations {
			for _, msgName := range []string{op.Input, op.Output} {
				if msgName == "" {
					continue
				}
				for _, part := range d.Message(msgName).Parts {
					if !b.Kind.Carries(part.Type) {
						return fmt.Errorf("wsdl: %v binding %q cannot carry part %q (%v) of message %q",
							b.Kind, b.Name, part.Name, part.Type, msgName)
					}
				}
			}
		}
	}
	for _, s := range d.Services {
		for _, p := range s.Ports {
			if d.Binding(p.Binding) == nil {
				return fmt.Errorf("wsdl: port %q references unknown binding %q", p.Name, p.Binding)
			}
			if p.Address == "" {
				return fmt.Errorf("wsdl: port %q has no address", p.Name)
			}
		}
	}
	return nil
}

// Namespace URIs used in generated documents.
const (
	NSWSDL = "http://schemas.xmlsoap.org/wsdl/"
	NSSOAP = "http://schemas.xmlsoap.org/wsdl/soap/"
	NSHTTP = "http://schemas.xmlsoap.org/wsdl/http/"
	NSJava = "urn:harness2:wsdl:java"
	NSXDR  = "urn:harness2:wsdl:xdr"
	NSShm  = "urn:harness2:wsdl:shm"
	NSXSD  = "http://www.w3.org/2001/XMLSchema"
)

// Node renders the definitions as an xmlq document following the layout of
// the paper's Figures 7 and 8.
func (d *Definitions) Node() *xmlq.Node {
	root := xmlq.NewNode("definitions")
	root.SetAttr("name", d.Name)
	if d.TargetNamespace != "" {
		root.SetAttr("targetNamespace", d.TargetNamespace)
	}
	root.Attrs = append(root.Attrs,
		xmlq.Attr{Space: "", Local: "xmlns", Value: NSWSDL},
		xmlq.Attr{Space: "xmlns", Local: "soap", Value: NSSOAP},
		xmlq.Attr{Space: "xmlns", Local: "http", Value: NSHTTP},
		xmlq.Attr{Space: "xmlns", Local: "java", Value: NSJava},
		xmlq.Attr{Space: "xmlns", Local: "xdr", Value: NSXDR},
		xmlq.Attr{Space: "xmlns", Local: "shm", Value: NSShm},
		xmlq.Attr{Space: "xmlns", Local: "xsd", Value: NSXSD},
	)
	for _, m := range d.Messages {
		mn := root.AddNew("message")
		mn.SetAttr("name", m.Name)
		for _, p := range m.Parts {
			pn := mn.AddNew("part")
			pn.SetAttr("name", p.Name)
			pn.SetAttr("type", "xsd:"+p.Type.String())
		}
	}
	for _, pt := range d.PortTypes {
		ptn := root.AddNew("portType")
		ptn.SetAttr("name", pt.Name)
		for _, op := range pt.Operations {
			opn := ptn.AddNew("operation")
			opn.SetAttr("name", op.Name)
			if op.Input != "" {
				opn.AddNew("input").SetAttr("message", op.Input)
			}
			if op.Output != "" {
				opn.AddNew("output").SetAttr("message", op.Output)
			}
		}
	}
	for _, b := range d.Bindings {
		bn := root.AddNew("binding")
		bn.SetAttr("name", b.Name)
		bn.SetAttr("type", b.Type)
		var ext *xmlq.Node
		switch b.Kind {
		case BindSOAP:
			ext = bn.AddNew("soap:binding")
			style := b.Style
			if style == "" {
				style = "rpc"
			}
			transport := b.Transport
			if transport == "" {
				transport = "http://schemas.xmlsoap.org/soap/http"
			}
			ext.SetAttr("style", style)
			ext.SetAttr("transport", transport)
		case BindHTTP:
			ext = bn.AddNew("http:binding")
			ext.SetAttr("verb", "GET")
		case BindJavaObject:
			ext = bn.AddNew("java:binding")
			ext.SetAttr("class", b.Class)
			if b.Instance != "" {
				ext.SetAttr("instance", b.Instance)
			}
		case BindXDR:
			ext = bn.AddNew("xdr:binding")
			ext.SetAttr("transport", "socket")
		case BindShm:
			ext = bn.AddNew("shm:binding")
			ext.SetAttr("transport", "shared-memory")
		}
		if ext != nil {
			for _, c := range b.Capabilities {
				cn := ext.AddNew(ext.Prefix + ":capability")
				cn.SetAttr("name", c.Name)
				if c.Value != "" {
					cn.SetAttr("value", c.Value)
				}
			}
		}
	}
	for _, s := range d.Services {
		sn := root.AddNew("service")
		sn.SetAttr("name", s.Name)
		for _, p := range s.Ports {
			pn := sn.AddNew("port")
			pn.SetAttr("name", p.Name)
			pn.SetAttr("binding", p.Binding)
			pn.AddNew("address").SetAttr("location", p.Address)
		}
	}
	return root
}

// String renders the definitions as XML text.
func (d *Definitions) String() string { return d.Node().String() }

// Parse reconstructs Definitions from an xmlq document produced by Node
// (or any structurally-compatible WSDL subset document).
func Parse(root *xmlq.Node) (*Definitions, error) {
	if root.Local != "definitions" {
		return nil, fmt.Errorf("wsdl: root element is %q, want definitions", root.Local)
	}
	d := &Definitions{
		Name:            root.AttrOr("name", ""),
		TargetNamespace: root.AttrOr("targetNamespace", ""),
	}
	for _, mn := range root.ChildrenNamed("message") {
		m := Message{Name: mn.AttrOr("name", "")}
		for _, pn := range mn.ChildrenNamed("part") {
			typeName := strings.TrimPrefix(pn.AttrOr("type", ""), "xsd:")
			k := wire.KindByName(typeName)
			if k == wire.KindInvalid {
				return nil, fmt.Errorf("wsdl: message %q part %q has unknown type %q",
					m.Name, pn.AttrOr("name", ""), typeName)
			}
			m.Parts = append(m.Parts, Part{Name: pn.AttrOr("name", ""), Type: k})
		}
		d.Messages = append(d.Messages, m)
	}
	for _, ptn := range root.ChildrenNamed("portType") {
		pt := PortType{Name: ptn.AttrOr("name", "")}
		for _, opn := range ptn.ChildrenNamed("operation") {
			op := Operation{Name: opn.AttrOr("name", "")}
			if in := opn.Child("input"); in != nil {
				op.Input = in.AttrOr("message", "")
			}
			if out := opn.Child("output"); out != nil {
				op.Output = out.AttrOr("message", "")
			}
			pt.Operations = append(pt.Operations, op)
		}
		d.PortTypes = append(d.PortTypes, pt)
	}
	for _, bn := range root.ChildrenNamed("binding") {
		b := Binding{Name: bn.AttrOr("name", ""), Type: bn.AttrOr("type", "")}
		ext := bn.Child("binding")
		if ext == nil {
			return nil, fmt.Errorf("wsdl: binding %q has no extension element", b.Name)
		}
		switch ext.Prefix {
		case "soap":
			b.Kind = BindSOAP
			b.Style = ext.AttrOr("style", "rpc")
			b.Transport = ext.AttrOr("transport", "")
		case "http":
			b.Kind = BindHTTP
		case "java":
			b.Kind = BindJavaObject
			b.Class = ext.AttrOr("class", "")
			b.Instance = ext.AttrOr("instance", "")
		case "xdr":
			b.Kind = BindXDR
		case "shm":
			b.Kind = BindShm
		default:
			return nil, fmt.Errorf("wsdl: binding %q has unknown extension prefix %q", b.Name, ext.Prefix)
		}
		for _, cn := range ext.ChildrenNamed("capability") {
			b.Capabilities = append(b.Capabilities, Capability{
				Name:  cn.AttrOr("name", ""),
				Value: cn.AttrOr("value", ""),
			})
		}
		d.Bindings = append(d.Bindings, b)
	}
	for _, sn := range root.ChildrenNamed("service") {
		s := Service{Name: sn.AttrOr("name", "")}
		for _, pn := range sn.ChildrenNamed("port") {
			p := Port{Name: pn.AttrOr("name", ""), Binding: pn.AttrOr("binding", "")}
			if addr := pn.Child("address"); addr != nil {
				p.Address = addr.AttrOr("location", "")
			}
			s.Ports = append(s.Ports, p)
		}
		d.Services = append(d.Services, s)
	}
	return d, nil
}

// Parses by path (S27): the scan parse covers what Generate writes; a
// document that needs the DOM (a comment, an escaped '&' in an address,
// non-ASCII names, re-declared prefixes) pays several times the cost, and
// the split shows an operator when real documents do.
var parseScanned, parseDOMed *telemetry.Counter

func init() {
	r := telemetry.Default()
	r.Help("harness_wsdl_parse_total", "WSDL document parses by path (token scan vs DOM fallback)")
	parseScanned = r.Counter("harness_wsdl_parse_total", "path", "scan")
	parseDOMed = r.Counter("harness_wsdl_parse_total", "path", "dom")
}

// ParseString parses a WSDL document from XML text: in one pass over the
// text without building a tree (scan.go), or through the tree and Parse
// when the scan refuses the document. Either way the result is what Parse
// gives. The strings of a scanned result are substrings of s.
func ParseString(s string) (*Definitions, error) {
	d, err := parseScan(s)
	if errors.Is(err, xmlq.ErrComplex) {
		parseDOMed.Inc()
		return parseDOM(s)
	}
	parseScanned.Inc()
	return d, err
}

// parseDOM is the reference path: the full XML grammar through
// encoding/xml into a tree, then Parse.
func parseDOM(s string) (*Definitions, error) {
	root, err := xmlq.ParseString(s)
	if err != nil {
		return nil, err
	}
	return Parse(root)
}
