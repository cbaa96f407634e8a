package wsdl

import (
	"fmt"

	"harness2/internal/wire"
)

// ParamSpec describes one named, typed parameter of an operation.
type ParamSpec struct {
	Name string
	Type wire.Kind
}

// OpSpec describes one operation of a service implementation.
type OpSpec struct {
	Name   string
	Input  []ParamSpec
	Output []ParamSpec
}

// ServiceSpec is the Go-side description of a service implementation,
// playing the role of the Java class that IBM's wsdlgen/servicegen tools
// introspect in the paper's examples.
type ServiceSpec struct {
	Name       string
	Operations []OpSpec
}

// EndpointSet carries the concrete addresses to advertise for each binding
// kind; empty addresses suppress the corresponding binding, mirroring the
// provider's run-time choice of exposure.
type EndpointSet struct {
	SOAPAddress string // e.g. http://host:8080/services/MatMul
	// HTTPAddress exposes the HTTP GET (urlEncoded) binding,
	// e.g. http://host:8080/rest/MatMul. Only services whose parameters
	// are all text-encodable (no structs) may advertise it.
	HTTPAddress string
	XDRAddress  string // e.g. host:9010
	// XDRCompress names the wire-compression codec the XDR endpoint's
	// server accepts (v3 negotiation); empty suppresses the `compress`
	// capability and clients stay raw.
	XDRCompress string
	// ShmAddress locates the shared-memory handshake socket for same-host
	// clients: shm:<hostname>:<socket path>. The hostname lets a client on
	// a different machine reject the port without touching the filesystem.
	ShmAddress string
	// LocalAddress locates the JavaObject port: local:<container>/<instance>.
	LocalAddress string
	// Class names the implementing component type for the JavaObject
	// binding; Instance pins a specific stateful instance.
	Class    string
	Instance string
}

// Generate produces a complete WSDL document for spec: request/response
// message pairs per operation, one port type, and one binding+port per
// non-empty endpoint. This reproduces the paper's generation flow
// ("Executing the servicegen tool ... generates the WSDL description").
func Generate(spec ServiceSpec, eps EndpointSet) (*Definitions, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("wsdl: service spec must be named")
	}
	if len(spec.Operations) == 0 {
		return nil, fmt.Errorf("wsdl: service %q has no operations", spec.Name)
	}
	d := &Definitions{
		Name:            spec.Name,
		TargetNamespace: "urn:harness2:" + spec.Name,
	}
	pt := PortType{Name: spec.Name + "PortType"}
	for _, op := range spec.Operations {
		if op.Name == "" {
			return nil, fmt.Errorf("wsdl: service %q has unnamed operation", spec.Name)
		}
		in := Message{Name: op.Name + "Request"}
		for _, p := range op.Input {
			in.Parts = append(in.Parts, Part{Name: p.Name, Type: p.Type})
		}
		out := Message{Name: op.Name + "Response"}
		for _, p := range op.Output {
			out.Parts = append(out.Parts, Part{Name: p.Name, Type: p.Type})
		}
		d.Messages = append(d.Messages, in, out)
		pt.Operations = append(pt.Operations, Operation{
			Name:   op.Name,
			Input:  in.Name,
			Output: out.Name,
		})
	}
	d.PortTypes = append(d.PortTypes, pt)

	svc := Service{Name: spec.Name + "Service"}
	if eps.SOAPAddress != "" {
		b := Binding{
			Name:      spec.Name + "SOAPBinding",
			Type:      pt.Name,
			Kind:      BindSOAP,
			Style:     "rpc",
			Transport: "http://schemas.xmlsoap.org/soap/http",
		}
		d.Bindings = append(d.Bindings, b)
		svc.Ports = append(svc.Ports, Port{
			Name:    spec.Name + "SOAPPort",
			Binding: b.Name,
			Address: eps.SOAPAddress,
		})
	}
	if eps.HTTPAddress != "" {
		if err := spec.CarriedBy(BindHTTP); err != nil {
			return nil, err
		}
		b := Binding{Name: spec.Name + "HTTPBinding", Type: pt.Name, Kind: BindHTTP}
		d.Bindings = append(d.Bindings, b)
		svc.Ports = append(svc.Ports, Port{
			Name:    spec.Name + "HTTPPort",
			Binding: b.Name,
			Address: eps.HTTPAddress,
		})
	}
	if eps.XDRAddress != "" {
		if err := spec.CarriedBy(BindXDR); err != nil {
			return nil, err
		}
		b := Binding{Name: spec.Name + "XDRBinding", Type: pt.Name, Kind: BindXDR}
		if eps.XDRCompress != "" {
			b.Capabilities = append(b.Capabilities, Capability{Name: "compress", Value: eps.XDRCompress})
		}
		d.Bindings = append(d.Bindings, b)
		svc.Ports = append(svc.Ports, Port{
			Name:    spec.Name + "XDRPort",
			Binding: b.Name,
			Address: eps.XDRAddress,
		})
	}
	if eps.ShmAddress != "" {
		if err := spec.CarriedBy(BindShm); err != nil {
			return nil, err
		}
		b := Binding{Name: spec.Name + "ShmBinding", Type: pt.Name, Kind: BindShm}
		d.Bindings = append(d.Bindings, b)
		svc.Ports = append(svc.Ports, Port{
			Name:    spec.Name + "ShmPort",
			Binding: b.Name,
			Address: eps.ShmAddress,
		})
	}
	if eps.LocalAddress != "" {
		class := eps.Class
		if class == "" {
			class = spec.Name
		}
		b := Binding{
			Name:     spec.Name + "JavaBinding",
			Type:     pt.Name,
			Kind:     BindJavaObject,
			Class:    class,
			Instance: eps.Instance,
		}
		d.Bindings = append(d.Bindings, b)
		svc.Ports = append(svc.Ports, Port{
			Name:    spec.Name + "JavaPort",
			Binding: b.Name,
			Address: eps.LocalAddress,
		})
	}
	if len(svc.Ports) == 0 {
		return nil, fmt.Errorf("wsdl: service %q has no endpoints", spec.Name)
	}
	d.Services = append(d.Services, svc)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// CarriedBy reports the first parameter of s that a binding of kind b
// cannot carry (BindingKind.Carries), or nil when b can expose s.
func (s ServiceSpec) CarriedBy(b BindingKind) error {
	for _, op := range s.Operations {
		for _, params := range [][]ParamSpec{op.Input, op.Output} {
			for _, p := range params {
				if !b.Carries(p.Type) {
					return fmt.Errorf("wsdl: operation %q parameter %q (%v) cannot be carried by the %v binding",
						op.Name, p.Name, p.Type, b)
				}
			}
		}
	}
	return nil
}

// WSTimeSpec is the paper's Figure 7 example: a trivial Time service with
// a single no-argument getTime operation returning a string.
func WSTimeSpec() ServiceSpec {
	return ServiceSpec{
		Name: "WSTime",
		Operations: []OpSpec{{
			Name:   "getTime",
			Output: []ParamSpec{{Name: "time", Type: wire.KindString}},
		}},
	}
}

// MatMulSpec is the paper's Figure 8 example: getResult(mata, matb)
// returning an array of doubles.
func MatMulSpec() ServiceSpec {
	return ServiceSpec{
		Name: "MatMul",
		Operations: []OpSpec{{
			Name: "getResult",
			Input: []ParamSpec{
				{Name: "mata", Type: wire.KindFloat64Array},
				{Name: "matb", Type: wire.KindFloat64Array},
			},
			Output: []ParamSpec{{Name: "result", Type: wire.KindFloat64Array}},
		}},
	}
}
