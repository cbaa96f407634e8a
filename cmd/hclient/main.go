// Command hclient is a generic HARNESS II service client: it discovers a
// service (through a SOAP registry or a node's WSIL inspection document),
// prints its description, and optionally invokes an operation with
// parameters given on the command line.
//
// Usage:
//
//	hclient -registry http://127.0.0.1:8900/ -service WSTime -op getTime
//	hclient -wsil http://127.0.0.1:8080/inspection.wsil -service MatMul \
//	        -op getResult -arg mata=1,2,3,4 -arg matb=5,6,7,8 -arg n:int=2
//
// Arguments are name=value pairs; values parse as float64 arrays when they
// contain a comma, float64 otherwise. A ":int", ":long", ":string" or
// ":bool" suffix on the name forces the type.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"harness2/internal/invoke"
	"harness2/internal/registry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

type argList []string

func (a *argList) String() string     { return strings.Join(*a, " ") }
func (a *argList) Set(s string) error { *a = append(*a, s); return nil }

func main() {
	var (
		regURL  = flag.String("registry", "", "SOAP registry endpoint")
		wsilURL = flag.String("wsil", "", "WSIL inspection document URL")
		service = flag.String("service", "", "service name to discover")
		op      = flag.String("op", "", "operation to invoke (empty: just print the WSDL)")
		binding = flag.String("binding", "auto", "binding preference: auto | soap | xdr | shm | http")
		timeout = flag.Duration("timeout", 30*time.Second, "invocation timeout")
	)
	var rawArgs argList
	flag.Var(&rawArgs, "arg", "operation argument name[:type]=value (repeatable)")
	flag.Parse()

	defs, err := discover(*regURL, *wsilURL, *service)
	if err != nil {
		log.Fatalf("hclient: %v", err)
	}
	fmt.Printf("--- %s ---\n%s\n", defs.Name, defs.String())
	if *op == "" {
		return
	}

	opts := invoke.Options{}
	switch *binding {
	case "auto":
	case "soap":
		opts.Forbid = []wsdl.BindingKind{wsdl.BindXDR, wsdl.BindShm, wsdl.BindHTTP, wsdl.BindJavaObject}
	case "xdr":
		opts.Forbid = []wsdl.BindingKind{wsdl.BindSOAP, wsdl.BindShm, wsdl.BindHTTP, wsdl.BindJavaObject}
	case "shm":
		opts.Forbid = []wsdl.BindingKind{wsdl.BindSOAP, wsdl.BindXDR, wsdl.BindHTTP, wsdl.BindJavaObject}
	case "http":
		opts.Forbid = []wsdl.BindingKind{wsdl.BindSOAP, wsdl.BindXDR, wsdl.BindShm, wsdl.BindJavaObject}
	default:
		log.Fatalf("hclient: unknown binding %q", *binding)
	}
	port, err := invoke.Dial(defs, opts)
	if err != nil {
		log.Fatalf("hclient: %v", err)
	}
	defer port.Close()

	args, err := parseArgs(rawArgs)
	if err != nil {
		log.Fatalf("hclient: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	out, err := port.Invoke(ctx, *op, args)
	if err != nil {
		log.Fatalf("hclient: invoke %s: %v", *op, err)
	}
	fmt.Printf("invoked %s over the %v binding in %v\n", *op, port.Kind(), time.Since(start))
	for _, o := range out {
		fmt.Printf("  %s = %v\n", o.Name, truncate(fmt.Sprintf("%v", o.Value), 120))
	}
}

func discover(regURL, wsilURL, service string) (*wsdl.Definitions, error) {
	if service == "" {
		return nil, fmt.Errorf("a -service name is required")
	}
	switch {
	case regURL != "":
		remote := registry.NewRemote(regURL)
		entries := remote.FindByName(service)
		if len(entries) == 0 {
			return nil, fmt.Errorf("service %q not found in registry %s", service, regURL)
		}
		return wsdl.ParseString(entries[0].WSDL)
	case wsilURL != "":
		all, err := registry.DiscoverViaWSIL(wsilURL)
		if err != nil {
			return nil, err
		}
		for _, d := range all {
			if d.Name == service {
				return d, nil
			}
		}
		return nil, fmt.Errorf("service %q not in inspection document %s", service, wsilURL)
	}
	return nil, fmt.Errorf("either -registry or -wsil is required")
}

func parseArgs(raw []string) ([]wire.Arg, error) {
	var out []wire.Arg
	for _, r := range raw {
		name, value, ok := strings.Cut(r, "=")
		if !ok {
			return nil, fmt.Errorf("argument %q is not name=value", r)
		}
		typ := ""
		if n, t, ok := strings.Cut(name, ":"); ok {
			name, typ = n, t
		}
		v, err := parseValue(typ, value)
		if err != nil {
			return nil, fmt.Errorf("argument %q: %w", name, err)
		}
		out = append(out, wire.Arg{Name: name, Value: v})
	}
	return out, nil
}

// parseValue reads one -arg value. The CLI spellings bool, int, long,
// double and string name wire kinds whose lexical forms the text
// bindings share; a comma makes a double array, and an untyped value is a
// double when it parses as one and a string otherwise.
func parseValue(typ, value string) (any, error) {
	k, ok := map[string]wire.Kind{
		"string": wire.KindString, "bool": wire.KindBool, "int": wire.KindInt32,
		"long": wire.KindInt64, "double": wire.KindFloat64, "": wire.KindFloat64,
	}[typ]
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown type %q", typ)
	case k == wire.KindFloat64 && strings.Contains(value, ","):
		parts := strings.Split(value, ",")
		b, _ := wire.NewArrayBuilder[string](k, len(parts))
		for _, p := range parts {
			if err := b.Add(strings.TrimSpace(p)); err != nil {
				return nil, err
			}
		}
		return b.Value(), nil
	case typ == "":
		if v, err := wire.ParseText(k, value); err == nil {
			return v, nil
		}
		return value, nil
	}
	return wire.ParseText(k, value)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
