package invoke

import (
	"context"
	"fmt"
	"strings"

	"harness2/internal/resilience"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// ResilientPort runs every invocation through a resilience.Policy across a
// ladder of equivalent ports, cheapest-first: the invocation framework's
// local > shm > XDR > SOAP > HTTP selection order (Figure 5) doubles as
// the failover order, so a call that cannot reach the co-located instance
// falls back to the sockets binding, then to SOAP — with retries, circuit
// breakers and (for idempotent operations) hedging applied per the policy.
//
// A nil Policy delegates straight to the first port: the disabled path is
// one branch, per the repo's nil-safety idiom.
type ResilientPort struct {
	// Ports is the failover ladder, cheapest-first. Must be non-empty.
	Ports []Port
	// Policy governs retries/breakers/hedging; nil disables all of it.
	Policy *resilience.Policy
	// Idempotent classifies operations for the retry/hedging decision;
	// nil falls back to IdempotentByName.
	Idempotent func(op string) bool
}

var _ Port = (*ResilientPort)(nil)

// NewResilientPort wraps ports in a policy-driven failover ladder.
func NewResilientPort(policy *resilience.Policy, ports ...Port) (*ResilientPort, error) {
	if len(ports) == 0 {
		return nil, fmt.Errorf("invoke: resilient port needs at least one port")
	}
	return &ResilientPort{Ports: ports, Policy: policy}, nil
}

// IdempotentByName is the default operation classifier: read-style
// operation names (get*, list*, find*, describe*, lookup*, read*, query*,
// ping, classes, status) are idempotent; everything else is assumed to
// mutate state and is retried only when the failure proves the request
// never reached a server.
func IdempotentByName(op string) bool {
	switch op {
	case "ping", "classes", "status":
		return true
	}
	for _, prefix := range []string{"get", "list", "find", "describe", "lookup", "read", "query"} {
		if strings.HasPrefix(op, prefix) {
			return true
		}
	}
	return false
}

// idempotent applies the configured classifier.
func (p *ResilientPort) idempotent(op string) bool {
	if p.Idempotent != nil {
		return p.Idempotent(op)
	}
	return IdempotentByName(op)
}

// targetID names a port's endpoint for per-endpoint breaker state.
func targetID(pt Port) string {
	return pt.Kind().String() + ":" + pt.Endpoint()
}

// Invoke implements Port: one policy execution across the ladder.
func (p *ResilientPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	if p.Policy == nil {
		return p.Ports[0].Invoke(ctx, op, args) // disabled fast path
	}
	targets := make([]resilience.Target, len(p.Ports))
	for i, pt := range p.Ports {
		pt := pt
		targets[i] = resilience.Target{
			ID: targetID(pt),
			Do: func(ctx context.Context) (any, error) {
				return pt.Invoke(ctx, op, args)
			},
		}
	}
	out, err := p.Policy.Execute(ctx, op, p.idempotent(op), targets...)
	if err != nil {
		return nil, err
	}
	res, _ := out.([]wire.Arg)
	return res, nil
}

// Kind implements Port, reporting the primary (cheapest) binding.
func (p *ResilientPort) Kind() wsdl.BindingKind { return p.Ports[0].Kind() }

// Endpoint implements Port, reporting the primary endpoint.
func (p *ResilientPort) Endpoint() string { return p.Ports[0].Endpoint() }

// Close implements Port: every rung of the ladder is released.
func (p *ResilientPort) Close() error {
	var first error
	for _, pt := range p.Ports {
		if err := pt.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DialResilient opens every usable port for defs (cheapest first) and
// wraps them in a ResilientPort governed by opts.Policy. With no policy
// configured it behaves exactly like Dial; with a single usable port the
// policy still applies retries and breakers to it.
func DialResilient(defs *wsdl.Definitions, opts Options) (Port, error) {
	var ports []Port
	if err := walk(defs, opts, func(p Port) bool { ports = append(ports, p); return true }); err != nil {
		return nil, err
	}
	if opts.Policy == nil && len(ports) == 1 {
		return ports[0], nil
	}
	return NewResilientPort(opts.Policy, ports...)
}
