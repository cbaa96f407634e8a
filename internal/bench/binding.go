package bench

import (
	"context"
	"fmt"
	"time"

	"harness2/internal/container"
	"harness2/internal/core"
	"harness2/internal/invoke"
	"harness2/internal/registry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// host stands up one framework node with the built-in components deployed
// and published, for the binding experiments.
type host struct {
	fw   *core.Framework
	node *core.Node
}

func newHost() (*host, error) { return newHostWith(nil) }

// newHostWith builds the host on a caller-supplied lookup plane (nil: a
// fresh in-process registry) — E17 re-runs the E1 amortization loop with
// a registry-cluster node here.
func newHostWith(lookup registry.Lookup) (*host, error) {
	fw := core.NewFramework(lookup)
	node, err := fw.AddNode("bench-node", core.NodeOptions{})
	if err != nil {
		return nil, err
	}
	core.RegisterBuiltins(node.Container())
	return &host{fw: fw, node: node}, nil
}

func (h *host) close() { h.fw.Close() }

func (h *host) publish(class, id string) (*wsdl.Definitions, error) {
	if _, _, err := h.fw.DeployAndPublish(h.node.Name(), class, id); err != nil {
		return nil, err
	}
	defsList, err := h.fw.Discover(class)
	if err != nil {
		return nil, err
	}
	if len(defsList) == 0 {
		return nil, fmt.Errorf("bench: %s not discoverable", class)
	}
	return defsList[len(defsList)-1], nil
}

// E3Bindings measures end-to-end MatMul invocation latency per binding,
// reproducing the localization claim of §5 and Figure 5: in-process
// JavaObject access beats XDR sockets beats SOAP/HTTP, with the gap
// narrowing as computation grows to dominate transport.
func E3Bindings(sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "MatMul invocation latency by binding (loopback network)",
		Note:  "paper §5 localization issue / Figure 5; compute row is the bare kernel",
		Columns: []string{"n", "binding", "per-call", "vs compute",
			"transport overhead"},
	}
	h, err := newHost()
	if err != nil {
		return nil, err
	}
	defer h.close()
	defs, err := h.publish("MatMul", "mm")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	for _, n := range sizes {
		a := RandDoubles(n*n, int64(n))
		b := RandDoubles(n*n, int64(n)+1)
		args := wire.Args("mata", a, "matb", b, "n", int32(n))
		reps := matmulReps(n)

		compute := timeIt(reps, func() {
			if _, err := core.MatMul(a, b, n); err != nil {
				panic(err)
			}
		})
		t.AddRow(FmtInt(n), "compute-only", FmtDur(compute), FmtRatio(1), "-")

		type variant struct {
			name string
			port invoke.Port
		}
		variants := []variant{
			{"local (JavaObject)", &invoke.LocalPort{Container: h.node.Container(), Instance: "mm"}},
		}
		if addr := h.node.ShmAddr(); addr != "" {
			if sp, err := invoke.NewShmPort(addr, "mm"); err == nil {
				variants = append(variants, variant{"shm (same host)", sp})
			}
		}
		variants = append(variants,
			variant{"xdr (reused conn)", invoke.NewXDRPort(h.node.XDRAddr(), "mm")},
			variant{"xdr (dial/call)", dialPerCallPort{h.node.XDRAddr(), "mm"}},
		)
		if soapRefs := defs.PortsByKind(wsdl.BindSOAP); len(soapRefs) == 1 {
			variants = append(variants, variant{"soap/http (base64)",
				&invoke.SOAPPort{URL: soapRefs[0].Port.Address}})
		}
		for _, v := range variants {
			port := v.port
			call := func() {
				if _, err := port.Invoke(ctx, "getResult", args); err != nil {
					panic(fmt.Sprintf("%s: %v", v.name, err))
				}
			}
			// Warm the connection (and, for shm, fault in the segment
			// pages) so the steady-state rows measure transport, not
			// setup; the dial/call variant re-dials inside the loop and
			// keeps measuring exactly that.
			call()
			call()
			per := timeIt(reps, call)
			overhead := per - compute
			if overhead < 0 {
				overhead = 0
			}
			t.AddRow(FmtInt(n), v.name, FmtDur(per),
				FmtRatio(float64(per)/float64(compute)), FmtDur(overhead))
			_ = port.Close()
		}
	}
	return t, nil
}

func matmulReps(n int) int {
	switch {
	case n <= 16:
		return 200
	case n <= 64:
		return 50
	case n <= 256:
		return 10
	default:
		return 3
	}
}

// E1Amortization reproduces the Figure 3/4 loop-structure claim: the
// lookup service drops out after discovery, so per-call cost converges to
// the bare invocation cost as calls amortize the one-time discover+bind.
func E1Amortization(callCounts []int) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Discovery amortization: per-call cost vs calls per discovery",
		Note:    "paper §4/Figure 3: after discovery the lookup service is out of the loop",
		Columns: []string{"calls", "discover+bind", "mean per-call", "total/call"},
	}
	h, err := newHost()
	if err != nil {
		return nil, err
	}
	defer h.close()
	if _, err := h.publish("WSTime", "clock"); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, calls := range callCounts {
		start := time.Now()
		defsList, err := h.fw.Discover("WSTime")
		if err != nil || len(defsList) == 0 {
			return nil, fmt.Errorf("bench: discover failed: %v", err)
		}
		// Force the network (SOAP) binding: a handheld-style client.
		port, err := h.fw.DialRemote(defsList[0])
		if err != nil {
			return nil, err
		}
		setup := time.Since(start)
		per := timeIt(calls, func() {
			if _, err := port.Invoke(ctx, "getTime", nil); err != nil {
				panic(err)
			}
		})
		_ = port.Close()
		totalPerCall := (setup + per*time.Duration(calls)) / time.Duration(calls)
		t.AddRow(FmtInt(calls), FmtDur(setup), FmtDur(per), FmtDur(totalPerCall))
	}
	return t, nil
}

// E4Deployment contrasts the deployment cost models of §5: the era
// application-server flow vs the HARNESS II lightweight container, plus
// the real measured instantiation cost of the latter.
func E4Deployment() (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Component deployment cost: heavyweight app-server vs lightweight container",
		Note:  "modelled columns use the DeployPolicy cost model; measured column is wall time",
		Columns: []string{"policy", "modelled deploy", "measured instantiate",
			"time-to-first-request", "deploys/sec (measured)"},
	}
	for _, policy := range []container.DeployPolicy{container.Heavyweight, container.Lightweight} {
		c := container.New(container.Config{Name: "deploy-bench", Policy: policy})
		core.RegisterBuiltins(c)
		// Measured instantiation (mechanical cost only; Sleep is false).
		const reps = 200
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, _, err := c.Deploy("WSTime", fmt.Sprintf("w%d", i)); err != nil {
				return nil, err
			}
		}
		measured := time.Since(start) / reps
		// Time to first request: deploy + one local invocation.
		inst, modelled, err := c.Deploy("WSTime", "first")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := c.Invoke(context.Background(), inst.ID, "getTime", nil); err != nil {
			return nil, err
		}
		firstReq := modelled + time.Since(t0)
		rate := 1.0 / measured.Seconds()
		t.AddRow(policy.Name, FmtDur(policy.Cost()), FmtDur(measured),
			FmtDur(firstReq), FmtFloat(rate))
	}
	return t, nil
}

// E9Locality reproduces the §6 LAPACK scenario: the same LinSolve jobs
// run against three placements of the application logic relative to the
// library component.
func E9Locality(n, jobs int) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   fmt.Sprintf("LAPACK locality scenario: %d LinSolve(%d×%d) jobs by placement", jobs, n, n),
		Note:    "paper §6: move the application next to the library, then into its container",
		Columns: []string{"placement", "binding", "total", "per job"},
	}
	h, err := newHost()
	if err != nil {
		return nil, err
	}
	defer h.close()
	defs, err := h.publish("LinSolve", "lapack")
	if err != nil {
		return nil, err
	}
	a := RandMatrix(n, 42)
	b := RandDoubles(n, 43)
	args := wire.Args("a", a, "b", b, "n", int32(n))
	ctx := context.Background()

	type placement struct {
		label, binding string
		port           invoke.Port
	}
	var placements []placement
	if refs := defs.PortsByKind(wsdl.BindSOAP); len(refs) == 1 {
		placements = append(placements, placement{"remote host", "soap/http",
			&invoke.SOAPPort{URL: refs[0].Port.Address}})
	}
	placements = append(placements,
		placement{"same host", "xdr socket", invoke.NewXDRPort(h.node.XDRAddr(), "lapack")},
		placement{"same container", "local (JavaObject)",
			&invoke.LocalPort{Container: h.node.Container(), Instance: "lapack"}},
	)
	for _, p := range placements {
		start := time.Now()
		for j := 0; j < jobs; j++ {
			if _, err := p.port.Invoke(ctx, "solve", args); err != nil {
				return nil, fmt.Errorf("bench: %s: %w", p.label, err)
			}
		}
		total := time.Since(start)
		_ = p.port.Close()
		t.AddRow(p.label, p.binding, FmtDur(total), FmtDur(total/time.Duration(jobs)))
	}
	return t, nil
}
