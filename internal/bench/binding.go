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
// fresh in-process registry); E15's real mode shares one registry between
// two hosts.
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
		placement{"same host", "xdr socket", invoke.NewXDRPort(h.node.XDRAddr(), "lapack", invoke.Options{})},
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
