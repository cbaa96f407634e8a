package cluster

import (
	"context"
	"fmt"
	"sync"

	"harness2/internal/resilience"
	"harness2/internal/resilience/chaos"
	"harness2/internal/soap"
)

// PeerCaller carries one peer RPC to the peer listening on addr. The two
// implementations are MemNet (in-process, deterministic, used by the
// cluster tests and the E17 simnet runs) and HTTPCaller (SOAP over HTTP,
// used by real multi-process deployments). Both route through the chaos
// injector at site ("cluster", method, addr) so every peer RPC is fault-
// injectable, per the resilience plane's convention.
type PeerCaller interface {
	Call(ctx context.Context, addr, method string, params []soap.Param) ([]soap.Param, error)
}

// PeerHandler is the server half a transport dispatches into: a node's
// peer-op demultiplexer.
type PeerHandler func(ctx context.Context, method string, params []soap.Param) ([]soap.Param, error)

// MemNet is an in-memory peer transport: nodes register their handler
// under their address, and calls are plain (synchronous, reentrant)
// function calls. Kill severs a node — calls to it fail like a dead TCP
// endpoint — and Restore brings it back, which is what the churn tests
// and E17 use to fail peers deterministically.
type MemNet struct {
	// Chaos, when non-nil, is consulted before every delivery at site
	// ("cluster", method, addr).
	Chaos *chaos.Injector

	mu     sync.RWMutex
	nodes  map[string]PeerHandler
	killed map[string]bool
}

// NewMemNet returns an empty in-memory transport.
func NewMemNet() *MemNet {
	return &MemNet{nodes: make(map[string]PeerHandler), killed: make(map[string]bool)}
}

// Register attaches a node's handler at addr (replacing any previous
// registration, as a restarted process would).
func (m *MemNet) Register(addr string, h PeerHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[addr] = h
	delete(m.killed, addr)
}

// Kill severs addr: subsequent calls to it fail with a transport error
// until Restore. The node's handler (and its store) stays intact, like a
// partitioned-but-running process.
func (m *MemNet) Kill(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.killed[addr] = true
}

// Restore heals a killed addr.
func (m *MemNet) Restore(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.killed, addr)
}

// Call implements PeerCaller.
func (m *MemNet) Call(ctx context.Context, addr, method string, params []soap.Param) ([]soap.Param, error) {
	if err := m.Chaos.Apply(ctx, "cluster", method, addr); err != nil {
		return nil, err
	}
	m.mu.RLock()
	h, ok := m.nodes[addr]
	dead := m.killed[addr]
	m.mu.RUnlock()
	if !ok || dead {
		return nil, fmt.Errorf("cluster: peer %s unreachable", addr)
	}
	return h(ctx, method, params)
}

// HTTPCaller carries peer RPCs as SOAP calls to each peer's HTTP
// endpoint (the same endpoint its public registry operations use).
type HTTPCaller struct {
	// Client is the SOAP transport; its zero value uses the shared HTTP
	// client.
	Client soap.Client
	// Policy, when non-nil, runs every peer RPC through the resilience
	// plane (retries, per-peer breakers, hedging per its options).
	Policy *resilience.Policy
	// Chaos, when non-nil, is consulted before every call at site
	// ("cluster", method, addr).
	Chaos *chaos.Injector
}

// Call implements PeerCaller.
func (c *HTTPCaller) Call(ctx context.Context, addr, method string, params []soap.Param) ([]soap.Param, error) {
	if err := c.Chaos.Apply(ctx, "cluster", method, addr); err != nil {
		return nil, err
	}
	call := &soap.Call{Method: method, Params: params}
	if c.Policy == nil {
		return c.Client.CallRemote(context.Background(), addr, call)
	}
	out, err := c.Policy.Do(ctx, addr, "cluster."+method, peerOpIdempotent(method),
		func(context.Context) (any, error) {
			return c.Client.CallRemote(context.Background(), addr, call)
		})
	if err != nil {
		return nil, err
	}
	params, _ = out.([]soap.Param)
	return params, nil
}

// peerOpIdempotent classifies peer ops for the retry policy: everything
// in the peer protocol is safe to repeat (replication and removal are
// keyed and idempotent, gossip merges are monotone) except nothing —
// but probes of a slow peer should not amplify load, so gossip is the
// one op left non-idempotent (a failed probe is itself the signal).
func peerOpIdempotent(method string) bool {
	return method != opGossip
}
