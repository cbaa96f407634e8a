package cluster

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"harness2/internal/registry"
	"harness2/internal/telemetry"
)

// hops sums what one-hop routing is meant to keep at zero: operations a
// node forwarded to the owner, and renew Redirects the router followed.
func hops(nodes []*Node, r *Router) uint64 {
	var n uint64
	for _, node := range nodes {
		n += node.Stats().Forwarded
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rem := range r.remotes {
		n += rem.Redirects()
	}
	return n
}

// mixedKeyedOps drives rounds of publish, get, find, renew, remove over
// names distinct per prefix through lk, stopping at the first failure.
func mixedKeyedOps(lk *Router, xml, prefix string, rounds int) error {
	for i := 0; i < rounds; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		key, err := lk.PublishLeased(registry.Entry{Name: name, WSDL: xml}, time.Hour)
		if err != nil {
			return fmt.Errorf("publish %s: %w", name, err)
		}
		if _, ok, err := lk.GetErr(key); err != nil || !ok {
			return fmt.Errorf("get %s: ok=%v err=%v", key, ok, err)
		}
		if es, err := lk.FindByNameErr(name); err != nil || len(es) != 1 {
			return fmt.Errorf("find %s: %v err=%v", name, es, err)
		}
		if err := lk.Renew(key); err != nil {
			return fmt.Errorf("renew %s: %w", key, err)
		}
		if err := lk.Remove(key); err != nil {
			return fmt.Errorf("remove %s: %w", key, err)
		}
	}
	return nil
}

// TestRouterOneHop: on a settled cluster the router sends every keyed
// operation straight to its primary owner — no node forwards, no renew is
// redirected — from the very first operation, with callers sharing the
// router as the benchmark's do.
func TestRouterOneHop(t *testing.T) {
	nodes, _ := httpCluster(t, 3, 2)
	router := NewRouter(nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr())
	xml := testWSDL(t)
	const callers, rounds = 4, 50 // 1000 keyed operations
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() { errs <- mixedKeyedOps(router, xml, fmt.Sprintf("Caller%d-", c), rounds) }()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if n := hops(nodes, router); n != 0 {
		t.Fatalf("%d forwards/redirects over 1000 keyed ops, want 0", n)
	}
}

// TestRouterStaleRing joins a fourth peer under two routers that learned
// the three-peer ring. Every operation keeps succeeding (peers forward or
// redirect what the stale ring misroutes), and each router stops paying
// the extra hop once it re-learns: one on its first followed Redirect,
// the other — issuing only publishes, which peers forward silently — on
// the operation count.
func TestRouterStaleRing(t *testing.T) {
	nodes, _ := httpCluster(t, 3, 2)
	xml := testWSDL(t)
	byRedirect := NewRouter(nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr())
	byCount := NewRouter(nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr())
	entries := make([]registry.Entry, 64)
	for i := range entries {
		entries[i] = registry.Entry{Name: fmt.Sprintf("Svc%d", i), WSDL: xml}
		key, err := byRedirect.PublishLeased(entries[i], time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		entries[i].Key = key
	}
	if _, err := byCount.PublishLeased(entries[0], time.Hour); err != nil { // learns the ring
		t.Fatal(err)
	}

	srv := httptest.NewUnstartedServer(nil)
	var seed []PeerState
	for _, n := range nodes {
		seed = append(seed, PeerState{ID: n.ID(), Addr: n.Addr()})
	}
	joined := NewNode(Config{
		ID: "n4", Addr: "http://" + srv.Listener.Addr().String(), Seed: seed,
		Replicas: 2, DeadAfter: 3 * time.Second, Caller: &HTTPCaller{}, Telemetry: telemetry.Disabled(),
	})
	srv.Config.Handler = NewServer(joined)
	srv.Start()
	t.Cleanup(srv.Close)
	all := append(append([]*Node(nil), nodes...), joined)
	for round := 0; round < 3; round++ {
		stepAll(all, nil)
	}
	for _, n := range all {
		if n.Ring().Len() != 4 {
			t.Fatalf("node %s ring has %d peers after join", n.ID(), n.Ring().Len())
		}
	}
	moved := 0
	for _, e := range entries {
		if joined.Ring().Owner(e.Name) == "n4" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no name moved to the joiner; the test cannot observe a stale ring")
	}

	// Redirect path: renewing a moved key on its old owner answers
	// Redirect, which the router follows and takes as the cue to re-learn.
	before := hops(all, byRedirect)
	for _, e := range entries {
		if err := byRedirect.Renew(e.Key); err != nil {
			t.Fatalf("renew %s on stale ring: %v", e.Key, err)
		}
	}
	if hops(all, byRedirect) == before {
		t.Fatal("stale ring cost no extra hop; the join moved nothing the router routes")
	}
	before = hops(all, byRedirect)
	for _, e := range entries {
		if err := byRedirect.Renew(e.Key); err != nil {
			t.Fatal(err)
		}
	}
	if n := hops(all, byRedirect) - before; n != 0 {
		t.Fatalf("%d extra hops after the redirect re-learn, want 0", n)
	}

	// Count path: keyed re-publishes are forwarded, never redirected, so
	// only the operation count tells this router its ring is stale.
	before = hops(all, byCount)
	for i := 0; i <= ringRelearnOps; i++ {
		if _, err := byCount.PublishLeased(entries[i%len(entries)], time.Hour); err != nil {
			t.Fatalf("publish on stale ring: %v", err)
		}
	}
	if hops(all, byCount) == before {
		t.Fatal("stale ring cost no forward")
	}
	before = hops(all, byCount)
	for _, e := range entries {
		if _, err := byCount.PublishLeased(e, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if n := hops(all, byCount) - before; n != 0 {
		t.Fatalf("%d forwards after the counted re-learn, want 0", n)
	}
}

// TestRemoveCountsFailedReplicaRemoval: a replica that cannot be told to
// drop its copy keeps an entry a replica-served find can still return, so
// the failure must show in the replication-failure counter.
func TestRemoveCountsFailedReplicaRemoval(t *testing.T) {
	net, nodes, _ := testCluster(t, 3, 2)
	key, err := nodes[0].Publish(registry.Entry{Name: "WSTime", WSDL: testWSDL(t)})
	if err != nil {
		t.Fatal(err)
	}
	var primary, replica *Node
	for _, n := range nodes {
		switch {
		case n.leads(n.owners("WSTime")):
			primary = n
		case n.IsLocalOwner("WSTime"):
			replica = n
		}
	}
	net.Kill(replica.Addr())
	if err := primary.Remove(key); err != nil {
		t.Fatalf("remove on the owner must succeed despite the dead replica: %v", err)
	}
	if got := primary.Stats().ReplicationFailures; got != 1 {
		t.Fatalf("ReplicationFailures = %d after a failed replica removal, want 1", got)
	}
	if held := copies(nodes, key); len(held) != 1 || held[0] != replica.ID() {
		t.Fatalf("copies on %v, want only the unreachable replica %s", held, replica.ID())
	}
}

// TestWriteCostFlatInStoreSize: a leased publish+remove on a node costs
// the same whether its store holds 10³ or 10⁵ live leases — nothing on the
// write path may scan the store. (The bound leaves room for a larger
// map's cache misses.)
func TestWriteCostFlatInStoreSize(t *testing.T) {
	xml := testWSDL(t)
	perPair := func(standing int) time.Duration {
		n := NewNode(Config{ID: "n1", Addr: "addr1", Telemetry: telemetry.Disabled()})
		for i := 0; i < standing; i++ {
			e := registry.Entry{Key: fmt.Sprintf("S%d::k", i), Name: fmt.Sprintf("S%d", i), WSDL: xml}
			if _, err := n.Store().PublishLeased(e, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		// Best of several short trials: the store's 250 ms expiry sweep
		// is O(store) by design and must not land in the figure.
		const trials, pairs = 8, 300
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < trials; trial++ {
			start := time.Now()
			for i := 0; i < pairs; i++ {
				key, err := n.PublishLeased(registry.Entry{Name: "own", WSDL: xml}, time.Hour)
				if err != nil {
					t.Fatal(err)
				}
				if err := n.Remove(key); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start) / pairs; d < best {
				best = d
			}
		}
		return best
	}
	small, large := perPair(1_000), perPair(100_000)
	t.Logf("publish+remove: %v at 10^3 leases, %v at 10^5", small, large)
	if large > 3*small {
		t.Fatalf("write cost grew %v -> %v (>3x) from 10^3 to 10^5 stored leases", small, large)
	}
}
