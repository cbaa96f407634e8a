// Command hregistry runs a standalone HARNESS II lookup service: a
// UDDI-style registry exposed as a SOAP web service. Nodes publish their
// component WSDL here; any SOAP-aware client can discover them.
//
// Single-node usage:
//
//	hregistry -addr 127.0.0.1:8900
//
// Cluster usage (S31): N processes form one logical registry — a
// consistent-hash ring with lease-scoped replication and gossip
// membership. Every peer serves the full public SOAP surface; clients
// may bootstrap from any subset of peers.
//
//	hregistry -addr 127.0.0.1:8900 -id r1 \
//	    -peers r2=http://127.0.0.1:8901,r3=http://127.0.0.1:8902 \
//	    -replicas 2
//
// A late joiner names any live peer with -join:
//
//	hregistry -addr 127.0.0.1:8903 -id r4 -replicas 2 \
//	    -join http://127.0.0.1:8900
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"harness2/internal/profiling"
	"harness2/internal/registry"
	"harness2/internal/registry/cluster"
	"harness2/internal/soap"
	"harness2/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8900", "listen address")
	id := flag.String("id", "", "cluster node ID (default: the listen address)")
	peers := flag.String("peers", "", "static cluster peers as id=url,id=url")
	join := flag.String("join", "", "URL of a live peer to learn membership from")
	replicas := flag.Int("replicas", 2, "copies per entry in cluster mode (owner + successors)")
	gossipEvery := flag.Duration("gossip", 500*time.Millisecond, "gossip round interval in cluster mode")
	compress := flag.Bool("compress", true, "gzip SOAP responses for clients that send Accept-Encoding: gzip (S33); same-host HARNESS clients ask for identity instead")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	pprofMutex := flag.Int("pprof-mutex", 5, "mutex profile fraction when -pprof is set (0 = off)")
	pprofBlock := flag.Int("pprof-block", 10000, "block profile rate in ns when -pprof is set (0 = off)")
	flag.Parse()

	if *pprofAddr != "" {
		paddr, err := profiling.Serve(*pprofAddr, *pprofMutex, *pprofBlock)
		if err != nil {
			log.Fatalf("hregistry: -pprof: %v", err)
		}
		fmt.Printf("hregistry: pprof at http://%s/debug/pprof/ (mutex 1/%d, block %dns)\n",
			paddr, *pprofMutex, *pprofBlock)
	}

	reg := registry.New()
	for _, tm := range registry.WellKnownTModels() {
		if err := reg.PublishTModel(tm); err != nil {
			log.Fatalf("hregistry: %v", err)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("hregistry: %v", err)
	}
	selfURL := "http://" + ln.Addr().String()

	var handler http.Handler
	if *peers != "" || *join != "" {
		nodeID := *id
		if nodeID == "" {
			nodeID = ln.Addr().String()
		}
		seed, err := seedPeers(*peers, *join)
		if err != nil {
			log.Fatalf("hregistry: %v", err)
		}
		node := cluster.NewNode(cluster.Config{
			ID:       nodeID,
			Addr:     selfURL,
			Seed:     seed,
			Replicas: *replicas,
			Caller:   &cluster.HTTPCaller{},
			Store:    reg,
		})
		handler = cluster.NewServer(node)
		go func() {
			for range time.Tick(*gossipEvery) {
				node.Step(context.Background())
			}
		}()
		fmt.Printf("hregistry: cluster node %s, %d seed peers, R=%d\n",
			nodeID, len(seed), *replicas)
	} else {
		handler = registry.NewServer(reg)
	}

	fmt.Printf("hregistry: serving SOAP registry at %s/\n", selfURL)
	fmt.Printf("hregistry: metrics at %s/metrics\n", selfURL)
	mux := http.NewServeMux()
	// The observability plane (telemetry S27): find/publish latency, the
	// live-lease gauge, and — in cluster mode — the ring/membership
	// gauges and rebalance counters land in the process-default registry.
	mux.Handle("/metrics", telemetry.Handler(telemetry.Or(nil)))
	if *compress {
		// WAN-friendly SOAP: large find/publish response envelopes gzip
		// well; the floor inside the middleware keeps probes identity.
		handler = soap.Gzip(handler)
	}
	mux.Handle("/", handler)
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Fatal(srv.Serve(ln))
}

// seedPeers builds the initial membership from the -peers list and, when
// -join names a live peer, that peer's current member list.
func seedPeers(peersFlag, joinURL string) ([]cluster.PeerState, error) {
	var seed []cluster.PeerState
	if peersFlag != "" {
		for _, kv := range strings.Split(peersFlag, ",") {
			id, url, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok || id == "" || url == "" {
				return nil, fmt.Errorf("bad -peers element %q (want id=url)", kv)
			}
			seed = append(seed, cluster.PeerState{ID: id, Addr: url})
		}
	}
	if joinURL != "" {
		ids, addrs, err := memberList(joinURL)
		if err != nil {
			return nil, fmt.Errorf("joining via %s: %w", joinURL, err)
		}
		known := make(map[string]bool, len(seed))
		for _, p := range seed {
			known[p.ID] = true
		}
		for i := range ids {
			if !known[ids[i]] {
				seed = append(seed, cluster.PeerState{ID: ids[i], Addr: addrs[i]})
			}
		}
	}
	return seed, nil
}

// memberList asks a live peer for the cluster's current membership.
func memberList(url string) (ids, addrs []string, err error) {
	var cl soap.Client
	out, err := cl.CallRemote(context.Background(), url, &soap.Call{Method: cluster.OpMembers})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range out {
		ss, ok := p.Value.([]string)
		if !ok {
			continue
		}
		switch p.Name {
		case "ids":
			ids = ss
		case "addrs":
			addrs = ss
		}
	}
	if len(ids) != len(addrs) {
		return nil, nil, fmt.Errorf("malformed member list (%d ids, %d addrs)", len(ids), len(addrs))
	}
	return ids, addrs, nil
}
