package cluster

import (
	"context"

	"harness2/internal/registry"
	"harness2/internal/soap"
)

// NewServer exposes a cluster node over SOAP: the full public registry
// surface (publish, get, find…, served by the node's routing layer so
// any peer can answer for any key), the peer-RPC operations, and a
// redirect-mode renew — a renewal sent to a non-owner answers with a
// Redirect fault naming the current owner, which registry.Remote
// follows, so LeaseKeeper renewals keep landing on the owning shard as
// the ring rebalances under them.
func NewServer(n *Node) *registry.Server {
	s := registry.NewBackendServer(n)
	for _, op := range []string{
		opPublish, opReplicate, opGet, opFindName, opFindQuery,
		opRenew, opRemove, opRemoveReplica, opGossip, opMembers,
	} {
		op := op
		s.HandleExtra(op, func(call *soap.Call) ([]soap.Param, error) {
			return n.HandlePeer(context.Background(), op, call.Params)
		})
	}
	// The public renew is the peer renew: local on the owner, a Redirect
	// naming the owner anywhere else.
	s.HandleExtra("renew", func(call *soap.Call) ([]soap.Param, error) {
		return n.HandlePeer(context.Background(), opRenew, call.Params)
	})
	return s
}
