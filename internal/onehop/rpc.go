package onehop

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/obs"
)

// Protocol method names.
const (
	methodOwner = "onehop.Owner"
	methodTable = "onehop.Table"
	methodJoin  = "onehop.Join"
	methodEvent = "onehop.Event"
	methodBulk  = "onehop.Bulk"
	methodPing  = "onehop.Ping"
)

// OwnerReq probes a candidate owner: "do you own Target, and if not,
// who does your table say is closer?" Exclude lists peers the caller
// observed dead during this lookup; the receiver evicts them too, which
// is how death observations propagate ahead of the periodic detector.
type OwnerReq struct {
	Target  core.ID
	Exclude []core.ID
}

// OwnerResp answers a probe. When Owns is false, Better names the
// receiver's best candidate for Target (zero when it has none beyond
// the caller's exclusions).
type OwnerResp struct {
	Owns   bool
	Better dht.NodeRef
}

// TableReq asks for the receiver's full routing table.
type TableReq struct{}

// TableResp carries the table.
type TableResp struct {
	Table []dht.NodeRef
}

// WireSize charges the membership payload against the bandwidth model.
func (r TableResp) WireSize() int {
	return network.DefaultWireSize + len(r.Table)*16
}

// JoinReq is sent by a joiner to its successor-to-be: "I am your new
// predecessor; cede my arc and teach me the membership".
type JoinReq struct {
	NewNode dht.NodeRef
}

// JoinResp carries the ceded replicas and service state plus the
// receiver's routing table.
type JoinResp struct {
	Items    []dht.Item
	Services map[string]network.Message
	Table    []dht.NodeRef
}

// WireSize charges the bulk payload against the bandwidth model.
func (r JoinResp) WireSize() int {
	n := network.DefaultWireSize + len(r.Table)*16
	for _, it := range r.Items {
		n += len(it.Qual) + len(it.Val.Data)
	}
	return n
}

// EventReq propagates membership changes — the D1HT event broadcast.
type EventReq struct {
	From   dht.NodeRef
	Joins  []dht.NodeRef
	Leaves []core.ID
}

// EventResp acknowledges an event.
type EventResp struct{}

// BulkReq pushes replicas and service state to the member taking over
// (graceful leaves).
type BulkReq struct {
	From     dht.NodeRef
	Items    []dht.Item
	Services map[string]network.Message
}

// WireSize charges the bulk payload against the bandwidth model.
func (r BulkReq) WireSize() int {
	n := network.DefaultWireSize
	for _, it := range r.Items {
		n += len(it.Qual) + len(it.Val.Data)
	}
	return n
}

// BulkResp acknowledges a bulk push.
type BulkResp struct{}

// PingReq probes liveness.
type PingReq struct{}

// PingResp acknowledges a ping.
type PingResp struct{}

func init() {
	network.RegisterMessage(OwnerReq{}, OwnerResp{}, TableReq{}, TableResp{},
		JoinReq{}, JoinResp{}, EventReq{}, EventResp{},
		BulkReq{}, BulkResp{}, PingReq{}, PingResp{})
}

// call invokes a protocol RPC with the node's per-probe patience.
func (n *Node) call(ctx context.Context, to network.Addr, method string, req network.Message) (network.Message, error) {
	return n.ep.Invoke(ctx, to, method, req, network.Call{Timeout: n.cfg.RPCTimeout})
}

func (n *Node) registerHandlers() {
	n.ep.Handle(methodOwner, func(_ network.Addr, req network.Message) (network.Message, error) {
		r := req.(OwnerReq)
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		// Honor the caller's death observations before answering: they
		// probed those peers moments ago, our periodic detector may be
		// half a period behind.
		n.mu.Lock()
		for _, id := range r.Exclude {
			n.removeLocked(id)
		}
		n.mu.Unlock()
		if n.OwnsID(r.Target) {
			return OwnerResp{Owns: true}, nil
		}
		skip := map[core.ID]bool{n.self.ID: true}
		for _, id := range r.Exclude {
			skip[id] = true
		}
		n.mu.Lock()
		better, ok := n.successorOfLocked(r.Target, skip)
		n.mu.Unlock()
		if !ok {
			return OwnerResp{Owns: false}, nil
		}
		return OwnerResp{Owns: false, Better: better}, nil
	})

	n.ep.Handle(methodTable, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		return TableResp{Table: n.Table()}, nil
	})

	n.ep.Handle(methodJoin, func(_ network.Addr, req network.Message) (network.Message, error) {
		r := req.(JoinReq)
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		return n.handleJoin(r), nil
	})

	n.ep.Handle(methodEvent, func(_ network.Addr, req network.Message) (network.Message, error) {
		r := req.(EventReq)
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		n.metrics.eventsRecv.Inc()
		n.mu.Lock()
		for _, ref := range r.Joins {
			n.insertLocked(ref)
		}
		for _, id := range r.Leaves {
			n.removeLocked(id)
		}
		n.mu.Unlock()
		return EventResp{}, nil
	})

	n.ep.Handle(methodBulk, func(_ network.Addr, req network.Message) (network.Message, error) {
		r := req.(BulkReq)
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		n.store.Absorb(r.Items)
		n.acceptServices(r.Services)
		return BulkResp{}, nil
	})

	n.ep.Handle(methodPing, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		return PingResp{}, nil
	})
}

// Lookup implements dht.Ring. In steady state it costs exactly one
// remote probe: the table names the owner, the owner confirms. Under a
// stale table it degrades to a short forwarding chain — each probed
// non-owner answers with its own (fresher) candidate — and routes
// around dead peers by eviction, sharing the death observations with
// every subsequent probe. hops counts every remote probe made,
// including probes of peers that turned out dead or stale, so the
// lookup figure reports what the network actually carried. Under a
// dht.Optimistic context the table's owner is the answer, unprobed:
// zero messages, and the caller's target verifies ownership.
func (n *Node) Lookup(ctx context.Context, id core.ID) (dht.NodeRef, int, error) {
	if !n.Alive() {
		return dht.NodeRef{}, 0, core.ErrStopped
	}
	n.metrics.lookups.Inc()
	start := n.env.Now()
	defer func() { obs.PhasesFrom(ctx).Add(obs.PhaseLookup, n.env.Now()-start) }()
	if n.OwnsID(id) {
		n.metrics.hops.ObserveValue(0)
		return n.self, 0, nil
	}
	if dht.IsOptimistic(ctx) {
		n.mu.Lock()
		owner, ok := n.successorOfLocked(id, nil)
		n.mu.Unlock()
		if ok {
			n.metrics.hops.ObserveValue(0)
			return owner, 0, nil
		}
	}
	hops := 0
	// dead: probes that errored — evicted locally and shared on the
	// wire so receivers evict them too. skip: everything not worth
	// re-probing right now (self, the dead, and stale candidates that
	// answered "not mine" — alive, just not owners). A fresh death
	// observation clears the stale marks: a candidate that denied
	// ownership because its table still listed the dead node will own
	// once our Exclude makes it evict that node, so re-probing it is
	// productive, and each re-probe is paid for by a new death.
	dead := map[core.ID]bool{}
	skip := map[core.ID]bool{n.self.ID: true}
	resetStale := func() {
		skip = map[core.ID]bool{n.self.ID: true}
		for d := range dead {
			skip[d] = true
		}
	}
	nextCandidate := func() (dht.NodeRef, bool) {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.successorOfLocked(id, skip)
	}
	cand, ok := nextCandidate()
	if !ok {
		n.metrics.lookupFails.Inc()
		return dht.NodeRef{}, hops, fmt.Errorf("onehop: no candidate for %s: %w", id, core.ErrUnreachable)
	}
	for fwd := 0; fwd < n.cfg.MaxForward; fwd++ {
		if err := network.CtxError(ctx); err != nil {
			return dht.NodeRef{}, hops, err
		}
		raw, err := n.call(ctx, cand.Addr, methodOwner,
			OwnerReq{Target: id, Exclude: deadList(dead)})
		hops++
		if err != nil {
			// Dead (or stopped) candidate: evict, remember, take our
			// next successor for the target.
			dead[cand.ID] = true
			n.evict(cand.ID)
			resetStale()
			next, ok := nextCandidate()
			if !ok {
				break
			}
			cand = next
			continue
		}
		resp := raw.(OwnerResp)
		if resp.Owns {
			n.metrics.hops.ObserveValue(int64(hops))
			// A multi-probe resolution means our table was stale; adopt
			// the owner so the next lookup is one hop again.
			if hops > 1 {
				n.mu.Lock()
				n.insertLocked(cand)
				n.mu.Unlock()
			}
			return cand, hops, nil
		}
		// Stale table: the candidate no longer owns the arc. Follow its
		// fresher view; it learned of the node that took over.
		n.metrics.staleFallbacks.Inc()
		skip[cand.ID] = true
		if resp.Better.IsZero() || skip[resp.Better.ID] {
			next, ok := nextCandidate()
			if !ok {
				break
			}
			cand = next
			continue
		}
		n.mu.Lock()
		n.insertLocked(resp.Better)
		n.mu.Unlock()
		cand = resp.Better
	}
	n.metrics.lookupFails.Inc()
	return dht.NodeRef{}, hops, fmt.Errorf("onehop: lookup %s exhausted forwarding: %w", id, core.ErrUnreachable)
}

func deadList(set map[core.ID]bool) []core.ID {
	if len(set) == 0 {
		return nil
	}
	out := make([]core.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	// Deterministic wire order (map iteration is not).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// collectServices gathers handover payloads for the ceded range.
func (n *Node) collectServices(ceded func(core.ID) bool) map[string]network.Message {
	n.mu.Lock()
	hooks := make([]dht.Handover, len(n.handover))
	copy(hooks, n.handover)
	n.mu.Unlock()
	var out map[string]network.Message
	for _, h := range hooks {
		if msg := h.Collect(ceded); msg != nil {
			if out == nil {
				out = make(map[string]network.Message)
			}
			out[h.Name()] = msg
		}
	}
	return out
}

// acceptServices routes handover payloads to local services.
func (n *Node) acceptServices(payloads map[string]network.Message) {
	if len(payloads) == 0 {
		return
	}
	n.mu.Lock()
	hooks := make([]dht.Handover, len(n.handover))
	copy(hooks, n.handover)
	n.mu.Unlock()
	for _, h := range hooks {
		if msg, ok := payloads[h.Name()]; ok {
			h.Accept(msg)
		}
	}
}
