package chord

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
)

// Protocol method names.
const (
	methodState    = "chord.State"
	methodFindStep = "chord.FindStep"
	methodNotify   = "chord.Notify"
	methodSuccCand = "chord.SuccCandidate"
	methodPing     = "chord.Ping"
	methodTransfer = "chord.Transfer"
	methodAbsorb   = "chord.Absorb"
	methodPredGone = "chord.PredLeaving"
)

// StateReq asks a node for its view of the ring around itself.
type StateReq struct{}

// StateResp is the node's neighborhood snapshot.
type StateResp struct {
	Self  dht.NodeRef
	Pred  dht.NodeRef
	Succs []dht.NodeRef
}

// FindStepReq advances an iterative lookup by one step.
type FindStepReq struct {
	Target core.ID
	// Exclude lists peers the caller observed dead during this lookup.
	Exclude []core.ID
	// Optimistic lets the step conclude from the whole successor list
	// and the predecessor pointer (see dht.Optimistic).
	Optimistic bool
}

// FindStepResp either concludes the lookup (Done: Next is the
// responsible) or names the next node to ask.
type FindStepResp struct {
	Done bool
	Next dht.NodeRef
}

// NotifyReq tells a node about a possible (closer) predecessor.
type NotifyReq struct{ Candidate dht.NodeRef }

// NotifyResp acknowledges a Notify.
type NotifyResp struct{}

// SuccCandidateReq tells a node about a possible (closer) successor;
// joiners send it to their predecessor-to-be so the ring converges
// without waiting a stabilization round.
type SuccCandidateReq struct{ Candidate dht.NodeRef }

// SuccCandidateResp acknowledges a SuccCandidate.
type SuccCandidateResp struct{}

// PingReq probes liveness.
type PingReq struct{}

// PingResp acknowledges a ping.
type PingResp struct{}

// TransferReq is sent by a joiner to its successor-to-be: "I am your new
// predecessor; hand over my arc".
type TransferReq struct{ NewNode dht.NodeRef }

// TransferResp carries the ceded replicas and service state, plus ring
// bootstrap information for the joiner.
type TransferResp struct {
	Items    []dht.Item
	Services map[string]network.Message
	// Pred is the joiner's predecessor (the responder's previous one).
	Pred dht.NodeRef
	// Succs seeds the joiner's successor list.
	Succs []dht.NodeRef
	// Fingers seeds the joiner's finger table; entries are validated on
	// use, so a stale copy only costs extra hops, never correctness.
	Fingers []dht.NodeRef
}

// WireSize charges the bulk payload against the bandwidth model.
func (r TransferResp) WireSize() int { return bulkSize(r.Items) }

// AbsorbReq pushes replicas and service state to the node that is (or is
// becoming) responsible for them. It serves both graceful leaves and the
// opportunistic push when a node discovers a closer predecessor.
type AbsorbReq struct {
	From     dht.NodeRef
	Items    []dht.Item
	Services map[string]network.Message
	// NewPred, when set with Departing, is the leaver's predecessor: the
	// receiver adopts it if the leaver was its predecessor.
	NewPred dht.NodeRef
	// Departing marks From as leaving the ring.
	Departing bool
}

// WireSize charges the bulk payload against the bandwidth model.
func (r AbsorbReq) WireSize() int { return bulkSize(r.Items) }

// AbsorbResp acknowledges an Absorb.
type AbsorbResp struct{}

// PredLeavingReq tells a node its successor is departing and names the
// replacements (the leaver's successor list).
type PredLeavingReq struct {
	Departing    dht.NodeRef
	Replacements []dht.NodeRef
}

// PredLeavingResp acknowledges a PredLeaving.
type PredLeavingResp struct{}

func bulkSize(items []dht.Item) int {
	n := network.DefaultWireSize
	for _, it := range items {
		n += 40 + len(it.Qual) + len(it.Val.Data)
	}
	return n
}

func init() {
	network.RegisterMessage(
		StateReq{}, StateResp{},
		FindStepReq{}, FindStepResp{},
		NotifyReq{}, NotifyResp{},
		SuccCandidateReq{}, SuccCandidateResp{},
		PingReq{}, PingResp{},
		TransferReq{}, TransferResp{},
		AbsorbReq{}, AbsorbResp{},
		PredLeavingReq{}, PredLeavingResp{},
		map[string]network.Message{},
	)
}

// registerHandlers wires the protocol onto the node's endpoint.
func (n *Node) registerHandlers() {
	n.ep.Handle(methodState, func(network.Addr, network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		pred, succs := n.snapshot()
		return StateResp{Self: n.self, Pred: pred, Succs: succs}, nil
	})

	n.ep.Handle(methodFindStep, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		r := req.(FindStepReq)
		return n.findStep(r.Target, toSet(r.Exclude), r.Optimistic), nil
	})

	n.ep.Handle(methodPing, func(network.Addr, network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		return PingResp{}, nil
	})

	n.ep.Handle(methodNotify, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		n.notify(req.(NotifyReq).Candidate)
		return NotifyResp{}, nil
	})

	n.ep.Handle(methodSuccCand, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		cand := req.(SuccCandidateReq).Candidate
		n.mu.Lock()
		if cand.ID.InOpenInterval(n.self.ID, n.succs[0].ID) {
			n.setSuccessorsLocked(append([]dht.NodeRef{cand}, n.succs...))
		}
		n.mu.Unlock()
		return SuccCandidateResp{}, nil
	})

	n.ep.Handle(methodTransfer, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		return n.handleTransfer(req.(TransferReq)), nil
	})

	n.ep.Handle(methodAbsorb, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		n.handleAbsorb(req.(AbsorbReq))
		return AbsorbResp{}, nil
	})

	n.ep.Handle(methodPredGone, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		r := req.(PredLeavingReq)
		n.mu.Lock()
		// Splice the departing successor out, falling back to its own
		// successor list.
		merged := make([]dht.NodeRef, 0, len(n.succs)+len(r.Replacements))
		for _, s := range n.succs {
			if s.ID == r.Departing.ID {
				merged = append(merged, r.Replacements...)
			} else {
				merged = append(merged, s)
			}
		}
		n.setSuccessorsLocked(merged)
		n.mu.Unlock()
		return PredLeavingResp{}, nil
	})
}

func toSet(ids []core.ID) map[core.ID]bool {
	if len(ids) == 0 {
		return nil
	}
	m := make(map[core.ID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// findStep implements one iterative lookup step (also used locally for
// step zero, costing no message). An exact step concludes only from
// the first live successor; an optimistic one also from the rest of
// the successor list and from (pred, self].
func (n *Node) findStep(target core.ID, exclude map[core.ID]bool, optimistic bool) FindStepResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	if optimistic {
		if owner, ok := n.listOwnerLocked(target, exclude); ok {
			return FindStepResp{Done: true, Next: owner}
		}
	}
	// First successor the caller still believes alive.
	succ := n.self
	for _, s := range n.succs {
		if !exclude[s.ID] {
			succ = s
			break
		}
	}
	if target.Between(n.self.ID, succ.ID) {
		return FindStepResp{Done: true, Next: succ}
	}
	next := n.closestPrecedingLocked(target, exclude)
	if next.ID == n.self.ID {
		// Nothing better than ourselves: the successor is our best
		// answer even though the interval check failed (converging ring).
		return FindStepResp{Done: true, Next: succ}
	}
	return FindStepResp{Next: next}
}

// listOwnerLocked guesses target's owner from local state alone: self
// when target ∈ (pred, self], else the first live succ[i] with target ∈
// (succ[i-1], succ[i]], where succ[-1] is self and dead entries widen
// the next live one's arc. The scan stops where the list wraps around
// the ring. The guess is unverified: a peer that joined inside a listed
// arc is invisible here until stabilization brings it in.
func (n *Node) listOwnerLocked(target core.ID, exclude map[core.ID]bool) (dht.NodeRef, bool) {
	if !n.pred.IsZero() && target.Between(n.pred.ID, n.self.ID) {
		return n.self, true
	}
	prev := n.self.ID
	for _, s := range n.succs {
		if !s.ID.InOpenInterval(prev, n.self.ID) {
			break // wrapped around the ring
		}
		if exclude[s.ID] {
			continue
		}
		if target.Between(prev, s.ID) {
			return s, true
		}
		prev = s.ID
	}
	return dht.NodeRef{}, false
}

// closestPrecedingLocked scans fingers (highest first) and the successor
// list for the closest peer strictly preceding target.
func (n *Node) closestPrecedingLocked(target core.ID, exclude map[core.ID]bool) dht.NodeRef {
	best := n.self
	consider := func(r dht.NodeRef) {
		if r.IsZero() || exclude[r.ID] || r.ID == n.self.ID {
			return
		}
		if !r.ID.InOpenInterval(n.self.ID, target) {
			return
		}
		// Closest = the one whose ID is farthest along toward target,
		// i.e. best so far precedes it.
		if best.ID == n.self.ID || r.ID.InOpenInterval(best.ID, target) {
			best = r
		}
	}
	for i := M - 1; i >= 0; i-- {
		consider(n.fingers[i])
	}
	for _, s := range n.succs {
		consider(s)
	}
	return best
}

// notify handles "candidate might be your predecessor". When the
// predecessor moves closer, this node has ceded the arc
// (oldPred, candidate] — it pushes any state it still holds for that arc
// to the new responsible (the RLA behaviour of §4.3, and the direct
// counter handoff when the transfer path was missed).
func (n *Node) notify(candidate dht.NodeRef) {
	n.mu.Lock()
	if candidate.ID == n.self.ID {
		n.mu.Unlock()
		return
	}
	adopt := n.pred.IsZero() || candidate.ID.InOpenInterval(n.pred.ID, n.self.ID)
	if !adopt {
		n.mu.Unlock()
		return
	}
	oldPred := n.pred
	n.pred = candidate
	n.mu.Unlock()

	ceded := func(id core.ID) bool {
		if oldPred.IsZero() {
			return !id.Between(candidate.ID, n.self.ID)
		}
		return id.Between(oldPred.ID, candidate.ID)
	}
	n.pushState(candidate, ceded, false, dht.NodeRef{})
}

// handleTransfer serves a joiner pulling its arc: adopt it as
// predecessor, cede replicas and service state, and seed its tables.
func (n *Node) handleTransfer(req TransferReq) TransferResp {
	n.mu.Lock()
	oldPred := n.pred
	joiner := req.NewNode
	// Adopt the joiner as predecessor if it is closer (or we had none).
	if n.pred.IsZero() || joiner.ID.InOpenInterval(n.pred.ID, n.self.ID) {
		n.pred = joiner
	}
	// Snapshot the list for the joiner before considering the joiner
	// itself as a successor candidate (a node must not be seeded with
	// itself as its own backup successor).
	succs := make([]dht.NodeRef, len(n.succs))
	copy(succs, n.succs)
	// A joiner is also a successor candidate: essential when this node
	// still believes it is its own successor (ring bootstrap).
	if n.succs[0].ID == n.self.ID || joiner.ID.InOpenInterval(n.self.ID, n.succs[0].ID) {
		n.setSuccessorsLocked(append([]dht.NodeRef{joiner}, n.succs...))
	}
	fingers := make([]dht.NodeRef, M)
	copy(fingers, n.fingers[:])
	n.mu.Unlock()

	ceded := func(id core.ID) bool {
		if oldPred.IsZero() {
			return !id.Between(joiner.ID, n.self.ID)
		}
		return id.Between(oldPred.ID, joiner.ID)
	}
	var items []dht.Item
	if !n.cfg.NoDataHandoff {
		items = n.store.CollectIf(ceded, true)
	}
	services := n.collectServices(ceded)
	return TransferResp{
		Items:    items,
		Services: services,
		Pred:     oldPred,
		Succs:    append([]dht.NodeRef{n.self}, succs...),
		Fingers:  fingers,
	}
}

// handleAbsorb installs pushed state; on a departure it also repairs the
// predecessor pointer.
func (n *Node) handleAbsorb(req AbsorbReq) {
	n.store.Absorb(req.Items)
	n.acceptServices(req.Services)
	if req.Departing {
		n.mu.Lock()
		if !n.pred.IsZero() && n.pred.ID == req.From.ID {
			n.pred = req.NewPred
		}
		// Drop the leaver from the successor list if present.
		var keep []dht.NodeRef
		for _, s := range n.succs {
			if s.ID != req.From.ID {
				keep = append(keep, s)
			}
		}
		n.setSuccessorsLocked(keep)
		n.mu.Unlock()
	}
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

// pushState asynchronously sends replicas and service state for a ceded
// arc to its new responsible.
func (n *Node) pushState(to dht.NodeRef, ceded func(core.ID) bool, departing bool, newPred dht.NodeRef) {
	var items []dht.Item
	if !n.cfg.NoDataHandoff {
		items = n.store.CollectIf(ceded, true)
	}
	services := n.collectServices(ceded)
	if len(items) == 0 && len(services) == 0 && !departing {
		return
	}
	req := AbsorbReq{From: n.self, Items: items, Services: services, Departing: departing, NewPred: newPred}
	n.env.Go(func() {
		if _, err := n.call(context.Background(), to.Addr, methodAbsorb, req); err != nil {
			// The new responsible is unreachable; nothing to do — the
			// state is lost exactly as if this node had crashed, and the
			// indirect algorithm will recover counters.
			_ = fmt.Sprintf("absorb push to %s failed: %v", to.Addr, err)
		}
	})
}
