package can

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/obs"
)

// Protocol method names.
const (
	methodRouteStep = "can.RouteStep"
	methodSplit     = "can.Split"
	methodTakeover  = "can.Takeover"
	methodUpdate    = "can.Update"
	methodGone      = "can.Gone"
	methodPing      = "can.Ping"
	methodState     = "can.State"
)

// RouteStepReq advances a greedy walk toward Target.
type RouteStepReq struct {
	Target  Point
	Exclude []core.ID
}

// RouteStepResp concludes (Done: the responder owns the point) or names
// the next hop.
type RouteStepResp struct {
	Done bool
	Next dht.NodeRef
}

// SplitReq is a joiner asking the owner of its point to split.
type SplitReq struct{ NewNode dht.NodeRef }

// SplitResp carries the joiner's new zone, the ceded state, and the
// neighborhood to introduce itself to.
type SplitResp struct {
	Zone      Zone
	Items     []dht.Item
	Services  map[string]network.Message
	Neighbors []NeighborInfo
}

// WireSize charges the bulk payload.
func (r SplitResp) WireSize() int { return bulkSize(r.Items) }

// NeighborInfo advertises a peer and its zones.
type NeighborInfo struct {
	Ref   dht.NodeRef
	Zones []Zone
}

// TakeoverReq hands a departing node's zones to the takeover neighbor.
type TakeoverReq struct {
	From      dht.NodeRef
	Zones     []Zone
	Items     []dht.Item
	Services  map[string]network.Message
	Neighbors []NeighborInfo
}

// WireSize charges the bulk payload.
func (r TakeoverReq) WireSize() int { return bulkSize(r.Items) }

// TakeoverResp acknowledges a takeover.
type TakeoverResp struct{}

// UpdateReq advertises the sender's current zones to a neighbor.
type UpdateReq struct{ Info NeighborInfo }

// UpdateResp returns the receiver's own info so both sides stay fresh.
type UpdateResp struct{ Info NeighborInfo }

// GoneReq tells neighbors a peer left and who covers its zones now.
type GoneReq struct {
	Departed  dht.NodeRef
	Successor NeighborInfo
}

// GoneResp acknowledges a Gone.
type GoneResp struct{}

// PingReq probes liveness.
type PingReq struct{}

// PingResp acknowledges a ping.
type PingResp struct{}

// StateReq asks for a node's zones and neighbors (tests, diagnostics).
type StateReq struct{}

// StateResp is the snapshot.
type StateResp struct {
	Info      NeighborInfo
	Neighbors []NeighborInfo
}

func bulkSize(items []dht.Item) int {
	n := network.DefaultWireSize
	for _, it := range items {
		n += 40 + len(it.Qual) + len(it.Val.Data)
	}
	return n
}

func init() {
	network.RegisterMessage(
		RouteStepReq{}, RouteStepResp{}, SplitReq{}, SplitResp{},
		TakeoverReq{}, TakeoverResp{}, UpdateReq{}, UpdateResp{},
		GoneReq{}, GoneResp{}, PingReq{}, PingResp{},
		StateReq{}, StateResp{}, NeighborInfo{}, Zone{}, Point{},
	)
}

func (n *Node) registerHandlers() {
	n.ep.Handle(methodRouteStep, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		r := req.(RouteStepReq)
		return n.routeStep(r.Target, toSet(r.Exclude)), nil
	})
	n.ep.Handle(methodPing, func(network.Addr, network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		return PingResp{}, nil
	})
	n.ep.Handle(methodState, func(network.Addr, network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		resp := StateResp{Info: NeighborInfo{Ref: n.self, Zones: append([]Zone(nil), n.zones...)}}
		for _, nb := range n.neighbors {
			resp.Neighbors = append(resp.Neighbors, NeighborInfo{Ref: nb.ref, Zones: append([]Zone(nil), nb.zones...)})
		}
		return resp, nil
	})
	n.ep.Handle(methodSplit, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		return n.handleSplit(req.(SplitReq))
	})
	n.ep.Handle(methodTakeover, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		n.handleTakeover(req.(TakeoverReq))
		return TakeoverResp{}, nil
	})
	n.ep.Handle(methodUpdate, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		n.applyNeighborInfo(req.(UpdateReq).Info)
		n.mu.Lock()
		defer n.mu.Unlock()
		return UpdateResp{Info: NeighborInfo{Ref: n.self, Zones: append([]Zone(nil), n.zones...)}}, nil
	})
	n.ep.Handle(methodGone, func(_ network.Addr, req network.Message) (network.Message, error) {
		if !n.Alive() {
			return nil, core.ErrStopped
		}
		r := req.(GoneReq)
		n.mu.Lock()
		delete(n.neighbors, r.Departed.ID)
		n.mu.Unlock()
		n.applyNeighborInfo(r.Successor)
		return GoneResp{}, nil
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

// routeStep is one greedy hop: done if a local zone contains the target,
// otherwise the non-excluded neighbor closest to the target.
func (n *Node) routeStep(target Point, exclude map[core.ID]bool) RouteStepResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, z := range n.zones {
		if z.Contains(target) {
			return RouteStepResp{Done: true, Next: n.self}
		}
	}
	var best *neighbor
	bestDist := n.distanceToLocked(target)
	for _, nb := range n.neighbors {
		if exclude[nb.ref.ID] {
			continue
		}
		d := math_Inf
		for _, z := range nb.zones {
			if dz := z.DistanceTo(target); dz < d {
				d = dz
			}
		}
		if d < bestDist || (best == nil && d < math_Inf) {
			// Strictly decreasing distance prevents loops; if no
			// neighbor improves, fall back to the closest one anyway
			// (possible right after zone churn).
			if d < bestDist {
				best, bestDist = nb, d
			} else if best == nil {
				best, bestDist = nb, d
			}
		}
	}
	if best == nil {
		// No local zone contains the target and every neighbor is
		// excluded (or there are none): routing has no way forward.
		// Answering Done here would hand the caller a non-owner; a zero
		// Next tells it to give up on this path instead.
		return RouteStepResp{}
	}
	return RouteStepResp{Next: best.ref}
}

const math_Inf = 1e18

// applyNeighborInfo installs or refreshes a neighbor entry, dropping it
// if its zones no longer abut ours.
func (n *Node) applyNeighborInfo(info NeighborInfo) {
	if info.Ref.ID == n.self.ID || info.Ref.IsZero() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.abutsLocked(info.Zones) {
		n.neighbors[info.Ref.ID] = &neighbor{ref: info.Ref, zones: info.Zones}
	} else {
		delete(n.neighbors, info.Ref.ID)
	}
}

// abutsLocked reports whether any of the zones touches any owned zone.
func (n *Node) abutsLocked(zones []Zone) bool {
	for _, mine := range n.zones {
		for _, z := range zones {
			if mine.Abuts(z) || mine == z {
				return true
			}
		}
	}
	return false
}

// handleSplit serves a joiner: split the zone containing its point, cede
// the half holding the point with all state in it, and introduce the
// neighborhood.
func (n *Node) handleSplit(req SplitReq) (SplitResp, error) {
	joinerPoint := PointOf(req.NewNode.ID)
	n.mu.Lock()
	zi := -1
	for i, z := range n.zones {
		if z.Contains(joinerPoint) {
			zi = i
			break
		}
	}
	if zi < 0 {
		n.mu.Unlock()
		return SplitResp{}, fmt.Errorf("can: split: %v not in my zones: %w", joinerPoint, core.ErrNotResponsible)
	}
	lower, upper := n.zones[zi].Split()
	joinerZone, keptZone := lower, upper
	if upper.Contains(joinerPoint) {
		joinerZone, keptZone = upper, lower
	}
	n.zones[zi] = keptZone
	// Neighborhood snapshot: our neighbors plus ourselves.
	infos := []NeighborInfo{{Ref: n.self, Zones: append([]Zone(nil), n.zones...)}}
	for _, nb := range n.neighbors {
		infos = append(infos, NeighborInfo{Ref: nb.ref, Zones: append([]Zone(nil), nb.zones...)})
	}
	n.mu.Unlock()

	ceded := func(id core.ID) bool { return joinerZone.Contains(PointOf(id)) }
	var items []dht.Item
	if !n.cfg.NoDataHandoff {
		items = n.store.CollectIf(ceded, true)
	}
	services := n.collectServices(ceded)
	// Refresh our own neighbors with the shrunk zone.
	n.broadcastUpdate()
	return SplitResp{Zone: joinerZone, Items: items, Services: services, Neighbors: infos}, nil
}

// handleTakeover absorbs a departing neighbor's zones and state.
func (n *Node) handleTakeover(req TakeoverReq) {
	n.mu.Lock()
	n.zones = append(n.zones, req.Zones...)
	delete(n.neighbors, req.From.ID)
	n.mu.Unlock()
	n.store.Absorb(req.Items)
	n.acceptServices(req.Services)
	for _, info := range req.Neighbors {
		n.applyNeighborInfo(info)
	}
	n.broadcastUpdate()
}

// broadcastUpdate advertises the current zones to every neighbor
// asynchronously and refreshes our view from their replies.
func (n *Node) broadcastUpdate() {
	n.mu.Lock()
	info := NeighborInfo{Ref: n.self, Zones: append([]Zone(nil), n.zones...)}
	targets := make([]dht.NodeRef, 0, len(n.neighbors))
	for _, nb := range n.neighbors {
		targets = append(targets, nb.ref)
	}
	n.mu.Unlock()
	for _, ref := range targets {
		ref := ref
		n.env.Go(func() {
			if raw, err := n.call(context.Background(), ref.Addr, methodUpdate, UpdateReq{Info: info}); err == nil {
				n.applyNeighborInfo(raw.(UpdateResp).Info)
			}
		})
	}
}

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

// Lookup implements dht.Ring by iterative greedy routing. The context
// bounds the walk and carries the meter the hops are charged to; the
// walk's time is charged to the operation's lookup phase. CAN has no
// optimistic mode: every answer comes from the owning zone's own step.
func (n *Node) Lookup(ctx context.Context, target core.ID) (dht.NodeRef, int, error) {
	if !n.Alive() {
		return dht.NodeRef{}, 0, fmt.Errorf("can: lookup from dead node: %w", core.ErrStopped)
	}
	start := n.env.Now()
	defer func() { obs.PhasesFrom(ctx).Add(obs.PhaseLookup, n.env.Now()-start) }()
	p := PointOf(target)
	exclude := map[core.ID]bool{}
	hops := 0
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := network.CtxError(ctx); err != nil {
			return dht.NodeRef{}, hops, fmt.Errorf("can: lookup %v: %w", p, err)
		}
		ref, h, err := n.lookupOnce(ctx, p, exclude)
		hops += h
		if err == nil {
			return ref, hops, nil
		}
		lastErr = err
		if !errors.Is(err, core.ErrTimeout) && !errors.Is(err, core.ErrUnreachable) {
			break
		}
	}
	return dht.NodeRef{}, hops, fmt.Errorf("can: lookup %v: %w", p, lastErr)
}

func (n *Node) lookupOnce(ctx context.Context, target Point, exclude map[core.ID]bool) (dht.NodeRef, int, error) {
	cur := n.self
	hops := 0
	visited := map[core.ID]bool{}
	for step := 0; step < n.cfg.MaxRouteSteps; step++ {
		var resp RouteStepResp
		if cur.ID == n.self.ID {
			resp = n.routeStep(target, exclude)
		} else {
			if visited[cur.ID] {
				// cur is live but its view loops: it forwarded this walk
				// away once already, so it does not own the target.
				// Exclude it so the retry routes around the confusion
				// (stale zone attributions after compound churn).
				exclude[cur.ID] = true
				return dht.NodeRef{}, hops, fmt.Errorf("can: routing loop at %s: %w", cur.ID, core.ErrUnreachable)
			}
			visited[cur.ID] = true
			raw, err := n.call(ctx, cur.Addr, methodRouteStep,
				RouteStepReq{Target: target, Exclude: setToList(exclude)})
			hops++
			if err != nil {
				if errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrStopped) ||
					errors.Is(err, core.ErrUnreachable) {
					exclude[cur.ID] = true
					return dht.NodeRef{}, hops, fmt.Errorf("can: peer %s dead during lookup: %w", cur.ID, core.ErrTimeout)
				}
				return dht.NodeRef{}, hops, err
			}
			resp = raw.(RouteStepResp)
		}
		if resp.Done {
			return resp.Next, hops, nil
		}
		if resp.Next.IsZero() || resp.Next.ID == cur.ID {
			// cur answered not-Done with nowhere to forward: it is a
			// proven non-owner at a dead end, so routing around it on
			// the retry is safe.
			if cur.ID != n.self.ID {
				exclude[cur.ID] = true
			}
			return dht.NodeRef{}, hops, fmt.Errorf("can: routing stuck at %s: %w", cur.ID, core.ErrUnreachable)
		}
		cur = resp.Next
	}
	return dht.NodeRef{}, hops, fmt.Errorf("can: routing exceeded %d steps: %w", n.cfg.MaxRouteSteps, core.ErrUnreachable)
}

func setToList(m map[core.ID]bool) []core.ID {
	if len(m) == 0 {
		return nil
	}
	out := make([]core.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
