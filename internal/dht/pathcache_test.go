package dht

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// scriptedRing is an inner ring whose lookups answer from a fixed
// function and are counted, so a test sees exactly when CachedRing
// falls through to it.
type scriptedRing struct {
	self    NodeRef
	ep      network.Endpoint
	env     network.Env
	owner   func(core.ID) NodeRef
	lookups int
}

func (r *scriptedRing) Self() NodeRef              { return r.self }
func (r *scriptedRing) Endpoint() network.Endpoint { return r.ep }
func (r *scriptedRing) Env() network.Env           { return r.env }
func (r *scriptedRing) Alive() bool                { return true }
func (r *scriptedRing) OwnsID(id core.ID) bool     { return r.owner(id) == r.self }
func (r *scriptedRing) Lookup(_ context.Context, id core.ID) (NodeRef, int, error) {
	r.lookups++
	return r.owner(id), 3, nil
}

// TestCachedRingOptimisticAndExact: a covering arc answers an
// optimistic lookup with no message, while an exact lookup asks the
// cached owner first — one round trip for a remote owner, an
// in-process probe for this peer — and falls back to the inner ring
// when the owner refuses.
func TestCachedRingOptimisticAndExact(t *testing.T) {
	k := simnet.New(1)
	defer k.Stop()
	net := simwire.New(k, simwire.Config{
		LatencyMS:      stats.Normal{Mean: 5, Variance: 0, Min: 5},
		BandwidthKbps:  stats.Normal{Mean: 1e6, Variance: 0, Min: 1e6},
		DefaultTimeout: 200 * time.Millisecond,
	})
	selfRef := NodeRef{ID: 1000, Addr: "self"}
	ownerRef := NodeRef{ID: 5000, Addr: "owner"}
	owner := func(id core.ID) NodeRef {
		if id.Between(selfRef.ID, ownerRef.ID) {
			return ownerRef
		}
		return selfRef
	}
	remoteOwns := true
	inner := &scriptedRing{self: selfRef, ep: net.NewEndpoint("self"), env: net.Env(), owner: owner}
	RegisterStore(inner.ep, NewLocalStore(), inner.OwnsID)
	RegisterStore(net.NewEndpoint("owner"), NewLocalStore(), func(core.ID) bool { return remoteOwns })
	c := NewCachedRing(inner, PathCacheConfig{})

	lookup := func(ctx context.Context, id core.ID) (NodeRef, int, int) {
		t.Helper()
		m := &network.Meter{}
		ref, hops, err := c.Lookup(network.WithMeter(ctx, m), id)
		if err != nil {
			t.Fatalf("lookup %s: %v", id, err)
		}
		return ref, hops, m.Msgs
	}
	k.Go(func() {
		bg := context.Background()
		if ref, hops, _ := lookup(bg, 4000); ref != ownerRef || hops != 3 || inner.lookups != 1 {
			t.Errorf("miss = %v, %d hops, %d inner lookups; want the inner ring's answer", ref, hops, inner.lookups)
		}
		if ref, hops, msgs := lookup(Optimistic(bg), 4500); ref != ownerRef || hops != 0 || msgs != 0 {
			t.Errorf("optimistic hit = %v, %d hops, %d msgs; want the cached owner, 0, 0", ref, hops, msgs)
		}
		if ref, hops, msgs := lookup(bg, 4500); ref != ownerRef || hops != 1 || msgs != 2 {
			t.Errorf("exact hit = %v, %d hops, %d msgs; want the cached owner, 1, 2", ref, hops, msgs)
		}
		// An arc ending at this peer is confirmed by an in-process probe.
		lookup(bg, 500)
		if ref, hops, msgs := lookup(bg, 600); ref != selfRef || hops != 0 || msgs != 0 {
			t.Errorf("exact self hit = %v, %d hops, %d msgs; want self, 0, 0", ref, hops, msgs)
		}
		if inner.lookups != 2 {
			t.Errorf("%d inner lookups after two misses and three hits, want 2", inner.lookups)
		}
		// The cached owner stops owning: an optimistic lookup still
		// trusts the arc (its target will refuse), an exact one evicts
		// it and falls back to the inner ring.
		remoteOwns = false
		if ref, _, msgs := lookup(Optimistic(bg), 4500); ref != ownerRef || msgs != 0 {
			t.Errorf("optimistic lookup of a stale arc = %v, %d msgs; want the cached owner unprobed", ref, msgs)
		}
		if _, _, msgs := lookup(bg, 4500); msgs != 2 || inner.lookups != 3 {
			t.Errorf("refused probe: %d msgs, %d inner lookups; want the probe's round trip, then the inner ring", msgs, inner.lookups)
		}
	})
	k.Run(time.Minute)
	if st := c.Stats(); st.Fallbacks != 1 || st.Hits != 4 || st.Misses != 2 {
		t.Errorf("stats = %+v; want 4 hits, 2 misses, 1 fallback", st)
	}
}
