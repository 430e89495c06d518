package chord

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
)

// explicitRing builds an assembled ring with the given IDs and no
// maintenance running, so routing state is exactly what AssembleRing
// installed until the test changes it.
func explicitRing(tr *testRing, ids []core.ID) []*Node {
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		ep := tr.net.NewEndpoint(fmt.Sprintf("opt%d", i))
		nodes[i] = New(tr.net.Env(), ep, id, testCfg())
	}
	AssembleRing(nodes)
	return nodes
}

// keyIn returns a key whose position under h lies in (lo, hi].
func keyIn(t *testing.T, h hashing.Func, lo, hi core.ID) core.Key {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := core.Key(fmt.Sprintf("opt-key-%d", i))
		if h.ID(k).Between(lo, hi) {
			return k
		}
	}
	t.Fatalf("no key hashes into (%s, %s]", lo, hi)
	return ""
}

// TestOptimisticLookupFromSuccessorListIsFree: a target the issuer's
// successor list or predecessor pointer covers resolves with no hop and
// no message under dht.Optimistic, while the exact walk of the same
// target still pays at least one round trip to the target's
// predecessor.
//
// Ring 100 … 800 with successor lists of 6: node 100 lists 200 … 700
// and has predecessor 800.
func TestOptimisticLookupFromSuccessorListIsFree(t *testing.T) {
	tr := newTestRing(t, 31)
	nodes := explicitRing(tr, []core.ID{100, 200, 300, 400, 500, 600, 700, 800})
	a := nodes[0]
	cases := []struct {
		target core.ID
		owner  core.ID
	}{
		{550, 600}, // deep in the successor list
		{700, 700}, // the list's last entry, inclusive
		{50, 100},  // (pred, self]: the issuer itself
	}
	tr.do(func() {
		for _, c := range cases {
			m := &network.Meter{}
			ctx := dht.Optimistic(network.WithMeter(context.Background(), m))
			ref, hops, err := a.Lookup(ctx, c.target)
			if err != nil {
				t.Fatalf("optimistic lookup %s: %v", c.target, err)
			}
			if ref.ID != c.owner || hops != 0 || m.Msgs != 0 {
				t.Errorf("optimistic lookup %s = %s, %d hops, %d msgs; want %s, 0 hops, 0 msgs",
					c.target, ref.ID, hops, m.Msgs, c.owner)
			}
			m = &network.Meter{}
			ref, hops, err = a.Lookup(network.WithMeter(context.Background(), m), c.target)
			if err != nil {
				t.Fatalf("exact lookup %s: %v", c.target, err)
			}
			if ref.ID != c.owner || hops < 1 || m.Msgs != 2*hops {
				t.Errorf("exact lookup %s = %s, %d hops, %d msgs; want %s after at least one round trip",
					c.target, ref.ID, hops, m.Msgs, c.owner)
			}
		}
		// Past the list's reach the walk goes remote, and the remote
		// step concludes from its own successor list: one hop.
		ref, hops, err := a.Lookup(dht.Optimistic(context.Background()), 750)
		if err != nil || ref.ID != 800 || hops != 1 {
			t.Errorf("optimistic lookup 750 = %s, %d hops, %v; want 800 in 1 hop", ref.ID, hops, err)
		}
	})
}

// TestOptimisticLookupStopsAtWrapAround: on a ring smaller than the
// successor list, the list runs past the issuer; the scan must stop
// there instead of claiming arcs twice. Every position resolves to its
// true owner.
func TestOptimisticLookupStopsAtWrapAround(t *testing.T) {
	tr := newTestRing(t, 32)
	nodes := explicitRing(tr, []core.ID{1000, 2000, 3000})
	owner := func(id core.ID) core.ID {
		for _, n := range nodes {
			if n.OwnsID(id) {
				return n.Self().ID
			}
		}
		return 0
	}
	tr.do(func() {
		for _, issuer := range nodes {
			for _, id := range []core.ID{0, 999, 1000, 1001, 2000, 2500, 3000, 3001, ^core.ID(0)} {
				ref, hops, err := issuer.Lookup(dht.Optimistic(context.Background()), id)
				if err != nil || ref.ID != owner(id) || hops != 0 {
					t.Errorf("from %s: optimistic lookup %s = %s, %d hops, %v; want %s, 0 hops",
						issuer.Self().ID, id, ref.ID, hops, err, owner(id))
				}
			}
		}
	})
}

// TestOptimisticPutHJoinGapRetriesExact: X joins between B and C after
// the ring was assembled. Only B (its predecessor) lists it; A's list
// still says C follows B. A's optimistic guess for a position in
// (B, X] is therefore C, which refuses with ErrNotResponsible, and
// PutH's exact retry lands the replica on X.
func TestOptimisticPutHJoinGapRetriesExact(t *testing.T) {
	tr := newTestRing(t, 33)
	const q = core.ID(1) << 60
	nodes := explicitRing(tr, []core.ID{1 * q, 5 * q, 9 * q, 13 * q})
	a, b, c := nodes[0], nodes[1], nodes[2]
	x := New(tr.net.Env(), tr.net.NewEndpoint("optX"), 7*q, testCfg())
	tr.do(func() {
		if err := x.Join(a.Self().Addr); err != nil {
			t.Fatalf("join: %v", err)
		}
	})
	tr.settle(time.Second)
	if b.Successor().ID != x.Self().ID || c.Predecessor().ID != x.Self().ID {
		t.Fatalf("join did not splice X in: B.succ=%s C.pred=%s", b.Successor().ID, c.Predecessor().ID)
	}
	for _, s := range a.SuccessorList() {
		if s.ID == x.Self().ID {
			t.Fatal("A already lists X; the join gap is gone")
		}
	}

	h := hashing.NewSet(1).Hr[0]
	k := keyIn(t, h, b.Self().ID, x.Self().ID)
	rid := h.ID(k)
	cl := dht.NewClient(a, "ums")
	val := core.Value{Data: []byte("v"), TS: core.TS(1)}
	tr.do(func() {
		guess, _, err := a.Lookup(dht.Optimistic(context.Background()), rid)
		if err != nil || guess.ID != c.Self().ID {
			t.Fatalf("optimistic guess = %s, %v; want the stale C %s", guess.ID, err, c.Self().ID)
		}
		_, err = a.Endpoint().Invoke(context.Background(), guess.Addr, dht.MethodPut,
			dht.PutReq{RingID: rid, Qual: dht.Qualifier("ums", k, h.Name()), Val: val}, network.Call{})
		if !errors.Is(err, core.ErrNotResponsible) {
			t.Fatalf("put at the stale guess: %v, want ErrNotResponsible", err)
		}
		if err := cl.PutH(context.Background(), k, h, val, dht.PutOverwrite); err != nil {
			t.Fatalf("PutH: %v", err)
		}
	})
	if _, ok := x.Store().Get(rid, dht.Qualifier("ums", k, h.Name())); !ok {
		t.Error("the exact retry did not store the replica on X")
	}
	if _, ok := c.Store().Get(rid, dht.Qualifier("ums", k, h.Name())); ok {
		t.Error("C stored a replica for a position it does not own")
	}
}

// TestOptimisticPutHCrashedSuccessorRetriesExact: C crashed, and only
// its neighbours noticed (D cleared its predecessor, B stabilized past
// C); A's successor list still names C. A's optimistic guess for a
// position in (B, C] is the dead C, so the first put times out, and the
// exact retry — which asks B — reaches D, the new owner.
func TestOptimisticPutHCrashedSuccessorRetriesExact(t *testing.T) {
	tr := newTestRing(t, 34)
	const q = core.ID(1) << 60
	nodes := explicitRing(tr, []core.ID{1 * q, 5 * q, 9 * q, 13 * q})
	a, b, c, d := nodes[0], nodes[1], nodes[2], nodes[3]
	c.Crash()
	tr.net.Kill(c.Self().Addr)
	tr.do(func() {
		d.checkPredecessor()
		b.stabilize()
	})
	tr.settle(time.Second)
	if d.Predecessor().ID != b.Self().ID || b.Successor().ID != d.Self().ID {
		t.Fatalf("neighbours did not route around C: D.pred=%s B.succ=%s", d.Predecessor().ID, b.Successor().ID)
	}
	if a.SuccessorList()[1].ID != c.Self().ID {
		t.Fatal("A no longer lists C; the stale entry is gone")
	}

	h := hashing.NewSet(1).Hr[0]
	k := keyIn(t, h, b.Self().ID, c.Self().ID)
	rid := h.ID(k)
	cl := dht.NewClient(a, "ums")
	val := core.Value{Data: []byte("v"), TS: core.TS(1)}
	timeout := tr.net.Config().DefaultTimeout
	tr.do(func() {
		start := tr.k.Now()
		if err := cl.PutH(context.Background(), k, h, val, dht.PutOverwrite); err != nil {
			t.Fatalf("PutH: %v", err)
		}
		if took := tr.k.Now() - start; took < timeout {
			t.Errorf("PutH took %v; the optimistic call to dead C should have waited out its %v timeout", took, timeout)
		}
	})
	if _, ok := d.Store().Get(rid, dht.Qualifier("ums", k, h.Name())); !ok {
		t.Error("the exact retry did not store the replica on D")
	}
}
