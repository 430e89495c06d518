package kts

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// explicitCluster is newCluster with chosen ring IDs and no maintenance
// started, so routing state stays what AssembleRing installed until the
// test changes it.
func explicitCluster(t *testing.T, seed int64, ids []core.ID, cfg Config) *cluster {
	k := simnet.New(seed)
	net := simwire.New(k, simwire.Config{
		LatencyMS:      stats.Normal{Mean: 5, Variance: 0, Min: 5},
		BandwidthKbps:  stats.Normal{Mean: 1e6, Variance: 0, Min: 1e6},
		DefaultTimeout: 250 * time.Millisecond,
	})
	c := &cluster{t: t, k: k, net: net, set: hashing.NewSet(5)}
	for _, id := range ids {
		c.addNode(id, cfg)
	}
	chord.AssembleRing(c.nodes)
	return c
}

// addNode creates an unjoined node with its KTS service.
func (c *cluster) addNode(id core.ID, cfg Config) (*chord.Node, *Service) {
	ep := c.net.NewEndpoint(fmt.Sprintf("opt%d", len(c.nodes)))
	nd := chord.New(c.net.Env(), ep, id, chord.Config{
		StabilizeEvery:  200 * time.Millisecond,
		FixFingersEvery: 200 * time.Millisecond,
		CheckPredEvery:  200 * time.Millisecond,
		RPCTimeout:      250 * time.Millisecond,
	})
	svc := New(nd, c.set, "ums", cfg)
	c.nodes = append(c.nodes, nd)
	c.services = append(c.services, svc)
	return nd, svc
}

// htsKeyIn returns a key whose hts position lies in (lo, hi].
func (c *cluster) htsKeyIn(lo, hi core.ID) core.Key {
	c.t.Helper()
	for i := 0; i < 100000; i++ {
		k := core.Key(fmt.Sprintf("opt-key-%d", i))
		if c.set.HTS.ID(k).Between(lo, hi) {
			return k
		}
	}
	c.t.Fatalf("no key hashes into (%s, %s]", lo, hi)
	return ""
}

const q = core.ID(1) << 60

// TestOptimisticGenTSJoinGapRetriesExact: X joins between B and C after
// assembly and takes hts(k)'s counter over from C by the direct handover.
// A's successor list still says C follows B, so A's optimistic guess is
// C, which refuses with ErrNotResponsible; the exact retry of GenTS and
// of GenTSBatch reaches X, and the counter continues where C left it.
func TestOptimisticGenTSJoinGapRetriesExact(t *testing.T) {
	cfg := Config{Mode: ModeDirect, GraceDelay: 10 * time.Millisecond}
	c := explicitCluster(t, 41, []core.ID{1 * q, 5 * q, 9 * q, 13 * q}, cfg)
	a, b, cNode := c.nodes[0], c.nodes[1], c.nodes[2]
	sa := c.services[0]
	x, _ := c.addNode(7*q, cfg)
	k := c.htsKeyIn(b.Self().ID, x.Self().ID)
	c.do(func() {
		for want := uint64(1); want <= 2; want++ {
			if ts, err := sa.GenTS(context.Background(), k); err != nil || ts != core.TS(want) {
				t.Fatalf("gen_ts before the join = %v, %v; want ts(%d)", ts, err, want)
			}
		}
		if err := x.Join(a.Self().Addr); err != nil {
			t.Fatalf("join: %v", err)
		}
	})
	c.settle(time.Second)
	if cNode.Predecessor().ID != x.Self().ID {
		t.Fatalf("C's predecessor is %s, want X", cNode.Predecessor().ID)
	}

	c.do(func() {
		guess, _, err := a.Lookup(dht.Optimistic(context.Background()), c.set.HTS.ID(k))
		if err != nil || guess.ID != cNode.Self().ID {
			t.Fatalf("optimistic guess = %s, %v; want the stale C", guess.ID, err)
		}
		_, err = a.Endpoint().Invoke(context.Background(), guess.Addr, MethodGenTS, GenTSReq{Key: k}, network.Call{})
		if !errors.Is(err, core.ErrNotResponsible) {
			t.Fatalf("gen_ts at the stale guess: %v, want ErrNotResponsible", err)
		}
		if ts, err := sa.GenTS(context.Background(), k); err != nil || ts != core.TS(3) {
			t.Errorf("gen_ts after the join = %v, %v; want ts(3)", ts, err)
		}
		tss, errs := sa.GenTSBatch(context.Background(), []core.Key{k})
		if errs[0] != nil || tss[0] != core.TS(4) {
			t.Errorf("batched gen_ts after the join = %v, %v; want ts(4)", tss[0], errs[0])
		}
	})
}

// TestOptimisticGenTSCrashedSuccessorRetriesExact: C, the responsible
// for hts(k), crashed; its neighbours B and D run maintenance and route
// around it, but A does not, so A's successor list still names C. The
// optimistic gen_ts goes to the dead C and times out; the exact retry
// asks B and reaches D. The batched path recovers the same way.
func TestOptimisticGenTSCrashedSuccessorRetriesExact(t *testing.T) {
	cfg := Config{Mode: ModeDirect, GraceDelay: 10 * time.Millisecond, RPCTimeout: time.Second}
	c := explicitCluster(t, 42, []core.ID{1 * q, 5 * q, 9 * q, 13 * q}, cfg)
	a, b, cNode, d := c.nodes[0], c.nodes[1], c.nodes[2], c.nodes[3]
	sa := c.services[0]
	k := c.htsKeyIn(b.Self().ID, cNode.Self().ID)
	cNode.Crash()
	c.net.Kill(cNode.Self().Addr)
	b.Start()
	d.Start()
	c.settle(2 * time.Second)
	if b.Successor().ID != d.Self().ID || !d.OwnsID(c.set.HTS.ID(k)) {
		t.Fatalf("B and D did not route around C: B.succ=%s, D owns hts(k)=%v", b.Successor().ID, d.OwnsID(c.set.HTS.ID(k)))
	}
	if a.SuccessorList()[1].ID != cNode.Self().ID {
		t.Fatal("A no longer lists C; the stale entry is gone")
	}
	c.do(func() {
		start := c.k.Now()
		if _, err := sa.GenTS(context.Background(), k); err != nil {
			t.Fatalf("gen_ts: %v", err)
		}
		if took := c.k.Now() - start; took < cfg.RPCTimeout {
			t.Errorf("gen_ts took %v; the optimistic call to dead C should have waited out its %v timeout", took, cfg.RPCTimeout)
		}
		if _, errs := sa.LastTSBatch(context.Background(), []core.Key{k}); errs[0] != nil {
			t.Errorf("batched last_ts: %v", errs[0])
		}
	})
}

// TestSelfOwnedGenTSIsFree: when the issuer is the responsible, the
// request is served in process — no message on the meter, no virtual
// time — through the same Invoke path as a remote one.
func TestSelfOwnedGenTSIsFree(t *testing.T) {
	cfg := Config{Mode: ModeDirect, GraceDelay: -1}
	c := explicitCluster(t, 43, []core.ID{1 * q, 5 * q, 9 * q, 13 * q}, cfg)
	a := c.nodes[0]
	k := c.htsKeyIn(c.nodes[3].Self().ID, a.Self().ID) // hts(k) ∈ (D, A]: A owns it
	c.do(func() {
		// The first gen_ts initializes the counter by reading the
		// replicas; the second is a pure self-served grant.
		if _, err := c.services[0].GenTS(context.Background(), k); err != nil {
			t.Fatalf("first gen_ts: %v", err)
		}
		m := &network.Meter{}
		start := c.k.Now()
		ts, err := c.services[0].GenTS(network.WithMeter(context.Background(), m), k)
		if err != nil || ts != core.TS(2) {
			t.Fatalf("gen_ts = %v, %v; want ts(2)", ts, err)
		}
		if m.Msgs != 0 || c.k.Now() != start {
			t.Errorf("self-served gen_ts cost %d msgs and %v; want 0 and 0", m.Msgs, c.k.Now()-start)
		}
	})
}
