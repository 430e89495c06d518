package onehop_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/dht/ringtest"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/onehop"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// factory plugs the one-hop ring into the cross-implementation
// conformance suite with the same test-brisk timers the suite's own
// sweep uses (internal/dht/ringtest). Running it here as well puts the
// package's own statements under its coverage gate.
func factory() ringtest.Factory {
	return ringtest.Factory{
		Name: "onehop",
		New: func(env network.Env, ep network.Endpoint, id core.ID) dht.RingNode {
			return onehop.New(env, ep, id, onehop.Config{
				PingEvery:  500 * time.Millisecond,
				RPCTimeout: 200 * time.Millisecond,
			})
		},
		Assemble: func(nodes []dht.RingNode) {
			concrete := make([]*onehop.Node, len(nodes))
			for i, n := range nodes {
				concrete[i] = n.(*onehop.Node)
			}
			onehop.AssembleRing(concrete)
		},
		MaxMeanHops:        func(n int) float64 { return 1.1 },
		SupportsNudgeMerge: true,
	}
}

func TestConformance(t *testing.T) { ringtest.Run(t, factory()) }

// TestSingleNodeOwnsEverything pins the ownership predicate's edge
// cases on a singleton ring: the only member owns everything, including
// its own identity and the ID just before it, and its table and
// predecessor describe the one-node topology.
func TestSingleNodeOwnsEverything(t *testing.T) {
	k := simnet.New(1)
	defer k.Stop()
	net := simwire.New(k, simwire.Config{
		LatencyMS:      stats.Normal{Mean: 5, Variance: 0, Min: 5},
		BandwidthKbps:  stats.Normal{Mean: 1e6, Variance: 0, Min: 1e6},
		DefaultTimeout: 200 * time.Millisecond,
	})
	ep := net.NewEndpoint("solo")
	n := onehop.New(net.Env(), ep, hashing.NodeID("solo"), onehop.Config{
		PingEvery:  500 * time.Millisecond,
		RPCTimeout: 200 * time.Millisecond,
	})
	n.CreateRing()
	for _, id := range []core.ID{0, n.Self().ID, n.Self().ID - 1, math.MaxUint64} {
		if !n.OwnsID(id) {
			t.Errorf("single node does not own %x", uint64(id))
		}
	}
	if got := n.TableSize(); got != 1 {
		t.Errorf("TableSize() = %d on a singleton ring, want 1", got)
	}
	if pred := n.Predecessor(); !pred.IsZero() {
		t.Errorf("singleton predecessor = %v, want zero (table holds only self)", pred)
	}
}

// TestOptimisticLookupAnswersFromTable: under dht.Optimistic the
// membership table names the owner with no probe — zero hops, zero
// messages — while an exact lookup keeps probe-before-trust and pays
// one round trip to a remote owner.
func TestOptimisticLookupAnswersFromTable(t *testing.T) {
	k := simnet.New(7)
	defer k.Stop()
	net := simwire.New(k, simwire.Config{
		LatencyMS:      stats.Normal{Mean: 5, Variance: 0, Min: 5},
		BandwidthKbps:  stats.Normal{Mean: 1e6, Variance: 0, Min: 1e6},
		DefaultTimeout: 200 * time.Millisecond,
	})
	nodes := make([]*onehop.Node, 8)
	for i := range nodes {
		name := fmt.Sprintf("opt-%d", i)
		nodes[i] = onehop.New(net.Env(), net.NewEndpoint(name), hashing.NodeID(name), onehop.Config{
			PingEvery:  500 * time.Millisecond,
			RPCTimeout: 200 * time.Millisecond,
		})
	}
	onehop.AssembleRing(nodes)
	issuer := nodes[0]
	owner := func(id core.ID) *onehop.Node {
		for _, n := range nodes {
			if n.OwnsID(id) {
				return n
			}
		}
		return nil
	}
	rng := k.NewRand("optimistic")
	remote := 0
	k.Go(func() {
		for i := 0; i < 40; i++ {
			id := core.ID(rng.Uint64())
			want := owner(id)
			m := &network.Meter{}
			ref, hops, err := issuer.Lookup(dht.Optimistic(network.WithMeter(context.Background(), m)), id)
			if err != nil || ref.ID != want.Self().ID || hops != 0 || m.Msgs != 0 {
				t.Errorf("optimistic lookup %s = %s, %d hops, %d msgs, %v; want %s, 0, 0",
					id, ref.ID, hops, m.Msgs, err, want.Self().ID)
			}
			if want == issuer {
				continue
			}
			remote++
			m = &network.Meter{}
			ref, hops, err = issuer.Lookup(network.WithMeter(context.Background(), m), id)
			if err != nil || ref.ID != want.Self().ID || hops != 1 || m.Msgs != 2 {
				t.Errorf("exact lookup %s = %s, %d hops, %d msgs, %v; want %s, 1, 2",
					id, ref.ID, hops, m.Msgs, err, want.Self().ID)
			}
		}
	})
	k.Run(time.Minute)
	if remote == 0 {
		t.Fatal("no sampled position had a remote owner")
	}
}
