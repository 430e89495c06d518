package ums_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
)

// ownerOf returns the live peer owning ring position id.
func ownerOf(t *testing.T, d *exp.Deployment, id core.ID) *exp.Peer {
	t.Helper()
	for _, p := range d.LivePeers() {
		if p.Node.OwnsID(id) {
			return p
		}
	}
	t.Fatalf("no live owner of %s", id)
	return nil
}

// TestOneHopUpdatePaysNoLookupMessages is the layer-table proof for the
// one-hop ring: resolving the hts and |Hr| responsibles of a UMS update
// costs no message at all, because every lookup is answered from the
// membership table and the owners' own checks verify it. The update's
// whole bill is one round trip per remote target — the gen_ts and the
// PutIfNewer pushes — and nothing for routing.
func TestOneHopUpdatePaysNoLookupMessages(t *testing.T) {
	d := exp.NewDeployment(exp.DeployConfig{Peers: 16, Replicas: 10, Seed: 5, Ring: exp.RingOneHop})
	defer d.K.Stop()
	d.RunFor(time.Minute)
	issuer := d.Peers[0]
	ok := d.Do(func() {
		for i := 0; i < 5; i++ {
			k := core.Key(fmt.Sprintf("onehop-%d", i))
			if _, err := issuer.UMS.Insert(context.Background(), k, []byte("v1")); err != nil {
				t.Errorf("first insert %s: %v", k, err)
				return
			}
			res, err := issuer.UMS.Insert(context.Background(), k, []byte("v2"))
			if err != nil {
				t.Errorf("update %s: %v", k, err)
				return
			}
			remote := 0
			targets := []core.ID{d.Set.HTS.ID(k)}
			for _, h := range d.Set.Hr {
				targets = append(targets, h.ID(k))
			}
			for _, id := range targets {
				if ownerOf(t, d, id) != issuer {
					remote++
				}
			}
			if res.Msgs != 2*remote {
				t.Errorf("update %s cost %d msgs; %d remote targets at one round trip each is %d, so routing cost %d",
					k, res.Msgs, remote, 2*remote, res.Msgs-2*remote)
			}
		}
	})
	if !ok {
		t.Fatal("simulation stalled")
	}
}

// phaseRecorder is a Tracer that keeps every finished op.
type phaseRecorder struct {
	mu  sync.Mutex
	ops []obs.OpResult
}

func (r *phaseRecorder) OpStart(obs.Op) {}
func (r *phaseRecorder) OpEnd(res obs.OpResult) {
	r.mu.Lock()
	r.ops = append(r.ops, res)
	r.mu.Unlock()
}

// TestTracedOpsChargeLookupPhasePerRing: on every substrate a traced
// UMS put and get carry a lookup phase, so the per-phase breakdown
// names routing whatever ring runs underneath. On chord and CAN, whose
// walks leave the issuer, the phase also holds time.
func TestTracedOpsChargeLookupPhasePerRing(t *testing.T) {
	for _, ring := range []exp.RingKind{exp.RingChord, exp.RingCAN, exp.RingOneHop} {
		t.Run(string(ring), func(t *testing.T) {
			d := exp.NewDeployment(exp.DeployConfig{Peers: 16, Replicas: 3, Seed: 9, Ring: ring})
			defer d.K.Stop()
			d.RunFor(time.Minute)
			rec := &phaseRecorder{}
			ok := d.Do(func() {
				ctx := obs.WithTracer(context.Background(), rec)
				if _, err := d.Peers[0].UMS.Insert(ctx, "traced", []byte("v")); err != nil {
					t.Errorf("insert: %v", err)
				}
				if _, err := d.Peers[1].UMS.Retrieve(ctx, "traced"); err != nil {
					t.Errorf("retrieve: %v", err)
				}
			})
			if !ok {
				t.Fatal("simulation stalled")
			}
			if len(rec.ops) != 2 {
				t.Fatalf("traced %d ops, want 2", len(rec.ops))
			}
			for _, op := range rec.ops {
				var lookup time.Duration
				found := false
				for _, p := range op.Phases {
					if p.Name == obs.PhaseLookup {
						lookup, found = p.D, true
					}
				}
				if !found {
					t.Errorf("%s op has no lookup phase: %+v", op.Op.Op, op.Phases)
				}
				if ring != exp.RingOneHop && op.Op.Op == "put" && lookup <= 0 {
					t.Errorf("%s put charged %v to the lookup phase, want > 0", ring, lookup)
				}
			}
		})
	}
}
