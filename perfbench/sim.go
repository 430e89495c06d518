package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Every workload stores 1000-byte values at |Hr| = 10 replica
// positions (Table 1).
const (
	payloadSize = 1000
	replicas    = 10
)

// simShape sizes a simulated workload.
type simShape struct {
	peers   int
	keys    int
	clients int // closed-loop kernel processes
	// pool, when positive, issues every operation from a fixed pool of
	// this many peers; otherwise each operation picks a random live peer.
	pool int
	// opsPerSecond sizes a run's timed work: a fixed operation count of
	// opsPerSecond × --seconds, so a seed's deterministic counts repeat
	// exactly whatever the host's speed.
	opsPerSecond int
	spec         workload.Spec // pattern and mix; sizes are filled in
}

// simDeployment is a simulated deployment on exp.NewDeployment.
type simDeployment struct {
	d    *exp.Deployment
	s    *session
	pick func() *exp.Peer
}

// simIssuer issues through the UMS service of the peer pick chooses.
type simIssuer struct{ pick func() *exp.Peer }

func (is simIssuer) insert(ctx context.Context, k core.Key, data []byte) (dht.OpResult, error) {
	return is.pick().UMS.Insert(ctx, k, data)
}

func (is simIssuer) retrieve(ctx context.Context, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	return is.pick().UMS.RetrieveWith(ctx, k, pol)
}

// setupSim builds shape's deployment on the paper's Table 1 network
// (chord, UMS-Direct, |Hr| = 10), lets ring maintenance settle for the
// scenario's warm-up, and preloads every key.
func setupSim(shape simShape, seed int64) (*simDeployment, error) {
	sc := exp.Table1Scenario(exp.AlgUMSDirect, shape.peers, seed)
	d := exp.NewDeployment(exp.DeployConfig{
		Peers:    shape.peers,
		Replicas: replicas,
		Seed:     seed,
		Net:      sc.Net,
		Chord:    sc.Chord,
	})
	d.RunFor(sc.Warmup)
	sd := &simDeployment{d: d}
	rng := d.K.NewRand("perfbench-issuer")
	if shape.pool > 0 {
		live := d.LivePeers()
		pool := make([]*exp.Peer, shape.pool)
		for i, j := range rng.Perm(len(live))[:shape.pool] {
			pool[i] = live[j]
		}
		sd.pick = func() *exp.Peer { return pool[rng.Intn(len(pool))] }
	} else {
		sd.pick = func() *exp.Peer { return d.RandomLivePeer(rng) }
	}
	env := d.Net.Env()
	sd.s = &session{now: env.Now}
	var err error
	if !d.Do(func() { err = preload(env, sd.s, simIssuer{sd.pick}, shape.keys, shape.clients, payloadSize) }) {
		d.K.Stop()
		return nil, fmt.Errorf("preload did not finish")
	}
	if err != nil {
		d.K.Stop()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return sd, nil
}

func (sd *simDeployment) sess() *session { return sd.s }

func (sd *simDeployment) runWindow(ctx context.Context, spec workload.Spec) error {
	_, err := sd.d.RunWorkloadWith(ctx, spec, client{s: sd.s, is: simIssuer{sd.pick}, gate: newKeyGate(spec.Keys)})
	return err
}

func (sd *simDeployment) snap() snap {
	return takeSnap([]*obs.Registry{sd.d.Obs}, sd.d.K.Events(), sd.d.Net.TotalMessages())
}

func (sd *simDeployment) stop() { sd.d.K.Stop() }

// simWorkload defines a simulated workload of the given shape.
func simWorkload(name string, shape simShape, parts int) workloadDef {
	return workloadDef{
		name:  name,
		parts: parts,
		names: [3]string{"ums.Service.Insert", "ums.Service.Insert", "ums.Service.RetrieveWith"},
		setup: func(seed int64, _ string) (deployment, error) {
			return setupSim(shape, seed)
		},
		window: func(seed int64, seconds, parts int) workload.Spec {
			spec := shape.spec
			spec.Keys = shape.keys
			spec.KeyPrefix = keyPrefix
			spec.DataSize = payloadSize
			spec.Seed = genSeed(seed)
			spec.Concurrency = shape.clients
			spec.Ops = shape.opsPerSecond * seconds / parts
			spec.SkipPreload = true
			return spec
		},
	}
}

// genSeed derives the operation generator's seed from the run's seed
// (the generator treats 0 as unset).
func genSeed(seed int64) int64 { return rand.New(rand.NewSource(seed)).Int63() | 1 }

// float returns a pointer to f, for workload.Spec.ReadRatio.
func float(f float64) *float64 { return &f }

// simWrite is the write-path workload: 90% updates and 10% Current gets
// over uniform keys, each from a random live peer.
func simWrite(peers, keys, opsPerSecond int) simShape {
	return simShape{
		peers: peers, keys: keys, clients: 64, opsPerSecond: opsPerSecond,
		spec: workload.Spec{Pattern: workload.Uniform, ReadRatio: float(0.1)},
	}
}

// simRead is the read-path workload: Zipf(1.1) keys, 95% gets at 50%
// Current, 30% Bounded(5 min) and 20% Eventual, all issued from a fixed
// pool of 8 peers so their last-ts caches warm.
func simRead(peers, keys, opsPerSecond int) simShape {
	return simShape{
		peers: peers, keys: keys, clients: 64, pool: 8, opsPerSecond: opsPerSecond,
		spec: workload.Spec{
			Pattern: workload.Zipf, ZipfS: 1.1, ReadRatio: float(0.95),
			EventualFrac: 0.2, BoundedFrac: 0.3, Bound: 5 * time.Minute,
		},
	}
}
