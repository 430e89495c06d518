package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	dcdht "repro"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/tcpwire"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// tcpShape sizes the real-node workload.
type tcpShape struct {
	nodes   int
	keys    int
	clients int
	port    int
}

// convergeLimit bounds the wait for a new ring to converge.
const convergeLimit = 30 * time.Second

// nodeAddr pins node i's listen address. Node IDs hash the listen
// address, so pinned addresses build the same ring every run.
func (sh tcpShape) nodeAddr(i int) string { return fmt.Sprintf("127.0.0.%d:%d", i+2, sh.port) }

// tcpDeployment is a ring of real nodes on loopback, in this process.
type tcpDeployment struct {
	nodes []*dcdht.Node
	env   *network.RealEnv
	s     *session
	next  atomic.Uint64 // round-robin cursor over nodes
}

// tcpIssuer issues round-robin across the nodes.
type tcpIssuer struct{ td *tcpDeployment }

func (is tcpIssuer) node() *dcdht.Node {
	return is.td.nodes[int(is.td.next.Add(1)-1)%len(is.td.nodes)]
}

func (is tcpIssuer) insert(ctx context.Context, k core.Key, data []byte) (dht.OpResult, error) {
	return is.node().Put(ctx, k, data)
}

func (is tcpIssuer) retrieve(ctx context.Context, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	c := dcdht.Current
	switch pol.Level {
	case dht.LevelBounded:
		c = dcdht.Bounded(pol.Bound)
	case dht.LevelEventual:
		c = dcdht.Eventual
	}
	return is.node().Get(ctx, k, dcdht.WithConsistency(c))
}

// nodeConfig is the settings of the cluster retrieve benchmark, made
// durable at the default fsync policy.
func nodeConfig(seed int64, dataDir string) dcdht.NodeConfig {
	return dcdht.NodeConfig{
		Replicas:       replicas,
		Seed:           seed,
		StabilizeEvery: 200 * time.Millisecond,
		GraceDelay:     20 * time.Millisecond,
		DataDir:        dataDir,
	}
}

// setupTCP starts shape.nodes durable chord nodes on pinned loopback
// addresses, waits until every successor and predecessor pointer is
// the one the sorted node IDs call for, and preloads every key.
func setupTCP(shape tcpShape, seed int64, dir string) (*tcpDeployment, error) {
	data := filepath.Join(dir, "data")
	if err := os.RemoveAll(data); err != nil {
		return nil, fmt.Errorf("clear data dir: %w", err)
	}
	td := &tcpDeployment{env: network.NewRealEnv(seed)}
	// Node i's jitter stream has the fixed seed i+1, so every run builds
	// the same deployment and only the operation stream follows the
	// run's seed: with jitter seeded from the run's seed, the get p99
	// moved between about 2.4 and 3.3 ms from seed to seed on a 2-vCPU
	// host.
	for i := 0; i < shape.nodes; i++ {
		n, err := dcdht.StartNode(shape.nodeAddr(i), nodeConfig(int64(i+1), filepath.Join(data, fmt.Sprint(i))))
		if err != nil {
			td.stop()
			return nil, err
		}
		td.nodes = append(td.nodes, n)
		if i == 0 {
			n.CreateRing()
		} else if err := n.Join(td.nodes[0].Addr()); err != nil {
			td.stop()
			return nil, fmt.Errorf("join %s: %w", n.Addr(), err)
		}
	}
	if err := td.converge(convergeLimit); err != nil {
		td.stop()
		return nil, err
	}
	td.s = &session{now: td.env.Now}
	if err := preload(td.env, td.s, tcpIssuer{td}, shape.keys, shape.nodes, payloadSize); err != nil {
		td.stop()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return td, nil
}

// converge waits until every node's successor and predecessor are its
// neighbours in ID order.
func (td *tcpDeployment) converge(limit time.Duration) error {
	addrs := make([]string, len(td.nodes))
	for i, n := range td.nodes {
		addrs[i] = n.Addr()
	}
	sort.Slice(addrs, func(i, j int) bool { return hashing.NodeID(addrs[i]) < hashing.NodeID(addrs[j]) })
	succ := map[string]string{}
	pred := map[string]string{}
	for i, a := range addrs {
		succ[a] = addrs[(i+1)%len(addrs)]
		pred[a] = addrs[(i+len(addrs)-1)%len(addrs)]
	}
	deadline := time.Now().Add(limit)
	for {
		ok := true
		for _, n := range td.nodes {
			st := n.Status()
			if st.Successor != succ[st.Addr] || st.Predecessor != pred[st.Addr] {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("ring did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (td *tcpDeployment) sess() *session { return td.s }

func (td *tcpDeployment) runWindow(ctx context.Context, spec workload.Spec) error {
	_, err := workload.Run(ctx, td.env, client{s: td.s, is: tcpIssuer{td}, gate: newKeyGate(spec.Keys)}, spec)
	return err
}

func (td *tcpDeployment) snap() snap {
	regs := make([]*obs.Registry, len(td.nodes))
	for i, n := range td.nodes {
		regs[i] = n.Metrics()
	}
	return takeSnap(regs, 0, 0)
}

// stop closes every node, which waits for its listener and connections
// to close.
func (td *tcpDeployment) stop() {
	for _, n := range td.nodes {
		n.Close()
	}
	td.nodes = nil
	td.env.Close()
}

// tcpWorkload defines the real-node workload: 50% Current gets and 50%
// updates, uniform over shape.keys, from shape.clients closed-loop
// goroutines for --seconds of wall time.
func tcpWorkload(name string, shape tcpShape, parts int) workloadDef {
	return workloadDef{
		name:  name,
		parts: parts,
		names: [3]string{"Node.Put", "Node.Put", "Node.Get"},
		setup: func(seed int64, dir string) (deployment, error) {
			return setupTCP(shape, seed, dir)
		},
		window: func(seed int64, seconds, parts int) workload.Spec {
			return workload.Spec{
				Pattern:     workload.Uniform,
				ReadRatio:   float(0.5),
				Keys:        shape.keys,
				KeyPrefix:   keyPrefix,
				DataSize:    payloadSize,
				Seed:        genSeed(seed),
				Concurrency: shape.clients,
				Duration:    time.Duration(seconds) * time.Second / time.Duration(parts),
				SkipPreload: true,
			}
		},
		probe:  tcpProbes,
		slices: 9,
	}
}

// probeRounds is how many calls each standalone probe times.
const probeRounds = 2000

// tcpProbes times a standalone tcpwire round trip of a 1 KB replica
// write between two endpoints, and a standalone WAL.PutItem at the
// workload's item size and default fsync policy; it also measures the
// log bytes one replica record and one counter record take.
func tcpProbes(dir string) (probes, error) {
	var pr probes
	env := network.NewRealEnv(1)
	defer env.Close()
	a, err := tcpwire.Listen("127.0.0.1:0")
	if err != nil {
		return pr, err
	}
	defer a.Close()
	b, err := tcpwire.Listen("127.0.0.1:0")
	if err != nil {
		return pr, err
	}
	defer b.Close()
	b.Handle("perfbench.put", func(network.Addr, network.Message) (network.Message, error) {
		return dht.PutResp{Stored: true}, nil
	})
	k := keyName(keyPrefix, 0)
	set := hashing.NewSet(replicas)
	qual := dht.Qualifier("ums", k, set.Hr[0].Name())
	req := dht.PutReq{RingID: set.Hr[0].ID(k), Qual: qual, Val: core.Value{Data: preloadPayload(k, payloadSize), TS: core.TS(1)}, Mode: dht.PutIfNewer}
	rtt := make([]time.Duration, probeRounds)
	for i := range rtt {
		t0 := env.Now()
		if _, err := a.Invoke(context.Background(), b.Addr(), "perfbench.put", req, network.Call{}); err != nil {
			return pr, fmt.Errorf("rtt probe: %w", err)
		}
		rtt[i] = env.Now() - t0
		pr.spans = append(pr.spans, span{ID: -1 - i, Name: "tcpwire.Endpoint.Invoke", Start: int64(t0), End: int64(t0 + rtt[i])})
	}
	pr.rttUs = medianMs(rtt) * 1000

	walDir := filepath.Join(dir, "probe-wal")
	if err := os.RemoveAll(walDir); err != nil {
		return pr, err
	}
	defer os.RemoveAll(walDir)
	w, err := store.OpenWAL(walDir, store.WALOptions{})
	if err != nil {
		return pr, err
	}
	defer w.Close()
	app := make([]time.Duration, probeRounds)
	for i := range app {
		it := store.Item{RingID: core.ID(i), Qual: qual, Val: req.Val}
		t0 := env.Now()
		if err := w.PutItem(it); err != nil {
			return pr, fmt.Errorf("append probe: %w", err)
		}
		app[i] = env.Now() - t0
		pr.spans = append(pr.spans, span{ID: -1 - probeRounds - i, Name: "store.WAL.PutItem", Start: int64(t0), End: int64(t0 + app[i])})
	}
	pr.appendUs = medianMs(app) * 1000
	itemBytes, err := logSize(walDir)
	if err != nil {
		return pr, err
	}
	pr.itemRecBytes = float64(itemBytes) / probeRounds
	for i := 0; i < probeRounds; i++ {
		if err := w.PutCounter(keyName(keyPrefix, i), core.TS(uint64(i+1))); err != nil {
			return pr, fmt.Errorf("counter probe: %w", err)
		}
	}
	all, err := logSize(walDir)
	if err != nil {
		return pr, err
	}
	pr.counterRecBytes = float64(all-itemBytes) / probeRounds
	return pr, nil
}

// logSize is the size of the write-ahead log file in dir.
func logSize(dir string) (int64, error) {
	fi, err := os.Stat(filepath.Join(dir, "wal.dcdht"))
	if err != nil {
		return 0, fmt.Errorf("wal size: %w", err)
	}
	return fi.Size(), nil
}
