package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/obs"
)

// session records every operation one deployment served, on the
// workload's own clock, for the oracle and the metrics.
type session struct {
	now    func() time.Duration
	traced bool // attach a per-op tracer so obs phases come back

	mu   sync.Mutex
	recs []opRecord
}

// opTracer is the per-op obs.Tracer a traced run attaches through the
// context: UMS reports the op's kts, probe and lookup phases to it.
type opTracer struct{ phases []obs.Phase }

func (*opTracer) OpStart(obs.Op)           {}
func (t *opTracer) OpEnd(res obs.OpResult) { t.phases = res.Phases }

// do runs one operation and records it. rec carries the inputs (kind,
// key, level, payload sum for writes); the result fills the rest.
func (s *session) do(ctx context.Context, rec opRecord, call func(context.Context) (dht.OpResult, error)) (dht.OpResult, error) {
	var tr *opTracer
	if s.traced {
		tr = &opTracer{}
		ctx = obs.WithTracer(ctx, tr)
	}
	rec.start = s.now()
	res, err := call(ctx)
	rec.end, rec.done = s.now(), time.Now()
	rec.ts, rec.floor, rec.floorAge, rec.currency = res.TS, res.Floor, res.FloorAge, res.Currency
	rec.msgs, rec.probed, rec.stored, rec.err = res.Msgs, res.Probed, res.Stored, err
	if rec.kind == opGet {
		rec.sum = payloadSum(res.Data)
	}
	if tr != nil {
		rec.phases = make(map[string]time.Duration, len(tr.phases))
		for _, ph := range tr.phases {
			rec.phases[ph.Name] = ph.D
		}
	}
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
	return res, err
}

// mark returns the number of operations recorded so far: the index at
// which the next window's records begin.
func (s *session) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// take hands the history recorded so far to the caller and forgets it.
func (s *session) take() []opRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.recs
	s.recs = nil
	return recs
}

// issuer performs operations from some peer or node of a deployment.
type issuer interface {
	insert(ctx context.Context, k core.Key, data []byte) (dht.OpResult, error)
	retrieve(ctx context.Context, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error)
}

// keyGate keeps the operations of a timed window from overlapping on a
// key. A Current get that overlaps an update of its key may find no
// replica it can prove current and fail with ErrNoCurrentReplica, as
// UMS specifies; the workloads measure operations that succeed, so
// every key has at most one operation in flight. A key the generator
// draws while it is busy moves to the next free key in index order,
// which keeps a Zipf hot set hot. Under simulation the kernel runs one
// process at a time, so the remapping is deterministic.
type keyGate struct {
	keys int
	mu   sync.Mutex
	busy map[core.Key]bool
}

func newKeyGate(keys int) *keyGate { return &keyGate{keys: keys, busy: map[core.Key]bool{}} }

// claim marks a free key busy and returns it: k itself when free.
func (g *keyGate) claim(k core.Key) core.Key {
	g.mu.Lock()
	defer g.mu.Unlock()
	i, err := strconv.Atoi(strings.TrimPrefix(string(k), keyPrefix))
	if err != nil {
		panic(fmt.Sprintf("perfbench: key %q is not one of the workload's", k))
	}
	for n := 0; g.busy[k]; n++ {
		if n == g.keys {
			panic("perfbench: more clients than keys")
		}
		i = (i + 1) % g.keys
		k = keyName(keyPrefix, i)
	}
	g.busy[k] = true
	return k
}

func (g *keyGate) release(k core.Key) {
	g.mu.Lock()
	delete(g.busy, k)
	g.mu.Unlock()
}

// client adapts a session and an issuer to the workload engine's
// LevelClient, recording every operation the engine issues.
type client struct {
	s    *session
	is   issuer
	gate *keyGate
}

// Put implements workload.Client: an update of a preloaded key.
func (c client) Put(ctx context.Context, k core.Key, data []byte) (dht.OpResult, error) {
	k = c.gate.claim(k)
	defer c.gate.release(k)
	return c.s.do(ctx, opRecord{kind: opPut, key: k, sum: payloadSum(data)},
		func(ctx context.Context) (dht.OpResult, error) { return c.is.insert(ctx, k, data) })
}

// Get implements workload.Client: a Current read.
func (c client) Get(ctx context.Context, k core.Key) (dht.OpResult, error) {
	return c.GetWith(ctx, k, dht.ReadPolicy{})
}

// GetWith implements workload.LevelClient.
func (c client) GetWith(ctx context.Context, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	k = c.gate.claim(k)
	defer c.gate.release(k)
	return c.s.do(ctx, opRecord{kind: opGet, key: k, level: pol.Level, bound: pol.Bound},
		func(ctx context.Context) (dht.OpResult, error) { return c.is.retrieve(ctx, k, pol) })
}

// keyName renders key i exactly as the workload generator does for the
// spec's KeyPrefix, so the preload writes the keys the timed window
// reads and updates (TestPreloadCoversGenerator pins the format).
func keyName(prefix string, i int) core.Key {
	return core.Key(fmt.Sprintf("%s%04d", prefix, i))
}

// keyPrefix namespaces the benchmark's keys.
const keyPrefix = "pb-"

// preloadPayload is the deterministic first value of key k.
func preloadPayload(k core.Key, size int) []byte {
	b := make([]byte, size)
	copy(b, fmt.Sprintf("%s#insert", k))
	return b
}

// preload inserts keys 0..n-1 once each with workers concurrent
// inserters, each insert timed on its own. Under simulation it must run
// as a kernel process.
func preload(env network.Env, s *session, is issuer, n, workers, size int) error {
	var mu sync.Mutex
	next := 0
	return network.GoJoin(env, workers, 10*time.Millisecond, func(int) {
		for {
			mu.Lock()
			i := next
			next++
			mu.Unlock()
			if i >= n {
				return
			}
			k := keyName(keyPrefix, i)
			data := preloadPayload(k, size)
			s.do(context.Background(), opRecord{kind: opInsert, key: k, sum: payloadSum(data)},
				func(ctx context.Context) (dht.OpResult, error) { return is.insert(ctx, k, data) })
		}
	})
}
