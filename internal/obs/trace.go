package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Op identifies one client-visible operation for tracing. Fields are
// plain strings so obs stays import-free of the protocol packages: Alg
// is "ums" or "brk", Level a dht.Level string ("" for inserts), Key the
// application key.
type Op struct {
	Op    string // "get" | "put"
	Alg   string // "ums" | "brk"
	Level string // consistency level, "" when not applicable
	Key   string
}

// OpResult is the completion event for one operation: the verdict the
// currency resolution reached, the meter's communication cost, the
// end-to-end latency, and the per-phase decomposition accumulated by
// the Phases carrier (lookup/probe/kts). Phases overlap by design —
// lookup time is charged inside the probe or kts phase that needed the
// lookup — so they do not sum to Elapsed.
type OpResult struct {
	Op
	Verdict string // dht.Currency string; "" for inserts
	Err     bool
	Elapsed time.Duration
	Msgs    int
	Bytes   int
	Phases  []Phase
}

// Phase is one named slice of an operation's time.
type Phase struct {
	Name string
	D    time.Duration
}

// Phase names used by the instrumented layers.
const (
	PhaseLookup = "lookup" // DHT lookup round trips (every ring's Lookup)
	PhaseProbe  = "probe"  // replica probe round trips (ums GetH / brk fetches)
	PhaseKTS    = "kts"    // timestamping round trips (GenTS / LastTS)
)

// Tracer observes operation lifecycles. Implementations must be safe
// for concurrent use (real nodes trace from many goroutines) and must
// not consume randomness or wall-clock time, so tracing never perturbs
// a simulation replay.
type Tracer interface {
	// OpStart fires when the operation enters ums/brk.
	OpStart(op Op)
	// OpEnd fires exactly once per OpStart, after the result (including
	// failure) is known.
	OpEnd(res OpResult)
}

// tracerCtxKey carries the Tracer through call chains, parallel to
// network.WithMeter.
type tracerCtxKey struct{}

// WithTracer returns a context whose operations beneath report to t;
// passing nil returns ctx unchanged.
func WithTracer(ctx context.Context, t Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerCtxKey{}, t)
}

// TracerFrom returns the tracer ctx carries, or nil when untraced.
func TracerFrom(ctx context.Context) Tracer {
	t, _ := ctx.Value(tracerCtxKey{}).(Tracer)
	return t
}

// Phases accumulates named time slices for the operation that attached
// it (WithPhases). It is mutex-guarded: one op's phases are normally
// recorded sequentially, but fan-out paths may charge concurrently.
type Phases struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

// NewPhases returns an empty accumulator.
func NewPhases() *Phases { return &Phases{d: map[string]time.Duration{}} }

// Add charges d to the named phase. Nil accumulators ignore charges, so
// callers charge unconditionally: PhasesFrom(ctx).Add(...).
func (p *Phases) Add(name string, d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.d[name] += d
	p.mu.Unlock()
}

// List returns the accumulated phases sorted by name (deterministic for
// traces and tests).
func (p *Phases) List() []Phase {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]Phase, 0, len(p.d))
	for name, d := range p.d {
		out = append(out, Phase{Name: name, D: d})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// phasesCtxKey carries the Phases accumulator through call chains.
type phasesCtxKey struct{}

// WithPhases returns a context charging phase timings beneath it to p;
// passing nil returns ctx unchanged.
func WithPhases(ctx context.Context, p *Phases) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, phasesCtxKey{}, p)
}

// PhasesFrom returns the accumulator ctx carries, or nil. Nil is safe
// to Add to.
func PhasesFrom(ctx context.Context) *Phases {
	p, _ := ctx.Value(phasesCtxKey{}).(*Phases)
	return p
}

// MetricsTracer is the standard Tracer: it folds op events into a
// registry's op-level metric families. Core families (get/put × ums/brk
// at level "current") are pre-registered at zero so a freshly started
// node's /metrics already exposes them — operators alert on families,
// not on their first sample.
type MetricsTracer struct {
	lat      *HistogramVec
	phase    *HistogramVec
	msgs     *CounterVec
	bytes    *CounterVec
	errs     *CounterVec
	verdicts *CounterVec
	inflight *Gauge
}

// NewMetricsTracer builds the standard metrics sink on r. Safe on a nil
// registry (events are counted into unregistered metrics).
func NewMetricsTracer(r *Registry) *MetricsTracer {
	t := &MetricsTracer{
		lat: r.DurationHistogramVec("dcdht_op_duration_seconds",
			"End-to-end latency of client operations.", "op", "alg", "level"),
		phase: r.DurationHistogramVec("dcdht_op_phase_duration_seconds",
			"Operation time by phase (lookup/probe/kts); phases overlap, they do not sum to op duration.", "phase"),
		msgs: r.CounterVec("dcdht_op_msgs_total",
			"Messages charged to client operations.", "op", "alg"),
		bytes: r.CounterVec("dcdht_op_bytes_total",
			"Bytes charged to client operations.", "op", "alg"),
		errs: r.CounterVec("dcdht_op_errors_total",
			"Client operations that returned an error.", "op", "alg"),
		verdicts: r.CounterVec("dcdht_op_verdicts_total",
			"Currency verdicts of retrieves, by consistency level.", "level", "verdict"),
		inflight: r.Gauge("dcdht_ops_inflight",
			"Client operations currently executing."),
	}
	// Pre-register the core label universe at zero.
	for _, alg := range []string{"ums", "brk"} {
		t.lat.With("get", alg, "current")
		t.lat.With("put", alg, "")
		t.msgs.With("get", alg)
		t.msgs.With("put", alg)
		t.errs.With("get", alg)
		t.errs.With("put", alg)
	}
	t.verdicts.With("current", "proven")
	t.phase.With(PhaseLookup)
	t.phase.With(PhaseProbe)
	t.phase.With(PhaseKTS)
	return t
}

// OpStart implements Tracer.
func (t *MetricsTracer) OpStart(Op) { t.inflight.Add(1) }

// OpEnd implements Tracer.
func (t *MetricsTracer) OpEnd(res OpResult) {
	t.inflight.Add(-1)
	t.lat.With(res.Op.Op, res.Alg, res.Level).Observe(res.Elapsed)
	t.msgs.With(res.Op.Op, res.Alg).Add(uint64(res.Msgs))
	t.bytes.With(res.Op.Op, res.Alg).Add(uint64(res.Bytes))
	if res.Err {
		t.errs.With(res.Op.Op, res.Alg).Inc()
	}
	if res.Verdict != "" {
		t.verdicts.With(res.Level, res.Verdict).Inc()
	}
	for _, ph := range res.Phases {
		t.phase.With(ph.Name).Observe(ph.D)
	}
}

// Fanout broadcasts events to several tracers — a deployment can feed
// its metrics registry and a test recorder at once.
type Fanout []Tracer

// OpStart implements Tracer.
func (f Fanout) OpStart(op Op) {
	for _, t := range f {
		t.OpStart(op)
	}
}

// OpEnd implements Tracer.
func (f Fanout) OpEnd(res OpResult) {
	for _, t := range f {
		t.OpEnd(res)
	}
}
