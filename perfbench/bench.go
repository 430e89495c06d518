package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// deployment is one built, converged and preloaded system under test.
type deployment interface {
	// sess is the deployment's operation history.
	sess() *session
	// runWindow drives spec through the workload engine against the
	// deployment, recording every operation in sess.
	runWindow(ctx context.Context, spec workload.Spec) error
	// snap reads every counter the per-layer metrics need.
	snap() snap
	// stop tears the deployment down and waits for it.
	stop()
}

// probes are standalone per-layer measurements taken outside the timed
// window (real-node workloads only).
type probes struct {
	rttUs           float64 // tcpwire Invoke round trip, p50
	appendUs        float64 // WAL.PutItem, p50
	itemRecBytes    float64 // log bytes per replica record
	counterRecBytes float64 // log bytes per KTS counter record
	spans           []span
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	// names are the span names of the program calls behind an insert,
	// a put and a get, indexed by opKind.
	names [3]string
	// parts is how many deployments an untraced run builds, each from
	// its own seed and each timed on its share of the run's work.
	// setup_s is the median over the parts.
	parts int
	// slices, when above 1, splits every wall-clock window into this
	// many equal slices, and each latency percentile is the
	// interquartile mean over all slices of the slice's percentile, so
	// a burst of host noise moves a few slices only. Otherwise
	// percentiles pool all the parts' samples, which suits the
	// simulator's virtual latencies and averages over the parts' random
	// networks.
	slices int
	// setup builds, converges and preloads a deployment.
	setup func(seed int64, dir string) (deployment, error)
	// window is the workload spec of a timed window that does 1/parts
	// of a run's work.
	window func(seed int64, seconds, parts int) workload.Spec
	// probe takes the standalone probes, or is nil.
	probe func(dir string) (probes, error)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// window is one timed window's bounds and counter deltas.
type window struct {
	from, to      int // record indices
	t0            time.Time
	wall          time.Duration
	before, after snap
}

func (w window) ops() int { return w.to - w.from }

func (w window) opsPerSec() float64 { return float64(w.ops()) / w.wall.Seconds() }

// perOp is a counter delta per timed operation.
func (w window) perOp(name string) float64 { return w.after.delta(w.before, name) / float64(w.ops()) }

// part is one deployment's share of a run. Once the oracle has checked
// the history, only the compact samples and insert latencies stay, so
// the records of earlier parts do not weigh on the heap the benchmark
// measures; a traced part also keeps its records.
type part struct {
	setup     time.Duration
	setupEnd  snap // counters when set-up finished
	w         window
	heapMB    float64 // live heap after the window, when asked for
	v         verdict
	attempted int
	samples   []sample        // the timed operations
	inserts   []time.Duration // the preload's first inserts
	recs      []opRecord      // the whole history, traced parts only
}

// sample is what the end-to-end metrics keep of one timed operation.
type sample struct {
	kind opKind
	lat  time.Duration // on the workload clock
	at   time.Duration // wall time from the window's start to completion
	msgs int
}

func (p *part) timed() []opRecord { return p.recs[p.w.from:p.w.to] }

// runPart builds one deployment from seed, times one window of spec on
// it and checks its history.
func runPart(def workloadDef, seed int64, spec workload.Spec, traced, heap bool, dir string) (part, error) {
	var p part
	t0 := time.Now()
	d, err := def.setup(seed, dir)
	if err != nil {
		return p, fmt.Errorf("set-up: %w", err)
	}
	defer d.stop()
	p.setup = time.Since(t0)
	p.setupEnd = d.snap()
	d.sess().traced = traced
	p.w.from, p.w.before = d.sess().mark(), d.snap()
	p.w.t0 = time.Now()
	err = d.runWindow(context.Background(), spec)
	p.w.wall = time.Since(p.w.t0)
	p.w.after, p.w.to = d.snap(), d.sess().mark()
	if err != nil {
		return p, fmt.Errorf("timed window: %w", err)
	}
	if p.w.ops() == 0 {
		return p, fmt.Errorf("timed window completed no operation")
	}
	recs := d.sess().take()
	p.v = check(recs, func(i int) bool { return i >= p.w.from && i < p.w.to })
	p.attempted = len(recs)
	p.inserts = latencies(recs[:p.w.from], opInsert)
	for _, r := range recs[p.w.from:p.w.to] {
		p.samples = append(p.samples, sample{kind: r.kind, lat: r.latency(), at: r.done.Sub(p.w.t0), msgs: r.msgs})
	}
	if traced {
		p.recs = recs
	}
	recs = nil
	if heap {
		p.heapMB = liveHeapMB()
	}
	return p, nil
}

// partSeed derives part i's seed; part 0 runs the run's own seed.
func partSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// run executes one benchmark run of def and returns its result; notes
// (sample counts, violations, coverage gaps) go to log.
func run(def workloadDef, seed int64, seconds int, traced bool, dir string, log io.Writer) (result, error) {
	if traced {
		return runTraced(def, seed, seconds, dir, log)
	}
	parts := make([]part, def.parts)
	for i := range parts {
		s := partSeed(seed, i)
		p, err := runPart(def, s, def.window(s, seconds, def.parts), false, i == def.parts-1, dir)
		if err != nil {
			return result{}, err
		}
		parts[i] = p
	}
	res := newResult(log, parts)
	endToEnd(res.Metrics, log, parts, def.slices)
	return res, nil
}

// runTraced is the traced run: one window of the whole run's work on a
// deployment built from seed, traced, after the same window untraced on
// a deployment built from the same seed, so trace.overhead_frac compares
// identical work in the simulator.
func runTraced(def workloadDef, seed int64, seconds int, dir string, log io.Writer) (result, error) {
	spec := def.window(seed, seconds, 1)
	untraced, err := runPart(def, seed, spec, false, false, dir)
	if err != nil {
		return result{}, err
	}
	p, err := runPart(def, seed, spec, true, false, dir)
	if err != nil {
		return result{}, err
	}
	var pr probes
	if def.probe != nil {
		if pr, err = def.probe(dir); err != nil {
			return result{}, fmt.Errorf("probes: %w", err)
		}
	}
	res := newResult(log, []part{p})
	perLayer(res.Metrics, log, &p, pr)
	res.Metrics["failed_frac"] = metric{float64(p.v.failed) / float64(p.attempted), "frac"}
	res.Metrics["stale_read_frac"] = metric{ratio(p.v.stale, p.v.reads), "frac"}
	res.Metrics["trace.overhead_frac"] = metric{1 - p.w.opsPerSec()/untraced.w.opsPerSec(), "frac"}
	if err := writeSpans(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", def.name, seed)), p.timed(), def.names, pr.spans); err != nil {
		return result{}, err
	}
	return res, nil
}

// newResult sums the parts' verdicts, printing every violation and
// error with its key and timestamps. The run is correct when no
// returned value broke a guarantee; failed also counts errors.
func newResult(log io.Writer, parts []part) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for i := range parts {
		v := &parts[i].v
		for _, vi := range v.violations {
			fmt.Fprintln(log, vi)
		}
		for _, e := range v.errors {
			fmt.Fprintln(log, e)
		}
		res.Correct = res.Correct && len(v.violations) == 0
		res.Attempted += parts[i].attempted
		res.Failed += v.failed
	}
	return res
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// latencies collects the latencies of records of kind k.
func latencies(recs []opRecord, k opKind) []time.Duration {
	var out []time.Duration
	for i := range recs {
		if recs[i].kind == k {
			out = append(out, recs[i].latency())
		}
	}
	return out
}

// putPercentile reports under name the interquartile mean over groups
// of each group's q-percentile, printing each group's sample count.
// Only groups with ten samples beyond their percentile count; with
// none, the metric is omitted.
func putPercentile(m map[string]metric, log io.Writer, name string, groups [][]time.Duration, q float64) {
	var vals []float64
	for i, ds := range groups {
		v, beyond, ok := percentile(millis(ds), q)
		fmt.Fprintf(log, "samples %s group=%d n=%d beyond=%d value=%g\n", name, i, len(ds), beyond, v)
		if ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		fmt.Fprintf(log, "omitted %s: fewer than %d samples beyond it\n", name, minTail)
		return
	}
	m[name] = metric{interquartileMean(vals), "ms"}
}

// rateChunk is how many consecutive completions one throughput sample
// spans.
const rateChunk = 500

// chunkRates returns the part's throughput over every run of rateChunk
// consecutive completions, in operations per wall second.
func (p *part) chunkRates() []float64 {
	at := make([]time.Duration, len(p.samples))
	for i, sm := range p.samples {
		at[i] = sm.at
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	var rates []float64
	for j := rateChunk; j < len(at); j += rateChunk {
		rates = append(rates, rateChunk/(at[j]-at[j-rateChunk]).Seconds())
	}
	return rates
}

// medianOf is the middle value of vs (the mean of the middle two for an
// even count).
func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interquartileMean is the mean of vs without its lowest and highest
// quarter. Unlike the median it moves smoothly when the values split
// into two clusters, as slice tails do when a few slices catch a stall;
// unlike the mean it ignores a burst of host noise.
func interquartileMean(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := len(s) / 4
	sum := 0.0
	for _, v := range s[k : len(s)-k] {
		sum += v
	}
	return sum / float64(len(s)-2*k)
}

// groups returns the latencies of kind k in the parts' timed windows:
// one group per slice of every window when slices is above 1, otherwise
// one pooled group.
func groups(parts []part, slices int, k opKind) [][]time.Duration {
	n := max(slices, 1)
	var out [][]time.Duration
	for i := range parts {
		p := &parts[i]
		g := make([][]time.Duration, n)
		for _, sm := range p.samples {
			if sm.kind == k {
				j := min(int(int64(sm.at)*int64(n)/int64(p.w.wall)), n-1)
				g[j] = append(g[j], sm.lat)
			}
		}
		out = append(out, g...)
	}
	if slices > 1 {
		return out
	}
	var all []time.Duration
	for _, g := range out {
		all = append(all, g...)
	}
	return [][]time.Duration{all}
}

// endToEnd fills the untraced run's metrics from its parts. ops_per_s
// is the interquartile mean of the throughput over runs of rateChunk
// completions, so a burst of host noise moves a few samples only; a run
// too short for one chunk uses the parts' window rates instead.
func endToEnd(m map[string]metric, log io.Writer, parts []part, slices int) {
	var setups, rates, windowRates []float64
	var inserts []time.Duration
	msgs, ops := 0, 0
	for i := range parts {
		p := &parts[i]
		setups = append(setups, p.setup.Seconds())
		rates = append(rates, p.chunkRates()...)
		windowRates = append(windowRates, p.w.opsPerSec())
		for _, sm := range p.samples {
			msgs += sm.msgs
		}
		ops += p.w.ops()
		inserts = append(inserts, p.inserts...)
	}
	if len(rates) == 0 {
		rates = windowRates
	}
	m["setup_s"] = metric{medianOf(setups), "s"}
	m["ops_per_s"] = metric{interquartileMean(rates), "1/s"}
	putPercentile(m, log, "get_p50_ms", groups(parts, slices, opGet), 0.5)
	putPercentile(m, log, "get_p99_ms", groups(parts, slices, opGet), 0.99)
	putPercentile(m, log, "put_p50_ms", groups(parts, slices, opPut), 0.5)
	putPercentile(m, log, "put_p99_ms", groups(parts, slices, opPut), 0.99)
	putPercentile(m, log, "insert_p50_ms", [][]time.Duration{inserts}, 0.5)
	m["msgs_per_op"] = metric{float64(msgs) / float64(ops), "msgs/op"}
	m["live_heap_mb"] = metric{parts[len(parts)-1].heapMB, "MB"}
}

// perLayer fills the traced run's per-layer metrics from the traced
// window's records and counter deltas, the set-up's counters and the
// standalone probes.
func perLayer(m map[string]metric, log io.Writer, p *part, pr probes) {
	timed, w := p.timed(), p.w
	ops := float64(len(timed))
	var gets, puts, probed, stored, getMsgs, putMsgs, opMsgs int
	var ktsD, probeD, lookupD []time.Duration
	for i := range timed {
		r := &timed[i]
		opMsgs += r.msgs
		if r.kind == opGet {
			gets++
			probed += r.probed
			getMsgs += r.msgs
			probeD = append(probeD, r.phases[obs.PhaseProbe])
		} else {
			puts++
			stored += r.stored
			putMsgs += r.msgs
		}
		if d, ok := r.phases[obs.PhaseKTS]; ok {
			ktsD = append(ktsD, d)
		}
		lookupD = append(lookupD, r.phases[obs.PhaseLookup])
	}
	inserts := len(p.inserts)
	events := float64(w.after.events - w.before.events)
	carried := float64(w.after.carried - w.before.carried)

	m["simnet.events_per_op"] = metric{events / ops, "events/op"}
	m["simnet.ns_per_event"] = metric{0, "ns"}
	if events > 0 {
		m["simnet.ns_per_event"] = metric{float64(w.wall.Nanoseconds()) / events, "ns"}
	}
	m["simwire.msgs_per_op"] = metric{carried / ops, "msgs/op"}
	m["simwire.op_msg_share"] = metric{0, "frac"}
	if carried > 0 {
		m["simwire.op_msg_share"] = metric{float64(opMsgs) / carried, "frac"}
	}

	m["tcpwire.calls_per_op"] = metric{w.perOp(famNetCalls), "calls/op"}
	m["tcpwire.dials_per_op"] = metric{w.perOp(famNetDials), "dials/op"}
	m["tcpwire.aborts_per_op"] = metric{w.perOp(famNetAborts), "aborts/op"}
	m["tcpwire.rtt_us_p50"] = metric{pr.rttUs, "us"}

	lookups := w.after.delta(w.before, famChordHops+":count")
	m["chord.lookups_per_op"] = metric{w.perOp(famChordLookups), "lookups/op"}
	m["chord.hops_per_lookup"] = metric{0, "hops"}
	if lookups > 0 {
		m["chord.hops_per_lookup"] = metric{w.after.delta(w.before, famChordHops+":sum") / lookups, "hops"}
	}
	m["chord.lookup_failures_per_op"] = metric{w.perOp(famChordFailures), "fails/op"}
	m["chord.lookup_ms_p50"] = metric{medianMs(lookupD), "ms"}

	// A put sends one PutIfNewer per replica position; a get probes
	// positions until one qualifies.
	m["dht.replica_rpcs_per_op"] = metric{float64(puts*replicas+probed) / ops, "rpcs/op"}
	m["dht.put_stored_frac"] = metric{ratio(stored, puts*replicas), "frac"}

	hits := w.after.delta(w.before, famKTSCacheHits)
	misses := w.after.delta(w.before, famKTSCacheMisses)
	m["kts.gents_per_op"] = metric{w.perOp(famKTSGenTS), "reqs/op"}
	m["kts.lastts_per_op"] = metric{w.perOp(famKTSLastTS), "reqs/op"}
	m["kts.cache_hit_ratio"] = metric{0, "frac"}
	if hits+misses > 0 {
		m["kts.cache_hit_ratio"] = metric{hits / (hits + misses), "frac"}
	}
	m["kts.indirect_inits_per_insert"] = metric{p.setupEnd.reg[famKTSIndirect] / float64(max(inserts, 1)), "inits/insert"}
	m["kts.ms_p50"] = metric{medianMs(ktsD), "ms"}

	m["ums.get.probes_per_op"] = metric{ratio(probed, gets), "probes/op"}
	m["ums.get.msgs"] = metric{ratio(getMsgs, gets), "msgs/op"}
	m["ums.put.msgs"] = metric{ratio(putMsgs, puts), "msgs/op"}
	m["ums.probe_ms_p50"] = metric{medianMs(probeD), "ms"}

	// Log bytes are the replica and counter records appended, each at
	// the size the standalone probe measured; user bytes are the
	// payloads of the timed puts.
	appends := w.after.delta(w.before, famWALAppends)
	m["store.wal_appends_per_op"] = metric{appends / ops, "appends/op"}
	m["store.wal_fsyncs_per_op"] = metric{w.perOp(famWALFsyncs), "fsyncs/op"}
	m["store.wal_bytes_per_user_byte"] = metric{0, "frac"}
	if appends > 0 && puts > 0 {
		walBytes := float64(stored)*pr.itemRecBytes + (appends-float64(stored))*pr.counterRecBytes
		m["store.wal_bytes_per_user_byte"] = metric{walBytes / float64(puts*payloadSize), "frac"}
	}
	m["store.append_us_p50"] = metric{pr.appendUs, "us"}

	gcCPU := w.after.rt[2] - w.before.rt[2]
	allCPU := w.after.rt[3] - w.before.rt[3]
	m["runtime.allocs_per_op"] = metric{(w.after.rt[0] - w.before.rt[0]) / ops, "allocs/op"}
	m["runtime.alloc_bytes_per_op"] = metric{(w.after.rt[1] - w.before.rt[1]) / ops, "B/op"}
	m["runtime.gc_cpu_frac"] = metric{0, "frac"}
	if allCPU > 0 {
		m["runtime.gc_cpu_frac"] = metric{gcCPU / allCPU, "frac"}
	}

	// Coverage: how much of each op's span the obs phases account for.
	// Known gaps: lookup time is also counted inside the kts and probe
	// phases, so the sum can pass 1; a put's replica fan-out is charged
	// to no phase.
	for _, k := range []opKind{opGet, opPut} {
		var phases, spans time.Duration
		for i := range timed {
			if timed[i].kind != k {
				continue
			}
			spans += timed[i].latency()
			for _, d := range timed[i].phases {
				phases += d
			}
		}
		frac := 0.0
		if spans > 0 {
			frac = float64(phases) / float64(spans)
		}
		m["trace.phase_sum_frac."+k.String()] = metric{frac, "frac"}
	}
	fmt.Fprintln(log, "coverage gaps: lookup time is counted again inside the kts and probe phases; a put's replica fan-out is charged to no phase")
}

// span is one traced interval written out at the end of a traced run.
type span struct {
	ID     int              `json:"id"`
	Name   string           `json:"name"`
	Key    string           `json:"key,omitempty"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Phases map[string]int64 `json:"phases_ns,omitempty"`
}

// writeSpans writes the traced window's op spans and the probe spans as
// JSON lines.
func writeSpans(path string, recs []opRecord, names [3]string, extra []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	buf := bufio.NewWriter(f)
	all := make([]span, 0, len(recs)+len(extra))
	for i := range recs {
		r := &recs[i]
		s := span{ID: i, Name: names[r.kind], Key: string(r.key), Start: int64(r.start), End: int64(r.end), Phases: map[string]int64{}}
		for name, d := range r.phases {
			s.Phases[name] = int64(d)
		}
		all = append(all, s)
	}
	enc := json.NewEncoder(buf)
	for _, s := range append(all, extra...) {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := buf.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
