package main

import (
	"runtime"
	"runtime/metrics"

	"repro/internal/obs"
)

// Registry families the per-layer metrics read. Counters are summed over
// every registry of a deployment; for histograms the snapshot keeps the
// sample count and sum.
const (
	famChordLookups   = "dcdht_chord_lookups_total"
	famChordFailures  = "dcdht_chord_lookup_failures_total"
	famChordHops      = "dcdht_chord_lookup_hops"
	famKTSGenTS       = "dcdht_kts_gents_requests_total"
	famKTSLastTS      = "dcdht_kts_lastts_requests_total"
	famKTSCacheHits   = "dcdht_kts_cache_hits_total"
	famKTSCacheMisses = "dcdht_kts_cache_misses_total"
	famKTSIndirect    = "dcdht_kts_indirect_inits_total"
	famNetCalls       = "dcdht_net_calls_total"
	famNetDials       = "dcdht_net_dials_total"
	famNetAborts      = "dcdht_net_call_aborts_total"
	famWALAppends     = "dcdht_store_wal_appends_total"
	famWALFsyncs      = "dcdht_store_wal_fsyncs_total"
)

// runtime/metrics samples the runtime layer reads.
var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// snap is the state of every counter the benchmark reads at one instant;
// per-layer metrics are deltas between two snaps.
type snap struct {
	events  uint64 // simnet kernel events (simulator only)
	carried uint64 // simwire messages carried (simulator only)
	reg     map[string]float64
	rt      [4]float64 // runtimeSamples, in order
}

// takeSnap reads the registries, the runtime and the simulator counters
// (events and carried are zero on real nodes).
func takeSnap(regs []*obs.Registry, events, carried uint64) snap {
	s := snap{events: events, carried: carried, reg: map[string]float64{}}
	for _, r := range regs {
		for _, f := range r.Snapshot().Families {
			for _, se := range f.Series {
				if se.Hist != nil {
					s.reg[f.Name+":count"] += float64(se.Hist.Count)
					s.reg[f.Name+":sum"] += se.Hist.Sum
					continue
				}
				s.reg[f.Name] += se.Value
			}
		}
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for i, sm := range samples {
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			s.rt[i] = float64(sm.Value.Uint64())
		case metrics.KindFloat64:
			s.rt[i] = sm.Value.Float64()
		}
	}
	return s
}

// delta is the change of a counter between two snaps.
func (s snap) delta(before snap, name string) float64 { return s.reg[name] - before.reg[name] }

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
