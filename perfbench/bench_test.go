package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// Toy-scale versions of the workloads, small enough for a unit test.
func toyWorkloads() []workloadDef {
	return []workloadDef{
		simWorkload("sim-write", simWrite(24, 100, 150), 2),
		simWorkload("sim-read", simRead(24, 100, 300), 2),
		tcpWorkload("tcp-mixed", tcpShape{nodes: 4, keys: 20, clients: 2, port: 47711}, 1),
	}
}

func runToy(t *testing.T, def workloadDef, seed int64, traced bool) result {
	t.Helper()
	res, err := run(def, seed, 1, traced, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", def.name, err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", def.name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = true
	}
	return endToEnd, perLayer
}

// TestWorkloadsCompleteAtToyScale runs every workload, untraced and
// traced, and checks each prints exactly the metrics BENCHMARK.json
// declares (percentiles without ten samples beyond them are omitted).
func TestWorkloadsCompleteAtToyScale(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	percentiles := map[string]bool{"get_p99_ms": true, "put_p99_ms": true, "get_p50_ms": true, "put_p50_ms": true, "insert_p50_ms": true}
	for _, def := range toyWorkloads() {
		t.Run(def.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want := endToEnd
				if traced {
					want = perLayer
				}
				got := runToy(t, def, 3, traced).Metrics
				for name := range got {
					if !want[name] {
						t.Errorf("traced=%v: %s is not declared in BENCHMARK.json", traced, name)
					}
				}
				for name := range want {
					if _, ok := got[name]; !ok && !percentiles[name] {
						t.Errorf("traced=%v: %s is missing", traced, name)
					}
				}
			}
		})
	}
}

// TestSimDeterministic runs the simulated workloads twice with one seed:
// every count and virtual-time percentile must repeat exactly.
func TestSimDeterministic(t *testing.T) {
	wall := map[string]bool{"setup_s": true, "ops_per_s": true, "live_heap_mb": true,
		"simnet.ns_per_event": true, "runtime.allocs_per_op": true, "runtime.alloc_bytes_per_op": true,
		"runtime.gc_cpu_frac": true, "trace.overhead_frac": true}
	for _, def := range toyWorkloads()[:2] {
		t.Run(def.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				a, b := runToy(t, def, 5, traced), runToy(t, def, 5, traced)
				if a.Attempted != b.Attempted || a.Failed != b.Failed {
					t.Errorf("traced=%v: attempted/failed %d/%d then %d/%d", traced, a.Attempted, a.Failed, b.Attempted, b.Failed)
				}
				var names []string
				for name := range a.Metrics {
					if !wall[name] {
						names = append(names, name)
					}
				}
				sort.Strings(names)
				for _, name := range names {
					if a.Metrics[name] != b.Metrics[name] {
						t.Errorf("traced=%v: %s = %v then %v", traced, name, a.Metrics[name].Value, b.Metrics[name].Value)
					}
				}
				key := "msgs_per_op"
				if traced {
					key = "simnet.events_per_op"
				}
				if _, ok := a.Metrics[key]; !ok {
					t.Errorf("traced=%v: %s missing", traced, key)
				}
			}
		})
	}
}

// TestPreloadCoversGenerator pins keyName to the workload generator's
// key format: every key a timed window touches was preloaded.
func TestPreloadCoversGenerator(t *testing.T) {
	for _, def := range toyWorkloads() {
		spec := def.window(9, 1, 1)
		preloaded := map[core.Key]bool{}
		for i := 0; i < spec.Keys; i++ {
			preloaded[keyName(keyPrefix, i)] = true
		}
		gen := workload.NewGenerator(spec)
		for i := 0; i < 2000; i++ {
			if op := gen.Next(); !preloaded[op.Key] {
				t.Fatalf("%s: generator key %q was not preloaded", def.name, op.Key)
			}
		}
	}
}

// TestKeyGate checks that a key drawn while busy moves to the next free
// key, wrapping, and is free again once released.
func TestKeyGate(t *testing.T) {
	g := newKeyGate(3)
	k0, k1, k2 := keyName(keyPrefix, 0), keyName(keyPrefix, 1), keyName(keyPrefix, 2)
	if got := g.claim(k1); got != k1 {
		t.Fatalf("free key: got %s", got)
	}
	if got := g.claim(k1); got != k2 {
		t.Fatalf("busy key: got %s, want %s", got, k2)
	}
	if got := g.claim(k1); got != k0 {
		t.Fatalf("wrap: got %s, want %s", got, k0)
	}
	g.release(k1)
	if got := g.claim(k2); got != k1 {
		t.Fatalf("released key: got %s, want %s", got, k1)
	}
}
