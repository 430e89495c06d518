// Command perfbench is the repository benchmark: it runs one named
// workload against the program through its packages' public functions,
// checks every operation with a currency oracle, and prints the
// workload's metrics as one JSON object on the last line of standard
// output.
//
//	perfbench --workload sim-write --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the same seed with per-op tracing and prints the per-layer
// metrics. Sample counts, oracle violations and notes go to standard
// error. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// workloads are the benchmark's named workloads at full scale.
func workloads() map[string]workloadDef {
	return map[string]workloadDef{
		"sim-write": simWorkload("sim-write", simWrite(200, 1000, 810), 3),
		"sim-read":  simWorkload("sim-read", simRead(200, 1000, 4000), 3),
		"tcp-mixed": tcpWorkload("tcp-mixed", tcpShape{nodes: 16, keys: 200, clients: 4, port: 47611}, 3),
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(names(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 45, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs with per-op tracing and prints the per-layer metrics")
	dir := flag.String("dir", ".bench_build/perfbench", "directory for data, spans and probes")
	flag.Parse()
	def, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(names(), ", "))
		os.Exit(2)
	}
	res, err := run(def, *seed, *seconds, *trace == 1, *dir, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func names() []string {
	var out []string
	for n := range workloads() {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
