package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
)

// history builds a small clean history of key k: an insert at ts 1 and
// an update at ts 2, both acknowledged, with their payload sums.
func history(k core.Key) []opRecord {
	return []opRecord{
		{kind: opInsert, key: k, start: 0, end: 10, ts: core.TS(1), sum: 11},
		{kind: opPut, key: k, start: 20, end: 30, ts: core.TS(2), sum: 22},
	}
}

func all(int) bool { return true }

func TestOracleAcceptsCleanHistory(t *testing.T) {
	recs := append(history("k"),
		opRecord{kind: opGet, key: "k", level: dht.LevelCurrent, start: 40, end: 50, ts: core.TS(2), sum: 22, currency: dht.CurrencyProven},
		// A get overlapping the update may return either version.
		opRecord{kind: opGet, key: "k", level: dht.LevelCurrent, start: 25, end: 35, ts: core.TS(1), sum: 11, currency: dht.CurrencyProven},
		opRecord{kind: opGet, key: "k", level: dht.LevelEventual, start: 40, end: 50, ts: core.TS(1), sum: 11},
		opRecord{kind: opGet, key: "k", level: dht.LevelBounded, bound: 15, start: 40, end: 50, ts: core.TS(1), sum: 11,
			floor: core.TS(1), floorAge: 12, currency: dht.CurrencyWithinBound},
	)
	v := check(recs, all)
	if v.failed != 0 || len(v.violations) != 0 {
		t.Fatalf("clean history flagged: %+v", v)
	}
	if v.reads != 4 || v.stale != 2 {
		t.Fatalf("reads=%d stale=%d, want 4 and 2 (the eventual and bounded reads of ts 1)", v.reads, v.stale)
	}
}

func TestOracleFlagsInjectedFaults(t *testing.T) {
	cases := []struct {
		name string
		bad  opRecord
		want string
	}{
		{"stale current get",
			opRecord{kind: opGet, key: "k", level: dht.LevelCurrent, start: 40, end: 50, ts: core.TS(1), sum: 11, currency: dht.CurrencyProven},
			"older than a write acknowledged"},
		{"current get without proof",
			opRecord{kind: opGet, key: "k", level: dht.LevelCurrent, start: 40, end: 50, ts: core.TS(2), sum: 22, currency: dht.CurrencyUnknown},
			"not proven"},
		{"wrong payload",
			opRecord{kind: opGet, key: "k", level: dht.LevelEventual, start: 40, end: 50, ts: core.TS(2), sum: 99},
			"another payload"},
		{"unwritten version",
			opRecord{kind: opGet, key: "k", level: dht.LevelEventual, start: 40, end: 50, ts: core.TS(7), sum: 77},
			"nobody wrote"},
		{"bounded get below its floor",
			opRecord{kind: opGet, key: "k", level: dht.LevelBounded, bound: 100, start: 40, end: 50, ts: core.TS(1), sum: 11,
				floor: core.TS(2), currency: dht.CurrencyWithinBound},
			"below its own floor"},
		{"bounded get past its bound",
			opRecord{kind: opGet, key: "k", level: dht.LevelBounded, bound: 5, start: 33, end: 50, ts: core.TS(2), sum: 22,
				floor: core.TS(2), floorAge: 6, currency: dht.CurrencyWithinBound},
			"past its bound"},
		{"bounded get older than the bound allows",
			opRecord{kind: opGet, key: "k", level: dht.LevelBounded, bound: 5, start: 40, end: 50, ts: core.TS(1), sum: 11,
				floor: core.TS(1), currency: dht.CurrencyWithinBound},
			"a bound before it began"},
		{"low timestamp after an acknowledged put",
			opRecord{kind: opPut, key: "k", start: 40, end: 50, ts: core.TS(2), sum: 33},
			"no larger timestamp"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := check(append(history("k"), c.bad), all)
			if v.failed != 1 || len(v.violations) == 0 {
				t.Fatalf("failed=%d violations=%v, want the injected record flagged", v.failed, v.violations)
			}
			for _, vi := range v.violations {
				if got := vi.String(); strings.Contains(got, c.want) && strings.Contains(got, "key=k") {
					return
				}
			}
			t.Fatalf("no violation names %q and the key: %v", c.want, v.violations)
		})
	}
}

func TestOracleCountsErrorsAndChecksUnprovenReads(t *testing.T) {
	unproven := fmt.Errorf("retrieve: %w", core.ErrNoCurrentReplica)
	recs := append(history("k"),
		// Could not prove currency but returned the acknowledged version:
		// a failed operation, not a violation.
		opRecord{kind: opGet, key: "k", level: dht.LevelCurrent, start: 40, end: 50, ts: core.TS(2), sum: 22, err: unproven},
		// Could not prove currency and returned an older version: both.
		opRecord{kind: opGet, key: "k", level: dht.LevelCurrent, start: 41, end: 50, ts: core.TS(1), sum: 11, err: unproven},
		// A bounded get that could not reach its floor returns what it
		// found below it.
		opRecord{kind: opGet, key: "k", level: dht.LevelBounded, bound: 100, start: 40, end: 50, ts: core.TS(1), sum: 11,
			floor: core.TS(2), err: unproven},
		opRecord{kind: opGet, key: "k", start: 42, end: 50, err: core.ErrTimeout},
	)
	v := check(recs, all)
	if v.failed != 4 || len(v.errors) != 4 || len(v.violations) != 1 {
		t.Fatalf("failed=%d errors=%d violations=%v, want 4, 4 and one", v.failed, len(v.errors), v.violations)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	ds := make([]time.Duration, 1009)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	v, beyond, ok := percentile(millis(ds), 0.99)
	if !ok || beyond != 10 || v != 999 {
		t.Fatalf("p99 of 1..1009 = %v beyond=%d ok=%v, want 999 with 10 beyond", v, beyond, ok)
	}
	if _, _, ok := percentile(millis(ds[:999]), 0.99); ok {
		t.Fatal("p99 of 999 samples has fewer than ten beyond it but was reported")
	}
}

func TestInterquartileMean(t *testing.T) {
	if got := interquartileMean([]float64{100, 2, 1, 4, 3}); got != 3 {
		t.Fatalf("interquartile mean of 1..4 and 100 = %v, want 3 (the outer quarter dropped)", got)
	}
	if got := interquartileMean([]float64{7}); got != 7 {
		t.Fatalf("interquartile mean of one value = %v, want it", got)
	}
}
