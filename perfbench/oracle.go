package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
)

// opKind tells the oracle what an operation was.
type opKind uint8

const (
	opInsert opKind = iota // first write of a fresh key, during the preload
	opPut                  // update of an existing key
	opGet
)

func (k opKind) String() string {
	switch k {
	case opInsert:
		return "insert"
	case opPut:
		return "put"
	default:
		return "get"
	}
}

// opRecord is one operation as the client saw it. Times are on the
// workload's own clock: virtual in the simulator, wall on real nodes.
type opRecord struct {
	kind  opKind
	level dht.Level
	bound time.Duration
	key   core.Key
	start time.Duration
	end   time.Duration
	done  time.Time // wall clock at completion
	// sum hashes the payload written (puts) or returned (gets).
	sum      uint64
	ts       core.Timestamp
	floor    core.Timestamp
	floorAge time.Duration
	currency dht.Currency
	msgs     int
	probed   int
	stored   int
	phases   map[string]time.Duration // traced runs only
	err      error
}

func (r *opRecord) latency() time.Duration { return r.end - r.start }

// payloadSum fingerprints a payload so the oracle can match a read to
// the write that produced it without keeping the bytes.
func payloadSum(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// violation is one broken guarantee, printed with its key and
// timestamps.
type violation struct {
	key  core.Key
	what string
	got  core.Timestamp
	want core.Timestamp
}

func (v violation) String() string {
	return fmt.Sprintf("violation key=%s: %s (got ts=%v, want ts=%v)", v.key, v.what, v.got, v.want)
}

// verdict is the oracle's judgement of one history.
type verdict struct {
	// failed counts operations that errored or broke a guarantee, each
	// once; only the latter are violations.
	failed int
	// reads and stale count timed reads and those that returned a
	// version older than the newest write acknowledged before the read
	// began.
	reads, stale int
	violations   []violation
	errors       []string
}

// write is one acknowledged version of a key.
type write struct {
	ts  core.Timestamp
	end time.Duration
}

// keyHistory indexes one key's writes for the read checks.
type keyHistory struct {
	versions map[core.Timestamp]uint64 // every stamped version, acked or not
	acked    []write                   // acknowledged writes, by ack time
	prefix   []core.Timestamp          // prefix[i]: max ts of acked[:i+1]
}

// newestAckedBefore returns the largest timestamp of a write
// acknowledged strictly before t (zero when none).
func (h *keyHistory) newestAckedBefore(t time.Duration) core.Timestamp {
	i := sort.Search(len(h.acked), func(i int) bool { return h.acked[i].end >= t })
	if i == 0 {
		return core.TSZero
	}
	return h.prefix[i-1]
}

// check judges a history against the guarantees UMS/KTS make:
//
//   - a Current get returns verdict Proven, a timestamp at least that of
//     the last put acknowledged before it started, and that version's
//     payload;
//   - a Bounded get returns at least its floor, within its bound, and
//     nothing older than what was acknowledged a bound before it began;
//   - an Eventual get returns a version that was actually written;
//   - acknowledged puts to a key carry distinct timestamps, and a put
//     that starts after another's acknowledgement gets a larger one
//     (Theorem 2).
//
// Only records with timed set count towards reads and stale; every
// record is checked. Nothing is retried: an error is a failure.
func check(recs []opRecord, timed func(i int) bool) verdict {
	var v verdict
	hist := map[core.Key]*keyHistory{}
	get := func(k core.Key) *keyHistory {
		h := hist[k]
		if h == nil {
			h = &keyHistory{versions: map[core.Timestamp]uint64{}}
			hist[k] = h
		}
		return h
	}
	for i := range recs {
		r := &recs[i]
		if r.kind == opGet || r.ts.IsZero() {
			continue
		}
		h := get(r.key)
		h.versions[r.ts] = r.sum
		if r.err == nil {
			h.acked = append(h.acked, write{ts: r.ts, end: r.end})
		}
	}
	bad := make([]bool, len(recs))
	flag := func(i int, vi violation) {
		v.violations = append(v.violations, vi)
		bad[i] = true
	}
	for _, h := range hist {
		sort.Slice(h.acked, func(i, j int) bool { return h.acked[i].end < h.acked[j].end })
		h.prefix = make([]core.Timestamp, len(h.acked))
		var m core.Timestamp
		for i, w := range h.acked {
			m = m.Max(w.ts)
			h.prefix[i] = m
		}
	}
	// Theorem 2, per put: distinct from every other acknowledged
	// timestamp, and above everything acknowledged before it started.
	seen := map[core.Key]map[core.Timestamp]int{}
	for i := range recs {
		r := &recs[i]
		if r.kind == opGet || r.err != nil {
			continue
		}
		if seen[r.key] == nil {
			seen[r.key] = map[core.Timestamp]int{}
		}
		if prev, dup := seen[r.key][r.ts]; dup {
			flag(i, violation{r.key, fmt.Sprintf("%s reuses the timestamp of an earlier acknowledged write", r.kind), r.ts, recs[prev].ts})
		}
		seen[r.key][r.ts] = i
		if floor := hist[r.key].newestAckedBefore(r.start); !floor.Less(r.ts) {
			flag(i, violation{r.key, fmt.Sprintf("%s started after an acknowledged write but got no larger timestamp", r.kind), r.ts, floor.Next()})
		}
	}
	for i := range recs {
		r := &recs[i]
		// An error fails the operation. A get that could not prove its
		// level still returns the most recent replica it found, and that
		// replica must pass the checks below.
		unproven := r.kind == opGet && errors.Is(r.err, core.ErrNoCurrentReplica)
		if r.err != nil {
			v.errors = append(v.errors, fmt.Sprintf("error key=%s %s %s: %v", r.key, r.level, r.kind, r.err))
			bad[i] = true
			if !unproven {
				continue
			}
		}
		if r.kind != opGet {
			continue
		}
		h := hist[r.key]
		if h == nil {
			h = get(r.key)
		}
		newest := h.newestAckedBefore(r.start)
		if timed(i) {
			v.reads++
			if r.ts.Less(newest) {
				v.stale++
			}
		}
		sum, written := h.versions[r.ts]
		switch {
		case !written:
			flag(i, violation{r.key, fmt.Sprintf("%s get returned a version nobody wrote", r.level), r.ts, newest})
		case sum != r.sum:
			flag(i, violation{r.key, fmt.Sprintf("%s get returned another payload than the one written with its timestamp", r.level), r.ts, r.ts})
		}
		switch r.level {
		case dht.LevelCurrent:
			if !unproven && r.currency != dht.CurrencyProven {
				flag(i, violation{r.key, fmt.Sprintf("current get has verdict %s, not proven", r.currency), r.ts, newest})
			}
			if r.ts.Less(newest) {
				flag(i, violation{r.key, "current get is older than a write acknowledged before it began", r.ts, newest})
			}
		case dht.LevelBounded:
			if !unproven && r.ts.Less(r.floor) {
				flag(i, violation{r.key, "bounded get is below its own floor", r.ts, r.floor})
			}
			if r.currency == dht.CurrencyWithinBound && r.floorAge > r.bound {
				flag(i, violation{r.key, fmt.Sprintf("bounded get used a floor %v old, past its bound %v", r.floorAge, r.bound), r.ts, r.floor})
			}
			if want := h.newestAckedBefore(r.start - r.bound); r.ts.Less(want) {
				flag(i, violation{r.key, "bounded get is older than a write acknowledged a bound before it began", r.ts, want})
			}
			if r.currency == dht.CurrencyProven && r.ts.Less(newest) {
				flag(i, violation{r.key, "bounded get proven current is older than a write acknowledged before it began", r.ts, newest})
			}
		}
	}
	for _, b := range bad {
		if b {
			v.failed++
		}
	}
	return v
}
