package store

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func item(rid uint64, qual, data string, ts uint64) Item {
	return Item{RingID: core.ID(rid), Qual: qual, Val: core.Value{Data: []byte(data), TS: core.TS(ts)}}
}

// openT opens a WAL or fails the test.
func openT(t *testing.T, dir string, opt WALOptions) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", dir, err)
	}
	return w
}

func TestWALEmptyLogReplay(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	if rec := w.Recovered(); rec.Items != 0 || rec.Counters != 0 || rec.Records != 0 || rec.TornTail {
		t.Fatalf("fresh dir recovered %+v, want all zero", rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-open the now header-only log: still empty, still clean.
	w = openT(t, dir, WALOptions{})
	defer w.Close()
	if rec := w.Recovered(); rec.Items != 0 || rec.Counters != 0 || rec.TornTail {
		t.Fatalf("empty log recovered %+v, want all zero", rec)
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	if err := w.PutItem(item(7, "ums|k|h1", "v1", 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.PutItem(item(9, "ums|k|h2", "v2", 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.DeleteItem(9, "ums|k|h2"); err != nil {
		t.Fatal(err)
	}
	if err := w.PutCounter("k", core.TS(4)); err != nil {
		t.Fatal(err)
	}
	if err := w.PutCounter("gone", core.TS(9)); err != nil {
		t.Fatal(err)
	}
	if err := w.DeleteCounter("gone"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w = openT(t, dir, WALOptions{})
	defer w.Close()
	rec := w.Recovered()
	if rec.Items != 1 || rec.Counters != 1 || rec.Records != 6 {
		t.Fatalf("recovered %+v, want 1 item, 1 counter, 6 records", rec)
	}
	v, ok := w.GetItem(7, "ums|k|h1")
	if !ok || string(v.Data) != "v1" || v.TS != core.TS(3) {
		t.Fatalf("item = %v %v", v, ok)
	}
	if _, ok := w.GetItem(9, "ums|k|h2"); ok {
		t.Fatal("deleted item resurrected")
	}
	cs := w.Counters()
	if len(cs) != 1 || cs[0].Key != "k" || cs[0].TS != core.TS(4) {
		t.Fatalf("counters = %v", cs)
	}
}

func TestWALTornFinalRecordTolerated(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	for i := uint64(1); i <= 5; i++ {
		if err := w.PutCounter("k", core.TS(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop a few bytes off the file's tail, the
	// way a crash mid-append does.
	path := filepath.Join(dir, walName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	w = openT(t, dir, WALOptions{})
	rec := w.Recovered()
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if rec.Records != 4 || rec.Counters != 1 {
		t.Fatalf("recovered %+v, want the 4 intact records", rec)
	}
	if cs := w.Counters(); len(cs) != 1 || cs[0].TS != core.TS(4) {
		t.Fatalf("counter after torn tail = %v, want ts(4)", cs)
	}
	// The torn bytes must be gone: appending and re-opening replays clean.
	if err := w.PutCounter("k", core.TS(6)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = openT(t, dir, WALOptions{})
	defer w.Close()
	if rec := w.Recovered(); rec.TornTail || rec.Records != 5 {
		t.Fatalf("after truncate+append recovered %+v", rec)
	}
	if cs := w.Counters(); len(cs) != 1 || cs[0].TS != core.TS(6) {
		t.Fatalf("counter = %v, want ts(6)", cs)
	}
}

func TestWALMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	for i := uint64(1); i <= 8; i++ {
		if err := w.PutCounter("k", core.TS(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in an early record: the CRC fails with valid
	// data after it — real corruption, not a torn tail.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(walMagicStr) + frameOverhead + 2 // inside record 0's payload
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenWAL(dir, WALOptions{})
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("mid-log corruption: err = %v, want ErrCorruptLog", err)
	}
	if !errors.Is(err, ErrStore) {
		t.Fatalf("corruption must also classify as ErrStore, got %v", err)
	}
}

func TestWALSnapshotPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	if err := w.PutItem(item(1, "ums|a|h1", "old", 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.PutItem(item(2, "ums|b|h1", "keep", 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.PutCounter("a", core.TS(1)); err != nil {
		t.Fatal(err)
	}
	// Snapshot, then write a tail the snapshot does not contain.
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.PutItem(item(1, "ums|a|h1", "new", 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.PutCounter("a", core.TS(5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w = openT(t, dir, WALOptions{})
	defer w.Close()
	rec := w.Recovered()
	if rec.Items != 2 || rec.Counters != 1 {
		t.Fatalf("recovered %+v, want 2 items + 1 counter", rec)
	}
	if rec.Records != 2 {
		t.Fatalf("recovered %d log records, want only the 2 post-snapshot ones", rec.Records)
	}
	if v, ok := w.GetItem(1, "ums|a|h1"); !ok || string(v.Data) != "new" || v.TS != core.TS(5) {
		t.Fatalf("tail must override snapshot: %v %v", v, ok)
	}
	if v, ok := w.GetItem(2, "ums|b|h1"); !ok || string(v.Data) != "keep" {
		t.Fatalf("snapshot item lost: %v %v", v, ok)
	}
	if cs := w.Counters(); len(cs) != 1 || cs[0].TS != core.TS(5) {
		t.Fatalf("counter = %v, want ts(5)", cs)
	}
}

func TestWALAutoCompactionKeepsState(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{CompactEvery: 16})
	for i := uint64(1); i <= 100; i++ {
		if err := w.PutCounter("k", core.TS(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.PutItem(item(3, "ums|k|h1", "v", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot after 200 records with CompactEvery=16: %v", err)
	}
	w = openT(t, dir, WALOptions{CompactEvery: 16})
	defer w.Close()
	if cs := w.Counters(); len(cs) != 1 || cs[0].TS != core.TS(100) {
		t.Fatalf("counter = %v, want ts(100)", cs)
	}
	if v, ok := w.GetItem(3, "ums|k|h1"); !ok || v.TS != core.TS(100) {
		t.Fatalf("item = %v %v, want ts(100)", v, ok)
	}
}

func TestWALCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	if err := w.PutCounter("k", core.TS(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, WALOptions{}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("corrupt snapshot: err = %v, want ErrCorruptLog", err)
	}
}

func TestWALBadDataDir(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "actually-a-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenWAL(file, WALOptions{})
	if !errors.Is(err, ErrStore) {
		t.Fatalf("bad data dir: err = %v, want ErrStore", err)
	}
	if errors.Is(err, ErrCorruptLog) {
		t.Fatalf("an unusable dir is not log corruption: %v", err)
	}
}

// TestWALCounterMonotonicityAcrossTwoRestarts drives concurrent counter
// appends (run under -race), crashes, recovers, repeats — after each
// recovery the counter must be at least the highest value generated
// before the crash, so a responsible re-seeded from the store can never
// re-issue a timestamp. SyncAlways makes every append stable, so "at
// least" tightens to "exactly".
func TestWALCounterMonotonicityAcrossTwoRestarts(t *testing.T) {
	dir := t.TempDir()
	high := core.TSZero
	for restart := 0; restart < 2; restart++ {
		w := openT(t, dir, WALOptions{Policy: SyncAlways})
		if cs := w.Counters(); restart > 0 {
			if len(cs) != 1 || cs[0].TS.Less(high) {
				t.Fatalf("restart %d: recovered %v, want >= %v", restart, cs, high)
			}
			high = cs[0].TS
		}
		// Concurrent generators: each bumps the shared counter past the
		// other's last write, like racing gen_ts handlers.
		var mu sync.Mutex
		next := high
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					// PutCounter runs under the mutex too: generating
					// and persisting a timestamp is one step, as in a
					// gen_ts handler, so a smaller timestamp can never
					// land after a larger one.
					mu.Lock()
					next = next.Next()
					err := w.PutCounter("k", next)
					mu.Unlock()
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		high = next
		w.Crash() // no graceful flush: SyncAlways must have persisted everything
	}
	w := openT(t, dir, WALOptions{})
	defer w.Close()
	cs := w.Counters()
	if len(cs) != 1 || cs[0].TS.Less(high) {
		t.Fatalf("after two crash-restarts: %v, want >= %v", cs, high)
	}
}

// TestWALCrashDropsUnsyncedBatch shows the SyncBatch trade-off: records
// buffered past the last sync die with the process, while the synced
// prefix survives.
func TestWALCrashDropsUnsyncedBatch(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{Policy: SyncBatch, BatchInterval: time.Hour})
	if err := w.PutCounter("k", core.TS(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.PutCounter("k", core.TS(2)); err != nil {
		t.Fatal(err)
	}
	w.Crash()

	w = openT(t, dir, WALOptions{})
	defer w.Close()
	cs := w.Counters()
	if len(cs) != 1 || cs[0].TS != core.TS(1) {
		t.Fatalf("recovered %v, want only the synced ts(1)", cs)
	}
}

func TestDepotSurvivesCrashAndResumes(t *testing.T) {
	d := NewDepot()
	s := d.Open("peer0")
	if err := s.PutItem(item(7, "ums|k|h1", "v", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCounter("k", core.TS(3)); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if _, ok := s.GetItem(7, "ums|k|h1"); ok {
		t.Fatal("crashed handle still serves reads")
	}
	if err := s.PutCounter("k", core.TS(9)); err != nil {
		t.Fatal(err)
	}

	if !d.Has("peer0") {
		t.Fatal("depot forgot the crashed peer's slot")
	}
	r := d.Open("peer0")
	if v, ok := r.GetItem(7, "ums|k|h1"); !ok || string(v.Data) != "v" {
		t.Fatalf("restart-with-state item = %v %v", v, ok)
	}
	if cs := r.Counters(); len(cs) != 1 || cs[0].TS != core.TS(3) {
		t.Fatalf("restart counters = %v (the post-crash write must not have landed)", cs)
	}
	d.Drop("peer0")
	if d.Has("peer0") {
		t.Fatal("dropped slot still present")
	}
	if f := d.Open("peer0"); f.ItemCount() != 0 {
		t.Fatal("dropped slot not empty on re-open")
	}
}

func TestMemCrashLosesEverything(t *testing.T) {
	m := NewMem()
	if err := m.PutItem(item(1, "q", "v", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.PutCounter("k", core.TS(1)); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if m.ItemCount() != 0 || len(m.Counters()) != 0 {
		t.Fatal("Mem.Crash must lose everything")
	}
}
