// Package simnet is a deterministic discrete-event simulation kernel in
// the style of SimJava, which the paper used for its scale-up study
// (§5.1). Simulated activities ("processes") are ordinary goroutines that
// block on virtual time — Sleep, Future.Await, Event.Wait, RPC round
// trips — while the kernel advances a virtual clock through a totally
// ordered event queue.
//
// Determinism. The kernel runs at most one process at any real-time
// instant: an event is dispatched only when every process is blocked, and
// each event wakes at most one process. Together with seeded RNG streams
// this makes whole simulations bit-reproducible, which the tests assert.
// It also means protocol code needs no locking when run under simnet,
// although it keeps its locks so the same code runs on real transports.
//
// Scale. The event queue is sharded: events hash over a small set of
// per-shard binary heaps by sequence number, and a merge layer picks the
// global (at, seq) minimum by scanning the shard heads. Orderings are
// identical to a single heap — (at, seq) is a total order — but each
// sift touches a heap 1/numShards the size. Events are recycled through
// a free list and wake-up channels through sync.Pools, so the hot
// schedule/fire path allocates nothing in steady state (pinned by
// TestKernelScheduleFireAllocs). The docs/PERFORMANCE.md trajectory
// tracks the resulting events/sec at 1k/10k/100k simulated peers.
package simnet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
)

// numShards is the event-queue fan-out. A power of two so the shard of a
// sequence number is a mask, small enough that scanning every shard head
// is a handful of compares.
const numShards = 8

// eventKind discriminates what dispatching an event does. Keeping the
// behaviour in the kernel (instead of a per-event closure) is what lets
// events be pooled and dispatched without allocation.
type eventKind uint8

const (
	// kindGo starts a process that was counted at schedule time.
	kindGo eventKind = iota
	// kindProc starts a process counted at fire time (After/AfterProc).
	kindProc
	// kindCall runs a plain callback inline on the kernel loop — no
	// process, no goroutine. The callback must not block in virtual
	// time.
	kindCall
	// kindSleep wakes a process blocked in Sleep.
	kindSleep
	// kindResolve wakes a process blocked in Future.Await with the value.
	kindResolve
	// kindTimeout wakes a process blocked in Future.Await with
	// core.ErrTimeout.
	kindTimeout
)

// event is one entry in the kernel's queue. Events are ordered by
// (at, seq) so simultaneous events run in schedule order.
type event struct {
	at   time.Duration
	seq  uint64
	kind eventKind
	fn   func()        // kindGo, kindProc (closure form)
	cfn  func(any)     // kindCall, kindProc (arg form)
	arg  any           // cfn's argument
	ch   chan struct{} // kindSleep wake-up
	f    *Future       // kindResolve / kindTimeout
	w    chan awaitResult
	t    *Timer // kindProc cancel guard; nil for AfterProc
	// index is the event's position in its shard heap; -1 once popped
	// or removed.
	index int32
	shard int32
}

// less orders events by (at, seq) — the same total order a single heap
// would impose.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Kernel is the simulation engine. Create one with New, spawn processes
// with Go, then drive it with Run / RunUntilIdle.
type Kernel struct {
	mu       sync.Mutex
	cond     *sync.Cond
	now      time.Duration
	seq      uint64
	shards   [numShards][]*event
	queued   int      // total events across shards
	free     []*event // recycled events
	runnable int      // processes currently executing user code
	procs    int      // live processes (running or blocked)
	stopped  bool
	stopCh   chan struct{}
	seed     int64
	events   uint64 // dispatched events, for diagnostics
}

// New creates a kernel whose RNG streams derive from seed.
func New(seed int64) *Kernel {
	k := &Kernel{stopCh: make(chan struct{}), seed: seed}
	k.cond = sync.NewCond(&k.mu)
	return k
}

// Now returns the current virtual time. Safe from any goroutine.
func (k *Kernel) Now() time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// Events returns the number of events dispatched so far.
func (k *Kernel) Events() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.events
}

// QueueLen returns the number of events currently scheduled.
func (k *Kernel) QueueLen() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.queued
}

// LiveProcs returns the number of processes that exist (running or
// blocked). Useful for detecting leaks in tests.
func (k *Kernel) LiveProcs() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.procs
}

// NewRand derives an independent, deterministic RNG stream for a named
// component (e.g. "churn", "latency", "node:17").
func (k *Kernel) NewRand(label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", k.seed, label)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// alloc takes an event off the free list; caller must hold k.mu.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a dispatched or removed event to the free list,
// dropping every reference it held; caller must hold k.mu.
func (k *Kernel) recycle(ev *event) {
	ev.fn, ev.cfn, ev.arg = nil, nil, nil
	ev.ch, ev.f, ev.w, ev.t = nil, nil, nil, nil
	ev.index = -1
	k.free = append(k.free, ev)
}

// push enqueues an event of the given kind; caller must hold k.mu and
// fill the kind's payload fields on the returned event.
func (k *Kernel) push(at time.Duration, kind eventKind) *event {
	if at < k.now {
		at = k.now
	}
	ev := k.alloc()
	ev.at, ev.seq, ev.kind = at, k.seq, kind
	k.seq++
	s := int32(ev.seq & (numShards - 1))
	ev.shard = s
	ev.index = int32(len(k.shards[s]))
	k.shards[s] = append(k.shards[s], ev)
	k.siftUp(s, ev.index)
	k.queued++
	return ev
}

// siftUp restores the heap property of shard s upward from index i;
// caller must hold k.mu.
func (k *Kernel) siftUp(s, i int32) {
	h := k.shards[s]
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// siftDown restores the heap property of shard s downward from index i;
// caller must hold k.mu.
func (k *Kernel) siftDown(s, i int32) {
	h := k.shards[s]
	n := int32(len(h))
	ev := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
}

// peekMin scans the shard heads for the globally next event (the merge
// layer); caller must hold k.mu. Returns nil when no event is queued.
func (k *Kernel) peekMin() *event {
	var best *event
	for s := 0; s < numShards; s++ {
		h := k.shards[s]
		if len(h) == 0 {
			continue
		}
		if best == nil || less(h[0], best) {
			best = h[0]
		}
	}
	return best
}

// pop detaches the head event ev from its shard; caller must hold k.mu
// and have found ev via peekMin. The event is NOT recycled — the caller
// dispatches it first.
func (k *Kernel) pop(ev *event) {
	s := ev.shard
	h := k.shards[s]
	n := int32(len(h)) - 1
	if n > 0 {
		h[0] = h[n]
		h[0].index = 0
	}
	h[n] = nil
	k.shards[s] = h[:n]
	if n > 1 {
		k.siftDown(s, 0)
	}
	k.queued--
	ev.index = -1
}

// remove deletes a queued event and recycles it; caller must hold k.mu.
// Removing an already-popped event is a no-op.
func (k *Kernel) remove(ev *event) {
	s := ev.shard
	i := ev.index
	h := k.shards[s]
	if i < 0 || int(i) >= len(h) || h[i] != ev {
		return
	}
	n := int32(len(h)) - 1
	if i != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	k.shards[s] = h[:n]
	if i < n {
		// The swapped-in element may need to move either way.
		moved := k.shards[s][i]
		k.siftDown(s, i)
		if moved.index == i {
			k.siftUp(s, i)
		}
	}
	k.queued--
	k.recycle(ev)
}

// Go spawns a process at the current virtual time. fn runs on its own
// goroutine but is serialized with every other process by the kernel. May
// be called from inside or outside the simulation.
func (k *Kernel) Go(fn func()) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.stopped {
		return
	}
	k.procs++
	k.push(k.now, kindGo).fn = fn
}

// exitProc retires a finished process.
func (k *Kernel) exitProc() {
	k.mu.Lock()
	k.runnable--
	k.procs--
	k.cond.Signal()
	k.mu.Unlock()
}

// sleepChPool recycles Sleep wake-up channels. A channel is returned to
// the pool only after its wake-up was cleanly received; the stop path
// abandons the channel instead (a send may still sit in its buffer).
var sleepChPool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// Sleep blocks the calling process for d of virtual time. Must be called
// from a process goroutine. Returns core.ErrStopped if the kernel is shut
// down while sleeping.
func (k *Kernel) Sleep(d time.Duration) error {
	ch := sleepChPool.Get().(chan struct{})
	k.mu.Lock()
	if k.stopped {
		k.mu.Unlock()
		sleepChPool.Put(ch)
		return core.ErrStopped
	}
	k.push(k.now+d, kindSleep).ch = ch
	k.block()
	k.mu.Unlock()
	select {
	case <-ch:
		sleepChPool.Put(ch)
		return nil
	case <-k.stopCh:
		return core.ErrStopped
	}
}

// block marks the calling process as no longer runnable; caller must hold
// k.mu.
func (k *Kernel) block() {
	k.runnable--
	k.cond.Signal()
}

// After schedules fn to run as a new process after delay d. The returned
// Timer can cancel it before it fires.
func (k *Kernel) After(d time.Duration, fn func()) *Timer {
	t := &Timer{k: k}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.stopped {
		t.fired = true
		return t
	}
	ev := k.push(k.now+d, kindProc)
	ev.fn = fn
	ev.t = t
	t.ev = ev
	return t
}

// AfterProc schedules fn(arg) to run as a new process after delay d,
// like After but without a cancel handle and without a per-call closure —
// the allocation-free form for fire-and-forget deliveries whose handler
// may block in virtual time.
func (k *Kernel) AfterProc(d time.Duration, fn func(any), arg any) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.stopped {
		return
	}
	ev := k.push(k.now+d, kindProc)
	ev.cfn = fn
	ev.arg = arg
}

// AfterCall schedules fn(arg) to run inline on the kernel loop after
// delay d: no process, no goroutine, no cancel handle. fn must not block
// in virtual time (no Sleep/Await) — it may schedule further events,
// resolve futures and spawn processes. This is the cheapest way to act
// at a future instant and the backbone of the simulated wire.
func (k *Kernel) AfterCall(d time.Duration, fn func(any), arg any) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.stopped {
		return
	}
	ev := k.push(k.now+d, kindCall)
	ev.cfn = fn
	ev.arg = arg
}

// Timer is a cancellable delayed process handle.
type Timer struct {
	k        *Kernel
	ev       *event
	canceled bool
	fired    bool
}

// Cancel prevents the timer from firing. Returns true if it was stopped
// before firing.
func (t *Timer) Cancel() bool {
	t.k.mu.Lock()
	defer t.k.mu.Unlock()
	if t.fired || t.canceled {
		return false
	}
	t.canceled = true
	if t.ev != nil {
		t.k.remove(t.ev)
		t.ev = nil
	}
	return true
}

// Run advances virtual time, dispatching events until the queue is empty
// or the next event lies beyond `until`. On return every process is
// blocked (or exited) and now == until exactly, so repeated Run calls
// step the clock through fixed horizons. It reports the number of events
// dispatched by this call.
func (k *Kernel) Run(until time.Duration) int {
	return k.run(until, true)
}

// RunUntilIdle dispatches events until none remain, leaving the clock at
// the time of the last event. It reports the number of events dispatched.
func (k *Kernel) RunUntilIdle() int {
	return k.run(time.Duration(1<<62-1), false)
}

func (k *Kernel) run(until time.Duration, clamp bool) int {
	dispatched := 0
	k.mu.Lock()
	for !k.stopped {
		for k.runnable > 0 && !k.stopped {
			k.cond.Wait()
		}
		if k.stopped {
			break
		}
		next := k.peekMin()
		if next == nil {
			if clamp && k.now < until {
				k.now = until
			}
			break
		}
		if next.at > until {
			if clamp {
				k.now = until
			}
			break
		}
		k.pop(next)
		if next.at > k.now {
			k.now = next.at
		}
		k.events++
		dispatched++
		k.dispatch(next)
		if k.stopped {
			break
		}
		k.recycle(next)
	}
	k.mu.Unlock()
	return dispatched
}

// dispatch performs a popped event's action; caller holds k.mu (released
// around kindCall callbacks). Wake-up sends go to buffered channels with
// at most one outstanding send each, so sending under the lock cannot
// block.
func (k *Kernel) dispatch(ev *event) {
	switch ev.kind {
	case kindGo:
		fn := ev.fn
		k.runnable++
		go func() {
			defer k.exitProc()
			fn()
		}()
	case kindProc:
		if t := ev.t; t != nil {
			if t.canceled {
				return
			}
			t.fired = true
			t.ev = nil
		}
		k.procs++
		k.runnable++
		if ev.cfn != nil {
			cfn, arg := ev.cfn, ev.arg
			go func() {
				defer k.exitProc()
				cfn(arg)
			}()
		} else {
			fn := ev.fn
			go func() {
				defer k.exitProc()
				fn()
			}()
		}
	case kindCall:
		cfn, arg := ev.cfn, ev.arg
		k.mu.Unlock()
		cfn(arg)
		k.mu.Lock()
	case kindSleep:
		k.runnable++
		ev.ch <- struct{}{}
	case kindResolve:
		f := ev.f
		if f.delivered {
			return
		}
		f.delivered = true
		k.runnable++
		ev.w <- awaitResult{val: f.val}
	case kindTimeout:
		f := ev.f
		if f.delivered {
			return
		}
		f.delivered = true
		k.runnable++
		ev.w <- awaitResult{err: core.ErrTimeout}
	}
}

// Stop shuts the kernel down: queued events are discarded and blocked
// processes are released with core.ErrStopped.
func (k *Kernel) Stop() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.stopped {
		return
	}
	k.stopped = true
	for s := range k.shards {
		k.shards[s] = nil
	}
	k.queued = 0
	k.free = nil
	close(k.stopCh)
	k.cond.Broadcast()
}

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.stopped
}
