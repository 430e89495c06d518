package network

import (
	"context"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
)

// RealEnv implements Env on the wall clock with ordinary goroutines. It
// backs the TCP deployment (the paper's cluster experiments).
type RealEnv struct {
	start time.Time
	seed  int64

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// NewRealEnv returns an Env bound to the wall clock. The seed makes the
// Rand streams reproducible; pass 0 to derive one from the clock.
func NewRealEnv(seed int64) *RealEnv {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &RealEnv{start: time.Now(), seed: seed, done: make(chan struct{})}
}

// Now implements Env.
func (e *RealEnv) Now() time.Duration { return time.Since(e.start) }

// Sleep implements Env; it wakes early with core.ErrStopped if the
// environment is closed.
func (e *RealEnv) Sleep(d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-e.done:
		return core.ErrStopped
	}
}

// Go implements Env.
func (e *RealEnv) Go(fn func()) { go fn() }

// After implements Env.
func (e *RealEnv) After(d time.Duration, fn func()) Canceler {
	return &realTimer{t: time.AfterFunc(d, fn)}
}

// Rand implements Env.
func (e *RealEnv) Rand(label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
}

// NewEvent implements Env with a channel that Fire closes.
func (e *RealEnv) NewEvent() Event {
	return &realEvent{fired: make(chan struct{}), stopped: e.done}
}

// Close releases sleepers and event waiters. Safe to call more than
// once.
func (e *RealEnv) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.done)
	}
}

type realTimer struct{ t *time.Timer }

// realEvent is the wall-clock Event: a channel closed once by Fire.
type realEvent struct {
	once    sync.Once
	fired   chan struct{}
	stopped <-chan struct{} // the environment's done channel
}

func (e *realEvent) Fire() { e.once.Do(func() { close(e.fired) }) }

func (e *realEvent) Wait() error { return e.waitCtx(context.Background()) }

// waitCtx waits for Fire, the environment's Close or ctx, whichever
// comes first; a fired event wins over a concurrent Close.
func (e *realEvent) waitCtx(ctx context.Context) error {
	select {
	case <-e.fired:
		return nil
	default:
	}
	select {
	case <-e.fired:
		return nil
	case <-e.stopped:
		return core.ErrStopped
	case <-ctx.Done():
		return CtxError(ctx)
	}
}

func (r *realTimer) Cancel() bool { return r.t.Stop() }

var (
	gobMu         sync.Mutex
	gobRegistered = map[string]bool{}
)

// RegisterMessage registers message types with encoding/gob for the TCP
// transport. It is idempotent per concrete type and safe to call from
// init functions in several packages.
func RegisterMessage(values ...Message) {
	gobMu.Lock()
	defer gobMu.Unlock()
	for _, v := range values {
		name := fmt.Sprintf("%T", v)
		if gobRegistered[name] {
			continue
		}
		gobRegistered[name] = true
		gob.Register(v)
	}
}
