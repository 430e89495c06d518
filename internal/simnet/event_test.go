package simnet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestEventFireWakesWaitersFIFO parks waiters that arrive at different
// instants and fires once: every waiter wakes at the exact virtual
// instant of the Fire, in arrival order, and a Wait after the Fire
// returns at once. A second Fire is a no-op.
func TestEventFireWakesWaitersFIFO(t *testing.T) {
	k := New(1)
	ev := k.NewEvent()
	var woke []string
	// Arrivals are 5, 2, 9 and 2 ms in: FIFO means w1, w3 (same instant
	// as w1, scheduled later), w0, w2 — not the spawn order.
	for i, at := range []time.Duration{5, 2, 9, 2} {
		name := fmt.Sprintf("w%d", i)
		k.Go(func() {
			if err := k.Sleep(at * time.Millisecond); err != nil {
				t.Errorf("%s sleep: %v", name, err)
				return
			}
			if err := ev.Wait(); err != nil {
				t.Errorf("%s wait: %v", name, err)
				return
			}
			woke = append(woke, fmt.Sprintf("%s@%v", name, k.Now()))
		})
	}
	k.Go(func() {
		k.Sleep(37*time.Millisecond + 250*time.Microsecond)
		ev.Fire()
		ev.Fire()
	})
	k.RunUntilIdle()
	want := "w1@37.25ms,w3@37.25ms,w0@37.25ms,w2@37.25ms"
	if got := strings.Join(woke, ","); got != want {
		t.Fatalf("wake order %s, want %s", got, want)
	}

	var late time.Duration
	k.Go(func() {
		k.Sleep(time.Second)
		if err := ev.Wait(); err != nil {
			t.Errorf("wait after fire: %v", err)
		}
		late = k.Now()
	})
	k.RunUntilIdle()
	if want := 37*time.Millisecond + 250*time.Microsecond + time.Second; late != want {
		t.Fatalf("wait after fire returned at %v, want %v", late, want)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", k.LiveProcs())
	}
}

// TestEventWaitCostsNoPollEvents pins that a waiter schedules nothing
// while parked: an hour-long wait costs exactly the firer's one sleep
// wake-up and the waiter's one release, beyond the two spawns.
func TestEventWaitCostsNoPollEvents(t *testing.T) {
	k := New(1)
	ev := k.NewEvent()
	k.Go(func() { ev.Wait() })
	k.Go(func() {
		k.Sleep(time.Hour)
		ev.Fire()
	})
	k.RunUntilIdle()
	if got := k.Events(); got != 4 {
		t.Fatalf("dispatched %d events, want 4 (2 spawns, 1 sleep, 1 release)", got)
	}
	if k.Now() != time.Hour {
		t.Fatalf("clock at %v, want 1h", k.Now())
	}
}

// TestEventWaitStoppedOnKernelStop releases a parked waiter with
// core.ErrStopped when the kernel stops, and a Wait on a stopped kernel
// fails at once; a Fire after Stop must not panic or schedule anything.
func TestEventWaitStoppedOnKernelStop(t *testing.T) {
	k := New(1)
	ev := k.NewEvent()
	got := make(chan error, 1)
	k.Go(func() { got <- ev.Wait() })
	k.RunUntilIdle() // the waiter is parked, nothing is queued
	k.Stop()
	select {
	case err := <-got:
		if !errors.Is(err, core.ErrStopped) {
			t.Fatalf("wait across Stop = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter not released by Stop")
	}
	if err := k.NewEvent().Wait(); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("wait on stopped kernel = %v, want ErrStopped", err)
	}
	ev.Fire()
	if k.QueueLen() != 0 {
		t.Fatalf("fire after stop queued %d events", k.QueueLen())
	}
}
