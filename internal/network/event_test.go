package network_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/simnet"
)

// TestGoJoinSimReturnsAtLastCompletion pins the join to the exact
// virtual instant the slowest activity ends — no rounding up to a poll
// tick, whatever poll is passed.
func TestGoJoinSimReturnsAtLastCompletion(t *testing.T) {
	k := simnet.New(1)
	env := simwire.Env(k)
	durs := []time.Duration{3 * time.Millisecond, 41*time.Millisecond + 7*time.Microsecond, 17 * time.Millisecond}
	var joined time.Duration
	k.Go(func() {
		if err := network.GoJoin(env, len(durs), time.Hour, func(i int) {
			env.Sleep(durs[i])
		}); err != nil {
			t.Errorf("join: %v", err)
		}
		joined = env.Now()
	})
	k.RunUntilIdle()
	if want := 41*time.Millisecond + 7*time.Microsecond; joined != want {
		t.Fatalf("join returned at %v, want %v", joined, want)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", k.LiveProcs())
	}
}

// TestGoJoinSimStoppedMidJoin returns core.ErrStopped from a join whose
// activities never finish before the kernel stops.
func TestGoJoinSimStoppedMidJoin(t *testing.T) {
	k := simnet.New(1)
	env := simwire.Env(k)
	got := make(chan error, 1)
	k.Go(func() {
		got <- network.GoJoin(env, 2, 0, func(int) { env.Sleep(time.Hour) })
	})
	k.Run(time.Minute)
	k.Stop()
	select {
	case err := <-got:
		if !errors.Is(err, core.ErrStopped) {
			t.Fatalf("join across Stop = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("join not released by Stop")
	}
}

// TestRealEventFireReleasesAllWaiters: every waiter — parked before the
// Fire or arriving after it — returns nil, and a second Fire is a no-op.
func TestRealEventFireReleasesAllWaiters(t *testing.T) {
	env := network.NewRealEnv(1)
	defer env.Close()
	ev := env.NewEvent()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ev.Wait()
		}()
	}
	ev.Fire()
	ev.Fire()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}
	if err := ev.Wait(); err != nil {
		t.Fatalf("wait after fire: %v", err)
	}
	// A fired event wins over a later Close.
	env.Close()
	if err := ev.Wait(); err != nil {
		t.Fatalf("wait on fired event after close: %v", err)
	}
}

// TestRealEventWaitStoppedOnClose releases a waiter with
// core.ErrStopped when the environment closes mid-wait.
func TestRealEventWaitStoppedOnClose(t *testing.T) {
	env := network.NewRealEnv(1)
	ev := env.NewEvent()
	got := make(chan error, 1)
	go func() { got <- ev.Wait() }()
	time.Sleep(10 * time.Millisecond)
	env.Close()
	select {
	case err := <-got:
		if !errors.Is(err, core.ErrStopped) {
			t.Fatalf("wait across Close = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released by Close")
	}
}

// TestWaitCtxRealCancel interrupts a real wait when its context is
// cancelled, and fails fast on a context already done.
func TestWaitCtxRealCancel(t *testing.T) {
	env := network.NewRealEnv(1)
	defer env.Close()
	ev := env.NewEvent()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := network.WaitCtx(ctx, ev); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("wait past deadline = %v, want ErrTimeout", err)
	}
	if err := network.WaitCtx(ctx, ev); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait on done context = %v, want DeadlineExceeded", err)
	}
	ev.Fire()
	if err := network.WaitCtx(context.Background(), ev); err != nil {
		t.Fatalf("wait on fired event: %v", err)
	}
}
