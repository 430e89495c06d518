package simwire

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/simnet"
	"repro/internal/stats"
)

type echoReq struct {
	Text string
}

type echoResp struct {
	Text string
}

type bigMsg struct{ N int }

func (bigMsg) WireSize() int { return 7000 } // 56 kbit: one second at nominal bandwidth

// fixedConfig removes randomness from delays so tests can assert exact
// round-trip times: 100 ms latency, effectively infinite bandwidth.
func fixedConfig() Config {
	return Config{
		LatencyMS:      stats.Normal{Mean: 100, Variance: 0, Min: 100},
		BandwidthKbps:  stats.Normal{Mean: 1e9, Variance: 0, Min: 1e9},
		DefaultTimeout: 2 * time.Second,
	}
}

func TestInvokeRoundTrip(t *testing.T) {
	k := simnet.New(1)
	n := New(k, fixedConfig())
	a := n.NewEndpoint("a")
	b := n.NewEndpoint("b")
	b.Handle("echo", func(from network.Addr, req network.Message) (network.Message, error) {
		if from != "a" {
			t.Errorf("from = %s", from)
		}
		return echoResp{Text: "re:" + req.(echoReq).Text}, nil
	})
	var got string
	var rtt time.Duration
	k.Go(func() {
		start := k.Now()
		m := &network.Meter{}
		resp, err := a.Invoke(network.WithMeter(context.Background(), m), "b", "echo", echoReq{Text: "hi"}, network.Call{})
		if err != nil {
			t.Errorf("invoke: %v", err)
			return
		}
		got = resp.(echoResp).Text
		rtt = k.Now() - start
		if m.Msgs != 2 {
			t.Errorf("meter msgs = %d, want 2", m.Msgs)
		}
	})
	k.RunUntilIdle()
	if got != "re:hi" {
		t.Fatalf("got %q", got)
	}
	if rtt < 200*time.Millisecond || rtt > 210*time.Millisecond {
		t.Fatalf("rtt = %v, want ~200ms", rtt)
	}
	if n.TotalMessages() != 2 {
		t.Fatalf("network messages = %d", n.TotalMessages())
	}
}

func TestInvokeToDeadPeerTimesOut(t *testing.T) {
	k := simnet.New(1)
	n := New(k, fixedConfig())
	a := n.NewEndpoint("a")
	n.NewEndpoint("b") // no handlers, then killed
	n.Kill("b")
	var err error
	var elapsed time.Duration
	k.Go(func() {
		start := k.Now()
		_, err = a.Invoke(context.Background(), "b", "echo", echoReq{}, network.Call{Timeout: 500 * time.Millisecond})
		elapsed = k.Now() - start
	})
	k.RunUntilIdle()
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if elapsed != 500*time.Millisecond {
		t.Fatalf("elapsed = %v, want the timeout", elapsed)
	}
	if n.TotalDropped() != 1 {
		t.Fatalf("dropped = %d", n.TotalDropped())
	}
}

func TestInvokeUnknownMethodTimesOut(t *testing.T) {
	k := simnet.New(1)
	n := New(k, fixedConfig())
	a := n.NewEndpoint("a")
	n.NewEndpoint("b")
	var err error
	k.Go(func() {
		_, err = a.Invoke(context.Background(), "b", "nope", echoReq{}, network.Call{Timeout: 300 * time.Millisecond})
	})
	k.RunUntilIdle()
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoteErrorCrossesWire(t *testing.T) {
	k := simnet.New(1)
	n := New(k, fixedConfig())
	a := n.NewEndpoint("a")
	b := n.NewEndpoint("b")
	b.Handle("get", func(network.Addr, network.Message) (network.Message, error) {
		return nil, fmt.Errorf("no replica here: %w", core.ErrNotFound)
	})
	var err error
	k.Go(func() {
		_, err = a.Invoke(context.Background(), "b", "get", echoReq{}, network.Call{})
	})
	k.RunUntilIdle()
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound across the wire", err)
	}
}

func TestBandwidthChargesLargeMessages(t *testing.T) {
	k := simnet.New(1)
	cfg := Config{
		LatencyMS:      stats.Normal{Mean: 100, Variance: 0, Min: 100},
		BandwidthKbps:  stats.Normal{Mean: 56, Variance: 0, Min: 56},
		DefaultTimeout: time.Hour,
	}
	n := New(k, cfg)
	a := n.NewEndpoint("a")
	b := n.NewEndpoint("b")
	b.Handle("put", func(network.Addr, network.Message) (network.Message, error) {
		return echoResp{}, nil
	})
	var rtt time.Duration
	k.Go(func() {
		start := k.Now()
		if _, err := a.Invoke(context.Background(), "b", "put", bigMsg{}, network.Call{}); err != nil {
			t.Errorf("invoke: %v", err)
		}
		rtt = k.Now() - start
	})
	k.RunUntilIdle()
	// Request: 100ms latency + 7000B*8/56kbps = 1000ms transmission.
	// Reply: 100ms + 200B*8/56 ≈ 28.6ms.
	want := 1228 * time.Millisecond
	if rtt < want-10*time.Millisecond || rtt > want+10*time.Millisecond {
		t.Fatalf("rtt = %v, want ~%v", rtt, want)
	}
}

func TestKillDuringServiceDropsReply(t *testing.T) {
	k := simnet.New(1)
	n := New(k, fixedConfig())
	a := n.NewEndpoint("a")
	b := n.NewEndpoint("b")
	b.Handle("slow", func(network.Addr, network.Message) (network.Message, error) {
		k.Sleep(time.Second)
		return echoResp{}, nil
	})
	// Kill b while it is serving.
	k.Go(func() {
		k.Sleep(600 * time.Millisecond)
		n.Kill("b")
	})
	var err error
	k.Go(func() {
		_, err = a.Invoke(context.Background(), "b", "slow", echoReq{}, network.Call{Timeout: 5 * time.Second})
	})
	k.RunUntilIdle()
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, want timeout (reply dropped)", err)
	}
}

func TestNestedInvokeFromHandler(t *testing.T) {
	k := simnet.New(1)
	n := New(k, fixedConfig())
	a := n.NewEndpoint("a")
	b := n.NewEndpoint("b")
	c := n.NewEndpoint("c")
	c.Handle("leaf", func(network.Addr, network.Message) (network.Message, error) {
		return echoResp{Text: "leaf"}, nil
	})
	b.Handle("mid", func(from network.Addr, req network.Message) (network.Message, error) {
		r, err := b.Invoke(context.Background(), "c", "leaf", echoReq{}, network.Call{})
		if err != nil {
			return nil, err
		}
		return echoResp{Text: "mid+" + r.(echoResp).Text}, nil
	})
	var got string
	k.Go(func() {
		r, err := a.Invoke(context.Background(), "b", "mid", echoReq{}, network.Call{})
		if err != nil {
			t.Errorf("invoke: %v", err)
			return
		}
		got = r.(echoResp).Text
	})
	k.RunUntilIdle()
	if got != "mid+leaf" {
		t.Fatalf("got %q", got)
	}
}

func TestClosedCallerFailsFast(t *testing.T) {
	k := simnet.New(1)
	n := New(k, fixedConfig())
	a := n.NewEndpoint("a")
	n.NewEndpoint("b")
	a.Close()
	var err error
	k.Go(func() {
		_, err = a.Invoke(context.Background(), "b", "x", echoReq{}, network.Call{})
	})
	k.RunUntilIdle()
	if !errors.Is(err, core.ErrStopped) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateEndpointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate endpoint name")
		}
	}()
	k := simnet.New(1)
	n := New(k, fixedConfig())
	n.NewEndpoint("dup")
	n.NewEndpoint("dup")
}

func TestAutoAddressing(t *testing.T) {
	k := simnet.New(1)
	n := New(k, fixedConfig())
	e1 := n.NewEndpoint("")
	e2 := n.NewEndpoint("")
	if e1.Addr() == e2.Addr() {
		t.Fatalf("auto addresses collide: %s", e1.Addr())
	}
	if !n.Alive(e1.Addr()) || n.Alive("nonexistent") {
		t.Fatal("Alive misreports")
	}
}

func TestTable1Defaults(t *testing.T) {
	cfg := Config{}.applyDefaults()
	if cfg.LatencyMS.Mean != 200 || cfg.BandwidthKbps.Mean != 56 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.DefaultTimeout == 0 {
		t.Fatal("missing default timeout")
	}
}

func TestEnvImplementsNetworkEnv(t *testing.T) {
	k := simnet.New(3)
	env := Env(k)
	var woke time.Duration
	env.Go(func() {
		env.Sleep(time.Second)
		woke = env.Now()
	})
	canceled := env.After(2*time.Second, func() { t.Error("canceled timer fired") })
	env.Go(func() {
		env.Sleep(1500 * time.Millisecond)
		canceled.Cancel()
	})
	k.RunUntilIdle()
	if woke != time.Second {
		t.Fatalf("woke = %v", woke)
	}
	r1 := env.Rand("x").Uint64()
	r2 := Env(simnet.New(3)).Rand("x").Uint64()
	if r1 != r2 {
		t.Fatal("env rand streams must be seed-deterministic")
	}
}

// TestSelfCallRunsInProcess: a call to the endpoint's own address runs
// the handler inline — no message on the meter or the network, no link
// draw, no virtual time — while a killed or closed endpoint still
// refuses with ErrStopped and a missing handler is ErrUnreachable
// instead of a timeout.
func TestSelfCallRunsInProcess(t *testing.T) {
	k := simnet.New(1)
	n := New(k, fixedConfig())
	a := n.NewEndpoint("a")
	served := 0
	a.Handle("echo", func(from network.Addr, req network.Message) (network.Message, error) {
		if from != "a" {
			t.Errorf("from = %s, want a", from)
		}
		served++
		return echoResp{Text: "re:" + req.(echoReq).Text}, nil
	})
	k.Go(func() {
		m := &network.Meter{}
		ctx := network.WithMeter(context.Background(), m)
		start := k.Now()
		resp, err := a.Invoke(ctx, "a", "echo", echoReq{Text: "me"}, network.Call{})
		if err != nil || resp.(echoResp).Text != "re:me" {
			t.Errorf("self-call = %v, %v", resp, err)
		}
		if served != 1 || m.Msgs != 0 || m.Bytes != 0 || k.Now() != start || n.TotalMessages() != 0 {
			t.Errorf("self-call: served %d, meter %+v, took %v, network carried %d msgs; want 1, zero, 0, 0",
				served, *m, k.Now()-start, n.TotalMessages())
		}
		if _, err := a.Invoke(ctx, "a", "nope", echoReq{}, network.Call{}); !errors.Is(err, core.ErrUnreachable) {
			t.Errorf("self-call to a missing handler: %v, want ErrUnreachable", err)
		}
		if k.Now() != start {
			t.Errorf("missing handler took %v of virtual time, want 0", k.Now()-start)
		}
		n.Kill("a")
		if _, err := a.Invoke(ctx, "a", "echo", echoReq{}, network.Call{}); !errors.Is(err, core.ErrStopped) {
			t.Errorf("self-call on a killed endpoint: %v, want ErrStopped", err)
		}
		b := n.NewEndpoint("b")
		b.Handle("echo", func(network.Addr, network.Message) (network.Message, error) { return echoResp{}, nil })
		b.Close()
		if _, err := b.Invoke(ctx, "b", "echo", echoReq{}, network.Call{}); !errors.Is(err, core.ErrStopped) {
			t.Errorf("self-call on a closed endpoint: %v, want ErrStopped", err)
		}
		if served != 1 || m.Msgs != 0 {
			t.Errorf("refused self-calls ran a handler or charged the meter: served %d, meter %+v", served, *m)
		}
	})
	k.Run(time.Minute)
}
