// Package tcpwire is the real transport: RPCs over TCP with gob framing
// and per-destination connection pooling. It backs the deployment mode of
// the reproduction — the stand-in for the paper's 64-node cluster — and
// runs the exact same protocol code as the simulated transport.
package tcpwire

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
)

// wireRequest is the frame a client sends for one call.
type wireRequest struct {
	Method string
	From   string
	Body   network.Message
}

// wireResponse is the frame a server returns.
type wireResponse struct {
	Body network.Message
	Code string
	Msg  string
}

// DefaultTimeout bounds calls that do not specify one.
const DefaultTimeout = 5 * time.Second

// maxIdlePerHost limits pooled idle connections per destination.
const maxIdlePerHost = 4

// Endpoint is a TCP attachment: a listener serving registered handlers
// plus an outbound connection pool.
type Endpoint struct {
	ln   net.Listener
	addr network.Addr

	mu       sync.Mutex
	handlers map[string]network.HandlerFunc
	pools    map[network.Addr]*connPool
	accepted map[net.Conn]bool
	closed   bool

	metrics netMetrics
}

// netMetrics holds the transport's counters. The fields are always live
// (the obs constructors are nil-registry safe), so the hot path never
// branches on whether instrumentation is enabled.
type netMetrics struct {
	dials    *obs.Counter
	accepts  *obs.Counter
	calls    *obs.Counter
	aborts   *obs.Counter
	inflight *obs.Gauge
}

func newNetMetrics(reg *obs.Registry) netMetrics {
	return netMetrics{
		dials: reg.Counter("dcdht_net_dials_total",
			"Outbound TCP connections dialed (pool misses)."),
		accepts: reg.Counter("dcdht_net_conns_accepted_total",
			"Inbound TCP connections accepted."),
		calls: reg.Counter("dcdht_net_calls_total",
			"RPC invocations attempted over TCP."),
		aborts: reg.Counter("dcdht_net_call_aborts_total",
			"Calls aborted mid-flight by deadline, cancellation or I/O error."),
		inflight: reg.Gauge("dcdht_net_inflight",
			"RPC invocations currently in flight."),
	}
}

var _ network.Endpoint = (*Endpoint)(nil)

// Listen opens an endpoint on hostport ("127.0.0.1:0" picks a free
// port; the chosen address is available via Addr).
func Listen(hostport string) (*Endpoint, error) {
	return ListenWith(hostport, nil)
}

// ListenWith opens an endpoint like Listen and registers its transport
// metrics (dials, accepted conns, in-flight calls, deadline aborts) in
// reg. A nil registry disables export; the counters still work so the
// call path is identical either way. The registry must be supplied here
// rather than after the fact because the accept loop starts immediately.
func ListenWith(hostport string, reg *obs.Registry) (*Endpoint, error) {
	ln, err := net.Listen("tcp", hostport)
	if err != nil {
		return nil, fmt.Errorf("tcpwire: listen %s: %w", hostport, err)
	}
	ep := &Endpoint{
		ln:       ln,
		addr:     network.Addr(ln.Addr().String()),
		handlers: make(map[string]network.HandlerFunc),
		pools:    make(map[network.Addr]*connPool),
		accepted: make(map[net.Conn]bool),
		metrics:  newNetMetrics(reg),
	}
	go ep.acceptLoop()
	return ep, nil
}

// Addr implements network.Endpoint.
func (ep *Endpoint) Addr() network.Addr { return ep.addr }

// Handle implements network.Endpoint.
func (ep *Endpoint) Handle(method string, h network.HandlerFunc) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.handlers[method] = h
}

// Close implements network.Endpoint: it stops accepting, closes pooled
// connections and fails subsequent calls.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	pools := ep.pools
	ep.pools = map[network.Addr]*connPool{}
	accepted := ep.accepted
	ep.accepted = map[net.Conn]bool{}
	ep.mu.Unlock()
	err := ep.ln.Close()
	for _, p := range pools {
		p.closeAll()
	}
	for c := range accepted {
		c.Close()
	}
	return err
}

func (ep *Endpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

func (ep *Endpoint) handler(method string) network.HandlerFunc {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.handlers[method]
}

func (ep *Endpoint) acceptLoop() {
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			conn.Close()
			return
		}
		ep.accepted[conn] = true
		ep.mu.Unlock()
		ep.metrics.accepts.Inc()
		go ep.serveConn(conn)
	}
}

// serveConn handles one inbound connection: a sequence of
// request/response exchanges (the client holds the connection exclusively
// per call, so frames never interleave).
func (ep *Endpoint) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		ep.mu.Lock()
		delete(ep.accepted, conn)
		ep.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		var resp wireResponse
		if h := ep.handler(req.Method); h == nil {
			resp.Code, resp.Msg = network.EncodeError(
				fmt.Errorf("tcpwire: no handler for %q: %w", req.Method, core.ErrUnreachable))
		} else {
			body, err := h(network.Addr(req.From), req.Body)
			resp.Body = body
			resp.Code, resp.Msg = network.EncodeError(err)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// Invoke implements network.Endpoint. The context is honored natively:
// an already-done context fails fast, its deadline caps the socket
// deadlines (dial, write and read), and a cancellation mid-flight
// aborts the in-progress I/O. A call to the endpoint's own address
// runs the handler in process.
func (ep *Endpoint) Invoke(ctx context.Context, to network.Addr, method string, req network.Message, opt network.Call) (network.Message, error) {
	if ep.isClosed() {
		return nil, fmt.Errorf("tcpwire: %s: %w", ep.addr, core.ErrStopped)
	}
	if err := network.CtxError(ctx); err != nil {
		return nil, fmt.Errorf("tcpwire: %s->%s %s: %w", ep.addr, to, method, err)
	}
	if to == ep.addr {
		// A self-call runs the handler on the calling goroutine: no
		// socket, no encoding, no call counted.
		h := ep.handler(method)
		if h == nil {
			return nil, fmt.Errorf("tcpwire: no handler for %q: %w", method, core.ErrUnreachable)
		}
		return h(ep.addr, req)
	}
	timeout := network.Patience(ctx, opt.Timeout, DefaultTimeout)
	ep.metrics.calls.Inc()
	ep.metrics.inflight.Add(1)
	defer ep.metrics.inflight.Add(-1)
	pc, err := ep.getConn(ctx, to, timeout)
	if err != nil {
		if cerr := network.CtxError(ctx); cerr != nil {
			return nil, fmt.Errorf("tcpwire: %s->%s %s: %w", ep.addr, to, method, cerr)
		}
		return nil, err
	}
	meter := network.MeterFrom(ctx)
	meter.Count(network.SizeOf(req))

	pc.conn.SetDeadline(time.Now().Add(timeout))
	// A cancellation mid-flight yanks the socket deadline into the past,
	// which aborts the blocked encode/decode immediately.
	stopWatch := context.AfterFunc(ctx, func() { pc.conn.SetDeadline(time.Unix(1, 0)) })
	abort := func(ioErr error) error {
		ep.metrics.aborts.Inc()
		stopWatch()
		pc.close()
		if cerr := network.CtxError(ctx); cerr != nil {
			return fmt.Errorf("tcpwire: %s->%s %s: %w", ep.addr, to, method, cerr)
		}
		return mapNetErr(ep.addr, to, method, ioErr)
	}
	frame := wireRequest{Method: method, From: string(ep.addr), Body: req}
	if err := pc.enc.Encode(frame); err != nil {
		return nil, abort(err)
	}
	var resp wireResponse
	if err := pc.dec.Decode(&resp); err != nil {
		return nil, abort(err)
	}
	if !stopWatch() {
		// The cancellation watchdog already started: it may yank the
		// socket deadline at any moment, so this conn cannot be trusted
		// by a future lease — drop it instead of pooling.
		pc.close()
	} else {
		pc.conn.SetDeadline(time.Time{})
		ep.putConn(to, pc)
	}

	if resp.Code != "" {
		meter.Count(network.DefaultWireSize)
		return nil, network.DecodeError(resp.Code, resp.Msg)
	}
	meter.Count(network.SizeOf(resp.Body))
	return resp.Body, nil
}

// mapNetErr folds socket errors into the core taxonomy so protocol code
// treats simulated and real failures identically.
func mapNetErr(from, to network.Addr, method string, err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("tcpwire: %s->%s %s: %w", from, to, method, core.ErrTimeout)
	}
	return fmt.Errorf("tcpwire: %s->%s %s: %v: %w", from, to, method, err, core.ErrUnreachable)
}

// connPool keeps idle connections to one destination.
type connPool struct {
	mu   sync.Mutex
	idle []*persistConn
}

type persistConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func (pc *persistConn) close() { pc.conn.Close() }

func (p *connPool) get() *persistConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return pc
	}
	return nil
}

func (p *connPool) put(pc *persistConn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= maxIdlePerHost {
		return false
	}
	p.idle = append(p.idle, pc)
	return true
}

func (p *connPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pc := range p.idle {
		pc.close()
	}
	p.idle = nil
}

func (ep *Endpoint) pool(to network.Addr) *connPool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	p := ep.pools[to]
	if p == nil {
		p = &connPool{}
		ep.pools[to] = p
	}
	return p
}

func (ep *Endpoint) getConn(ctx context.Context, to network.Addr, timeout time.Duration) (*persistConn, error) {
	if pc := ep.pool(to).get(); pc != nil {
		return pc, nil
	}
	d := net.Dialer{Timeout: timeout}
	ep.metrics.dials.Inc()
	conn, err := d.DialContext(ctx, "tcp", string(to))
	if err != nil {
		return nil, mapNetErr(ep.addr, to, "dial", err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &persistConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

func (ep *Endpoint) putConn(to network.Addr, pc *persistConn) {
	if ep.isClosed() || !ep.pool(to).put(pc) {
		pc.close()
	}
}
