package dht

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/network"
)

// Client performs puth/geth operations (§2.2) from one peer: it resolves
// rsp(k, h) through the ring's lookup service and invokes the store
// protocol on the responsible peer. The first resolution is optimistic
// and the responsible's owns-check verifies it; one exact retry is
// allowed when the guess was wrong or the responsible moved or died.
//
// Every operation takes a context: its deadline bounds the whole
// resolve-and-invoke sequence, its cancellation stops retries, and the
// meter it carries (network.WithMeter) is charged for every message.
type Client struct {
	ring Ring
	ns   string
}

// NewClient builds a client for the given namespace ("ums", "brk").
func NewClient(ring Ring, namespace string) *Client {
	return &Client{ring: ring, ns: namespace}
}

// Ring exposes the underlying ring (used by services for lookups).
func (c *Client) Ring() Ring { return c.ring }

// Namespace returns the client's storage namespace.
func (c *Client) Namespace() string { return c.ns }

// PutH stores val at rsp(k, h) — the paper's puth(k, data).
func (c *Client) PutH(ctx context.Context, k core.Key, h hashing.Func, val core.Value, mode PutMode) error {
	_, err := c.PutHStored(ctx, k, h, val, mode)
	return err
}

// PutHStored is PutH, additionally reporting whether the responsible
// actually kept the value — false when PutIfNewer (or PutIfNewerOrEqual)
// rejected a write that would travel backwards in time. The replica
// maintenance subsystem uses the report to count real heals instead of
// every push.
func (c *Client) PutHStored(ctx context.Context, k core.Key, h hashing.Func, val core.Value, mode PutMode) (bool, error) {
	rid := h.ID(k)
	req := PutReq{RingID: rid, Qual: Qualifier(c.ns, k, h.Name()), Val: val, Mode: mode}
	resp, err := c.invokeResponsible(ctx, rid, MethodPut, req)
	if err != nil {
		return false, fmt.Errorf("dht: puth %q via %s: %w", k, h.Name(), err)
	}
	return resp.(PutResp).Stored, nil
}

// GetH retrieves the replica of k stored at rsp(k, h) — the paper's
// geth(k).
func (c *Client) GetH(ctx context.Context, k core.Key, h hashing.Func) (core.Value, error) {
	rid := h.ID(k)
	req := GetReq{RingID: rid, Qual: Qualifier(c.ns, k, h.Name())}
	resp, err := c.invokeResponsible(ctx, rid, MethodGet, req)
	if err != nil {
		return core.Value{}, fmt.Errorf("dht: geth %q via %s: %w", k, h.Name(), err)
	}
	return resp.(GetResp).Val, nil
}

// invokeResponsible looks up the peer responsible for rid and invokes
// method on it. The first lookup is optimistic (see Optimistic): the
// store handler's owns-check verifies the guess. A refused or failed
// first call resolves once more with an exact walk.
func (c *Client) invokeResponsible(ctx context.Context, rid core.ID, method string, req network.Message) (network.Message, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		lctx := ctx
		if attempt == 0 {
			lctx = Optimistic(ctx)
		}
		ref, _, err := c.ring.Lookup(lctx, rid)
		if err != nil {
			return nil, err
		}
		resp, err := c.ring.Endpoint().Invoke(ctx, ref.Addr, method, req, network.Call{})
		if err == nil {
			return resp, nil
		}
		lastErr = err
		// A wrong guess, a moved responsibility or a peer that died
		// mid-operation: resolve again exactly, then give up (the
		// replica is simply unavailable).
		if !errors.Is(err, core.ErrNotResponsible) && !errors.Is(err, core.ErrTimeout) &&
			!errors.Is(err, core.ErrUnreachable) {
			return nil, err
		}
	}
	return nil, lastErr
}
