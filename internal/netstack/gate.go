package netstack

import (
	"errors"
	"sync/atomic"

	"clonos/internal/types"
)

// ErrGateClosed is returned by gate reads once the task is shutting down.
var ErrGateClosed = errors.New("netstack: gate closed")

// Gate is a task's input side: one endpoint per input channel plus a shared
// wake-up channel. The task's main thread pulls whole buffers from the gate
// one at a time; which channel is served next is nondeterministic and is
// what the ORDER determinant captures.
//
// The gate also supports blocking individual channels, which checkpoint
// barrier alignment uses: data behind an already-received barrier stays
// queued until the barriers of all channels have arrived.
type Gate struct {
	notify chan struct{}
	eps    []*Endpoint
	// blocked flags are written by the main thread only but read by
	// off-thread metrics collectors (BlockedChannels), hence atomic.
	blocked []atomic.Bool
	// rr is the round-robin cursor that makes channel selection depend
	// on arrival timing — honest nondeterminism, captured by ORDER.
	rr int
}

// NewGate builds a gate with one endpoint per channel ID (gate index =
// slice index), registers the endpoints with the network, and returns it.
// accepting=false creates every endpoint closed to senders until the
// recovery protocol opens it with AcceptFrom.
func NewGate(net *Network, ids []types.ChannelID, credit int, accepting bool) *Gate {
	g := &Gate{notify: make(chan struct{}, 1)}
	g.eps = make([]*Endpoint, 0, len(ids))
	g.blocked = make([]atomic.Bool, len(ids))
	for _, id := range ids {
		ep := NewEndpoint(id, credit, g.notify, accepting)
		net.Attach(ep)
		g.eps = append(g.eps, ep)
	}
	return g
}

// NumChannels reports the number of input channels.
func (g *Gate) NumChannels() int { return len(g.eps) }

// Endpoint returns the endpoint at the given gate index.
func (g *Gate) Endpoint(idx int) *Endpoint { return g.eps[idx] }

// Block marks a channel as blocked for barrier alignment. The channel
// keeps its credit: once its queue is full, its sender parks in Push as
// it does behind any slow receiver. That cannot deadlock the alignment,
// because a channel is blocked only after its sender broadcast the
// barrier on every output (DESIGN.md "Trigger conditions").
func (g *Gate) Block(idx int) { g.blocked[idx].Store(true) }

// Unblock releases a channel blocked for alignment. It re-signals the
// wake-up channel since blocked data may now be servable.
func (g *Gate) Unblock(idx int) {
	g.blocked[idx].Store(false)
	signal(g.notify)
}

// UnblockAll releases every channel.
func (g *Gate) UnblockAll() {
	for i := range g.blocked {
		g.blocked[i].Store(false)
	}
	signal(g.notify)
}

// Next returns the next buffer from any unblocked, non-empty channel along
// with its gate index, blocking until data arrives or abort is closed.
// Selection is round-robin over ready channels, so the outcome depends on
// arrival timing: the caller must log an ORDER determinant with the
// returned index.
func (g *Gate) Next(abort <-chan struct{}) (int, *Message, error) {
	for {
		n := len(g.eps)
		for off := 1; off <= n; off++ {
			idx := (g.rr + off) % n
			if g.blocked[idx].Load() {
				continue
			}
			if m := g.eps[idx].Pop(); m != nil {
				g.rr = idx
				return idx, m, nil
			}
		}
		select {
		case <-g.notify:
		case <-abort:
			return 0, nil, ErrGateClosed
		}
	}
}

// TryNext is Next without blocking; ok is false when no unblocked channel
// has data.
func (g *Gate) TryNext() (int, *Message, bool) {
	n := len(g.eps)
	for off := 1; off <= n; off++ {
		idx := (g.rr + off) % n
		if g.blocked[idx].Load() {
			continue
		}
		if m := g.eps[idx].Pop(); m != nil {
			g.rr = idx
			return idx, m, true
		}
	}
	return 0, nil, false
}

// Ready exposes the wake-up channel: it receives whenever data arrives or
// a channel is unblocked. Consume it then re-poll with TryNext.
func (g *Gate) Ready() <-chan struct{} { return g.notify }

// NextFrom returns the next buffer from the specific channel, blocking
// until one arrives or abort is closed. Recovery replay uses it to consume
// buffers in the order dictated by the ORDER determinant log.
func (g *Gate) NextFrom(idx int, abort <-chan struct{}) (*Message, error) {
	for {
		if m := g.eps[idx].Pop(); m != nil {
			return m, nil
		}
		select {
		case <-g.notify:
		case <-abort:
			return nil, ErrGateClosed
		}
	}
}

// Replaying reports whether any input channel still has replayed input
// to come (see Endpoint.Replaying).
func (g *Gate) Replaying() bool {
	for _, ep := range g.eps {
		if ep.Replaying() {
			return true
		}
	}
	return false
}

// QueuedBuffers reports the total number of buffers queued across all
// endpoints (blocked or not) — the task's input backlog. Safe to call
// from a metrics collector concurrent with the consuming task.
func (g *Gate) QueuedBuffers() int {
	n := 0
	for _, ep := range g.eps {
		n += ep.Len()
	}
	return n
}

// BlockedChannels reports how many input channels are currently blocked
// for barrier alignment. Safe to call from a metrics collector
// concurrent with the consuming task.
func (g *Gate) BlockedChannels() int {
	n := 0
	for i := range g.blocked {
		if g.blocked[i].Load() {
			n++
		}
	}
	return n
}

// Instrument attaches one shared metrics instance to every endpoint.
func (g *Gate) Instrument(m *EndpointMetrics) {
	for _, ep := range g.eps {
		ep.Instrument(m)
	}
}

// HasData reports whether any unblocked channel has queued data.
func (g *Gate) HasData() bool {
	for i, ep := range g.eps {
		if !g.blocked[i].Load() && ep.Len() > 0 {
			return true
		}
	}
	return false
}

// Close closes all endpoints.
func (g *Gate) Close() {
	for _, ep := range g.eps {
		ep.Close()
	}
}
