package netstack

import (
	"fmt"
	"sync"
	"time"

	"clonos/internal/obs"
	"clonos/internal/types"
)

// EndpointMetrics instruments an endpoint's receive path. All fields are
// optional (nil-safe): Accepted counts messages accepted into the queue,
// Blocked counts Push calls that stalled on the credit limit, BlockedNs
// accumulates the stalled nanoseconds, and Stall observes each stall's
// duration (the credit-wait distribution, not just its sum). One
// instance is shared by every endpoint of a gate, so the counters
// aggregate per task.
type EndpointMetrics struct {
	Accepted  *obs.Counter
	Blocked   *obs.Counter
	BlockedNs *obs.Counter
	Stall     *obs.Histogram
}

// Endpoint is the receiver side of one FIFO channel. Senders block in Push
// when the bounded queue is full (backpressure); the owning input gate pops
// messages.
//
// An endpoint survives a sender failure: the queue keeps whatever the dead
// sender already delivered, and LastPushed lets a recovering sender learn
// how far this receiver got, enabling sender-side deduplication. When the
// receiver itself fails, the endpoint is Broken (unblocking senders) and a
// fresh endpoint replaces it in the Network once the standby attaches.
type Endpoint struct {
	id     types.ChannelID
	credit int

	mu       sync.Mutex
	sendCond *sync.Cond
	queue    []*Message
	// preload holds in-flight messages restored from an unaligned
	// checkpoint's logged-buffer section. They are served before the live
	// queue, never count against credit, and survive AcceptFrom's queue
	// drop (the replay request re-anchors LIVE traffic at the first
	// post-checkpoint seq; the preloaded prefix sits logically before it).
	preload []*Message
	// lastPushed is the seq of the newest message accepted into the
	// queue; the successor is the only seq Push will accept next.
	lastPushed uint64
	anchored   bool // false until the first message arrives
	// accepting gates Push: a recovering task's fresh endpoints reject
	// senders until the replay request opens them (AcceptFrom), so a
	// stale direct send cannot anchor the connection at the wrong seq.
	accepting bool
	// expectFirst, when non-zero, is the only seq accepted as the first
	// message after AcceptFrom.
	expectFirst uint64
	// replaying is set while the sender owes this endpoint the rest of an
	// in-flight replay: from the requester's ExpectReplay until the
	// sender's ReplayDone. See Replaying.
	replaying bool
	// gen, when non-zero, binds the endpoint to one sender incarnation:
	// only messages stamped with this generation are accepted. Rebind
	// sets it when a recovering sender takes over the channel, fencing
	// off the crashed predecessor's lingering sends.
	gen    uint64
	broken bool
	closed bool

	// notify is signalled (non-blocking) whenever the queue goes
	// non-empty. It is shared with the owning gate.
	notify chan<- struct{}
	// metrics, when set, counts accepted messages and credit-limit
	// stalls.
	metrics *EndpointMetrics
	// onAccept hooks are invoked in order for every accepted message
	// before Push returns. The task routes these to its causal-log
	// manager (piggybacked determinant deltas are logged as soon as the
	// buffer is received — the paper's causal log manager sits at the
	// network layer, so a recovering upstream's extraction covers every
	// buffer the receiver holds, not only those already processed) and
	// to the audit plane's channel-stream auditor.
	onAccept []func(*Message)
}

// NewEndpoint creates an endpoint with the given queue capacity in buffers.
// notify, if non-nil, is signalled on every push; it is typically the
// owning gate's shared wake-up channel. accepting=false creates the
// endpoint closed to senders until AcceptFrom opens it.
func NewEndpoint(id types.ChannelID, credit int, notify chan<- struct{}, accepting bool) *Endpoint {
	ep := &Endpoint{id: id, credit: credit, notify: notify, accepting: accepting}
	ep.sendCond = sync.NewCond(&ep.mu)
	return ep
}

// signal posts a wake-up on a gate's notify channel without blocking (one
// buffered token coalesces bursts); a nil channel is nobody to wake.
func signal(notify chan<- struct{}) {
	if notify != nil {
		select {
		case notify <- struct{}{}:
		default:
		}
	}
}

// AcceptFrom opens the endpoint to senders. firstSeq, when non-zero, is
// the only seq accepted as the first message (the replayed epoch's first
// buffer); zero anchors on whatever arrives first.
func (ep *Endpoint) AcceptFrom(firstSeq uint64) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.accepting = true
	ep.anchored = false
	ep.expectFirst = firstSeq
	ep.dropQueueLocked()
	ep.sendCond.Broadcast()
}

// ExpectReplay marks that a replay is being requested of the sender. The
// requester calls it before arming the sender, so that a replay with
// nothing to send cannot report done before it is expected.
func (ep *Endpoint) ExpectReplay() {
	ep.mu.Lock()
	ep.replaying = true
	ep.mu.Unlock()
}

// ReplayDone is the sender's word that the replay asked of it is complete
// — everything it had logged has been pushed and the channel is back to
// direct sending. It wakes the receiver, which may be parked on an empty
// queue waiting to learn exactly this.
func (ep *Endpoint) ReplayDone() {
	ep.mu.Lock()
	ep.replaying = false
	notify := ep.notify
	ep.mu.Unlock()
	signal(notify)
}

// Replaying reports whether the endpoint still has replayed input to
// come: it has not been opened yet (the replay request is still on its
// way to a sender that may itself be recovering), or the replay it was
// opened for is not complete. A recovering task has caught up only once
// none of its endpoints is replaying and all of them are drained.
func (ep *Endpoint) Replaying() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return !ep.accepting || ep.replaying
}

// dropQueueLocked discards queued messages, releasing their payload
// references so the senders' buffers recycle.
func (ep *Endpoint) dropQueueLocked() {
	for _, m := range ep.queue {
		m.Release()
	}
	ep.queue = nil
}

// ID returns the channel this endpoint terminates.
func (ep *Endpoint) ID() types.ChannelID { return ep.id }

// Push delivers a message, blocking while the queue is full. It enforces
// FIFO sequencing: after the first accepted message, each seq must be the
// successor of the previous. Out-of-sequence delivery indicates a protocol
// bug and returns an error.
//
// Ownership: on a nil return the endpoint owns m (and its payload
// reference); on error the sender keeps ownership and must release it.
//
//clonos:owns-transfer on-success
func (ep *Endpoint) Push(m *Message) error {
	ep.mu.Lock()
	if len(ep.queue) >= ep.credit && !ep.broken && !ep.closed {
		mx := ep.metrics
		if mx != nil {
			mx.Blocked.Inc()
		}
		start := time.Now()
		for len(ep.queue) >= ep.credit && !ep.broken && !ep.closed &&
			(ep.gen == 0 || m.Gen == ep.gen) {
			ep.sendCond.Wait()
		}
		if mx != nil {
			mx.BlockedNs.AddDuration(time.Since(start))
			mx.Stall.ObserveSince(start)
		}
	}
	if ep.closed {
		ep.mu.Unlock()
		return ErrChannelClosed
	}
	if ep.broken || !ep.accepting {
		ep.mu.Unlock()
		return ErrChannelBroken
	}
	if ep.gen != 0 && m.Gen != ep.gen {
		// A fenced-off predecessor incarnation; reject as transient (the
		// sender is dead, its channel just flips to pending and stops).
		ep.mu.Unlock()
		return ErrChannelBroken
	}
	if !ep.anchored && ep.expectFirst != 0 && m.Seq != ep.expectFirst {
		// A stale sender raced the replay request; reject as transient.
		ep.mu.Unlock()
		return ErrChannelBroken
	}
	if ep.anchored && m.Seq != ep.lastPushed+1 {
		ep.mu.Unlock()
		return fmt.Errorf("netstack: %v out-of-sequence push: got seq %d, want %d", ep.id, m.Seq, ep.lastPushed+1)
	}
	onAccept := ep.onAccept
	ep.mu.Unlock()
	// Run the hooks BEFORE the message (and its seq) becomes visible:
	// recovery reads LastPushed for sender-side dedup, and every
	// deduplicated buffer's determinants (and audit stream records) must
	// already cover it. Pushes on one channel are serial (the sender's
	// writer lock / replay handoff), so the unlocked window is safe.
	for _, h := range onAccept {
		h(m)
	}
	ep.mu.Lock()
	if ep.closed || ep.broken {
		err := ErrChannelClosed
		if ep.broken {
			err = ErrChannelBroken
		}
		ep.mu.Unlock()
		return err
	}
	if ep.gen != 0 && m.Gen != ep.gen {
		// Rebind fenced this sender off while the hook ran: the message
		// must not become visible, or the rebinding recovery would count
		// a seq whose bytes the replacement cannot reproduce.
		ep.mu.Unlock()
		return ErrChannelBroken
	}
	ep.anchored = true
	ep.lastPushed = m.Seq
	ep.queue = append(ep.queue, m)
	if ep.metrics != nil {
		ep.metrics.Accepted.Inc()
	}
	notify := ep.notify
	ep.mu.Unlock()
	signal(notify)
	return nil
}

// Instrument attaches receive-path metrics (may be nil to detach).
func (ep *Endpoint) Instrument(m *EndpointMetrics) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.metrics = m
}

// SetOnAccept installs f as the only accepted-message hook, replacing
// any previously installed hooks (see the field doc).
func (ep *Endpoint) SetOnAccept(f func(*Message)) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.onAccept = []func(*Message){f}
}

// AddOnAccept appends an accepted-message hook; hooks run in install
// order. Install-time only (before traffic flows on the endpoint).
func (ep *Endpoint) AddOnAccept(f func(*Message)) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.onAccept = append(ep.onAccept, f)
}

// Preload queues restored in-flight messages ahead of all live traffic.
// The messages bypass the accept path entirely: no FIFO/seq admission, no
// onAccept hooks (their determinant deltas and audit stream records were
// already covered when the checkpoint logged them), no credit accounting.
func (ep *Endpoint) Preload(msgs []*Message) {
	if len(msgs) == 0 {
		return
	}
	ep.mu.Lock()
	ep.preload = append(ep.preload, msgs...)
	notify := ep.notify
	ep.mu.Unlock()
	signal(notify)
}

// Pop removes and returns the oldest queued message, or nil if empty.
// Preloaded messages drain before live traffic.
func (ep *Endpoint) Pop() *Message {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ep.preload) > 0 {
		m := ep.preload[0]
		ep.preload = ep.preload[1:]
		return m
	}
	if len(ep.queue) == 0 {
		return nil
	}
	m := ep.queue[0]
	ep.queue = ep.queue[1:]
	ep.sendCond.Signal()
	return m
}

// Len reports the queued message count, including preloaded messages.
func (ep *Endpoint) Len() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.queue) + len(ep.preload)
}

// LastPushed reports the seq of the newest message accepted into the queue
// (consumed or still queued). A recovering upstream must resume replay at
// LastPushed+1 so queued-but-unprocessed data is not duplicated.
func (ep *Endpoint) LastPushed() uint64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.lastPushed
}

// Rebind atomically binds the endpoint to a new sender generation and
// returns the last accepted seq. From this point on only messages stamped
// with gen are accepted; anything else — notably a crashed predecessor's
// in-flight send, which may have been parked on the credit limit across
// the entire recovery protocol — is rejected with ErrChannelBroken. The
// recovery protocol must rebind BEFORE sampling the sender-side dedup
// floor and extracting determinants: the returned seq is then guaranteed
// to count only messages whose piggybacked determinants the receiver has
// ingested, keeping the replacement's re-executed byte stream identical
// to the delivered prefix.
func (ep *Endpoint) Rebind(gen uint64) uint64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.gen = gen
	// Whatever replay the predecessor still owed died with it; what the
	// new incarnation regenerates past lastPushed arrives as ordinary
	// traffic (or under a replay request of its own).
	ep.replaying = false
	ep.sendCond.Broadcast()
	return ep.lastPushed
}

// Break severs the connection after a receiver failure: queued messages
// are dropped with the dead receiver and blocked senders fail with
// ErrChannelBroken.
func (ep *Endpoint) Break() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.broken = true
	ep.dropQueueLocked()
	ep.dropPreloadLocked()
	ep.sendCond.Broadcast()
}

// Broken reports whether Break has been called.
func (ep *Endpoint) Broken() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.broken
}

// Close shuts the endpoint down permanently.
func (ep *Endpoint) Close() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.closed = true
	ep.dropQueueLocked()
	ep.dropPreloadLocked()
	ep.sendCond.Broadcast()
}

// dropPreloadLocked discards preloaded messages (dead receiver).
func (ep *Endpoint) dropPreloadLocked() {
	for _, m := range ep.preload {
		m.Release()
	}
	ep.preload = nil
}
