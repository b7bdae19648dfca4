// Package netstack implements the simulated network layer: FIFO
// per-partition channels between tasks, receiver endpoints with bounded
// queues (backpressure), input gates with checkpoint-barrier alignment,
// per-channel serializers that span records across fixed-size network
// buffers, and dynamic channel reconfiguration used during recovery.
package netstack

import (
	"errors"
	"sync"

	"clonos/internal/buffer"
	"clonos/internal/types"
)

// Message is the unit transferred over a channel. On the zero-copy
// dispatch path Data aliases the sender's network buffer (retained via
// Bind); the sender's in-flight log and the wire share one backing
// array, and the receiver drops the reference with Release once the
// payload is fully consumed. Replayed messages carry their own copy.
//
// Messages are pooled: obtain with NewMessage, hand back with Release.
// Ownership transfers on successful Push into an endpoint; on any push
// error the sender still owns (and must Release) the message.
type Message struct {
	Channel types.ChannelID
	// Seq is the per-channel sequence number, consecutive from 1.
	Seq uint64
	// Epoch is the checkpoint epoch the buffer belongs to.
	Epoch types.EpochID
	// Data is the serialized element stream.
	Data []byte
	// Delta is the piggybacked causal-log delta (may be nil).
	Delta []byte
	// Replayed marks messages resent from an in-flight log during
	// recovery. Metrics use it; the protocol itself does not.
	Replayed bool
	// StreamReset marks the first message of a divergent sender
	// incarnation (at-least-once / at-most-once recovery): the receiver
	// must discard partial deserializer state from the predecessor's
	// byte stream, which the new stream does not continue.
	StreamReset bool
	// Gen identifies the sender incarnation (connection generation).
	// After an endpoint is Rebound to a recovering sender's generation,
	// messages stamped with any other generation are rejected — in
	// particular a crashed predecessor's lingering send, which may have
	// been blocked on credit across the whole recovery protocol. Zero
	// means unstamped (accepted unless the endpoint is bound).
	Gen uint64

	// buf, when non-nil, is the retained network buffer whose backing
	// array Data aliases; Release drops that reference.
	buf *buffer.Buffer
}

var msgPool = sync.Pool{New: func() any { return new(Message) }}

// NewMessage returns a zeroed message from the pool.
func NewMessage() *Message { return msgPool.Get().(*Message) }

// Bind aliases b's bytes as the message payload and retains b until
// Release. The caller must hold a reference to b while calling.
func (m *Message) Bind(b *buffer.Buffer) {
	b.Retain()
	m.buf = b
	m.Data = b.Data
}

// Release drops the payload-buffer reference (if any) and returns the
// message to the pool. The message must not be used afterwards. Safe on
// nil and on messages built as plain literals.
func (m *Message) Release() {
	if m == nil {
		return
	}
	if m.buf != nil {
		m.buf.Release()
	}
	*m = Message{}
	msgPool.Put(m)
}

// ErrChannelBroken is returned when sending on a channel whose receiver has
// failed (the simulated TCP connection is down).
var ErrChannelBroken = errors.New("netstack: channel broken")

// ErrChannelClosed is returned when the endpoint was shut down permanently.
var ErrChannelClosed = errors.New("netstack: channel closed")
