package netstack

import (
	"errors"

	"clonos/internal/buffer"
	"clonos/internal/codec"
	"clonos/internal/types"
)

// ErrWriterClosed is returned when writing after the writer's pool closed
// (the task is crashing or shutting down).
var ErrWriterClosed = errors.New("netstack: writer closed")

// ChannelWriter serializes elements into fixed-size network buffers for one
// output channel, splitting element bytes across buffer boundaries when
// needed, and hands each filled buffer to the dispatch callback.
//
// Buffer cuts are nondeterministic in normal operation (a buffer may be cut
// early by Flush, depending on when its task ran out of input) and are
// therefore recorded as BUFFERSIZE determinants by the dispatch layer.
// During causally guided recovery, the writer is fed the recorded cut
// sizes via PushCut and reproduces byte-identical buffers.
//
// A writer has one owner at a time — the task's main thread, or whoever
// prepares the task before that thread starts — and is not safe for
// concurrent use.
type ChannelWriter struct {
	pool     *buffer.Pool
	cur      *buffer.Buffer
	scratch  []byte
	codec    codec.Codec
	dispatch func(*buffer.Buffer) error

	// cuts holds recovery-mode target buffer sizes, FIFO.
	cuts []int
	// scratchBytes counts bytes that took the copying fallback path
	// (element straddled a buffer boundary or recovery cuts were
	// pending) — the residual copy cost of the direct-encode fast path.
	scratchBytes uint64
}

// NewChannelWriter builds a writer drawing buffers from pool and invoking
// dispatch for every completed buffer. The dispatch callback takes
// ownership of the buffer.
func NewChannelWriter(pool *buffer.Pool, c codec.Codec, dispatch func(*buffer.Buffer) error) *ChannelWriter {
	return &ChannelWriter{pool: pool, codec: c, dispatch: dispatch}
}

// PushCut appends a recovery-mode cut size; while cuts are pending the
// writer dispatches exactly when the current buffer reaches the next
// recorded size instead of when it is full.
func (w *ChannelWriter) PushCut(size int) {
	w.cuts = append(w.cuts, size)
}

// InRecovery reports whether recorded cuts are still pending.
func (w *ChannelWriter) InRecovery() bool {
	return len(w.cuts) > 0
}

// WriteElement serializes e into the current buffer, dispatching buffers
// as they fill (or as they reach the recorded cut size during recovery).
//
// Fast path: with no recovery cuts pending, the element is encoded
// directly into the current buffer's remaining room — no scratch encode,
// no copy. When the element does not fit (or cuts are pending), it is
// encoded once and chunked across buffers exactly as before, so the byte
// stream and cut positions are identical either way.
func (w *ChannelWriter) WriteElement(e types.Element) error {
	if len(w.cuts) == 0 {
		if w.cur == nil {
			if w.cur = w.pool.Get(); w.cur == nil {
				return ErrWriterClosed
			}
		}
		base := w.cur.Data
		ext, err := codec.EncodeElement(base, e, w.codec)
		if err != nil {
			return err
		}
		if len(ext) <= cap(base) {
			// The encoder appended monotonically and the final length
			// fits, so it never reallocated: the bytes landed in the
			// buffer's own backing array.
			w.cur.Data = ext
			if w.cur.Remaining() == 0 {
				return w.dispatchLocked()
			}
			return nil
		}
		// The element overflowed: the encoder grew into a fresh array and
		// the buffer itself is untouched. Chunk the encoded bytes across
		// buffers (the first chunk fills the current buffer's room).
		data := ext[len(base):]
		w.scratchBytes += uint64(len(data))
		return w.writeChunkedLocked(data)
	}
	var err error
	w.scratch, err = codec.EncodeElement(w.scratch[:0], e, w.codec)
	if err != nil {
		return err
	}
	w.scratchBytes += uint64(len(w.scratch))
	return w.writeChunkedLocked(w.scratch)
}

// writeChunkedLocked copies encoded element bytes into buffers, splitting
// across boundaries and honouring pending recovery cuts.
func (w *ChannelWriter) writeChunkedLocked(data []byte) error {
	for len(data) > 0 {
		if w.cur == nil {
			if w.cur = w.pool.Get(); w.cur == nil {
				return ErrWriterClosed
			}
		}
		limit := w.cur.Remaining()
		if len(w.cuts) > 0 {
			if room := w.cuts[0] - w.cur.Len(); room < limit {
				limit = room
			}
		}
		n := len(data)
		if n > limit {
			n = limit
		}
		w.cur.Data = append(w.cur.Data, data[:n]...)
		data = data[n:]
		if w.atCut() {
			if err := w.dispatchLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ScratchBytes reports the cumulative bytes that took the copying
// fallback (straddling elements and recovery-guided writes).
func (w *ChannelWriter) ScratchBytes() uint64 {
	return w.scratchBytes
}

// atCut reports whether the current buffer must be dispatched now: it is
// full, or it has reached the next recorded recovery cut.
func (w *ChannelWriter) atCut() bool {
	if w.cur == nil {
		return false
	}
	if len(w.cuts) > 0 {
		return w.cur.Len() >= w.cuts[0]
	}
	return w.cur.Remaining() == 0
}

// Flush dispatches the current buffer if it holds any bytes: the task
// calls it when it runs out of input (or its output grew too old) and on
// barriers.
func (w *ChannelWriter) Flush() error {
	if w.cur == nil || w.cur.Len() == 0 {
		return nil
	}
	// In recovery, timing-based flushes are suppressed: cuts alone
	// decide dispatch so replayed buffers are byte-identical.
	if len(w.cuts) > 0 && w.cur.Len() < w.cuts[0] {
		return nil
	}
	return w.dispatchLocked()
}

// ForceFlush dispatches the current buffer even during recovery. The task
// uses it when the determinant log is exhausted and live mode resumes.
func (w *ChannelWriter) ForceFlush() error {
	if w.cur == nil || w.cur.Len() == 0 {
		return nil
	}
	return w.dispatchLocked()
}

func (w *ChannelWriter) dispatchLocked() error {
	b := w.cur
	w.cur = nil
	if len(w.cuts) > 0 {
		w.cuts = w.cuts[1:]
	}
	return w.dispatch(b)
}

// PendingBytes reports the bytes currently buffered but not dispatched.
func (w *ChannelWriter) PendingBytes() int {
	if w.cur == nil {
		return 0
	}
	return w.cur.Len()
}
