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
// A buffer is dispatched when it is full or when the task calls Flush.
// Which flushes cut a partial buffer depends on when the task ran out of
// input, so the dispatch layer logs every buffer's size as a BUFFERSIZE
// determinant; during causally guided recovery the task calls Flush where
// those determinants say its predecessor did, and the writer reproduces
// byte-identical buffers.
//
// A writer has one owner at a time — the task's main thread, or whoever
// prepares the task before that thread starts — and is not safe for
// concurrent use.
type ChannelWriter struct {
	pool     *buffer.Pool
	cur      *buffer.Buffer
	codec    codec.Codec
	dispatch func(*buffer.Buffer) error

	// scratchBytes counts bytes that took the copying fallback path (an
	// element straddled a buffer boundary) — the residual copy cost of the
	// direct-encode fast path.
	scratchBytes uint64
}

// NewChannelWriter builds a writer drawing buffers from pool and invoking
// dispatch for every completed buffer. The dispatch callback takes
// ownership of the buffer.
func NewChannelWriter(pool *buffer.Pool, c codec.Codec, dispatch func(*buffer.Buffer) error) *ChannelWriter {
	return &ChannelWriter{pool: pool, codec: c, dispatch: dispatch}
}

// WriteElement serializes e into the current buffer, dispatching buffers
// as they fill.
//
// The element is encoded directly into the current buffer's remaining
// room — no scratch encode, no copy. When it does not fit, the encoded
// bytes are chunked across buffers, so the byte stream and cut positions
// are those of a writer that copied every element.
func (w *ChannelWriter) WriteElement(e types.Element) error {
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
		// The encoder appended monotonically and the final length fits,
		// so it never reallocated: the bytes landed in the buffer's own
		// backing array.
		w.cur.Data = ext
		if w.cur.Remaining() == 0 {
			return w.dispatchLocked()
		}
		return nil
	}
	// The element overflowed: the encoder grew into a fresh array and the
	// buffer itself is untouched. Chunk the encoded bytes across buffers
	// (the first chunk fills the current buffer's room).
	data := ext[len(base):]
	w.scratchBytes += uint64(len(data))
	for len(data) > 0 {
		if w.cur == nil {
			if w.cur = w.pool.Get(); w.cur == nil {
				return ErrWriterClosed
			}
		}
		n := min(len(data), w.cur.Remaining())
		w.cur.Data = append(w.cur.Data, data[:n]...)
		data = data[n:]
		if w.cur.Remaining() == 0 {
			if err := w.dispatchLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ScratchBytes reports the cumulative bytes that took the copying
// fallback (elements straddling a buffer boundary).
func (w *ChannelWriter) ScratchBytes() uint64 {
	return w.scratchBytes
}

// Flush dispatches the current buffer if it holds any bytes: the task
// calls it when it runs out of input (or its output grew too old), on
// barriers and at end of stream.
func (w *ChannelWriter) Flush() error {
	if w.cur == nil || w.cur.Len() == 0 {
		return nil
	}
	return w.dispatchLocked()
}

func (w *ChannelWriter) dispatchLocked() error {
	b := w.cur
	w.cur = nil
	return w.dispatch(b)
}

// PendingBytes reports the bytes currently buffered but not dispatched.
func (w *ChannelWriter) PendingBytes() int {
	if w.cur == nil {
		return 0
	}
	return w.cur.Len()
}
