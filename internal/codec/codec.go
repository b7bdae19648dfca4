// Package codec provides binary wire encoding for stream elements.
//
// Values crossing a task boundary are serialized by a Codec into a byte
// payload; the element envelope (kind, key, timestamp) is encoded by this
// package. Each encoded element is length-prefixed so that a per-channel
// deserializer can reassemble elements that span network-buffer boundaries.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"clonos/internal/types"
)

// Codec serializes and deserializes the payload values of data records.
// Implementations must be safe for concurrent use.
type Codec interface {
	// EncodeAppend appends the encoding of v to dst and returns the
	// extended slice.
	EncodeAppend(dst []byte, v any) ([]byte, error)
	// Decode decodes a value from exactly the bytes in b.
	Decode(b []byte) (any, error)
}

// Sizer reports len(EncodeAppend(nil, v)) without encoding anything, in
// the style of io.WriterTo, so a caller can allocate its output once at
// the exact size and write a length prefix at its final width up front. A
// negative result means v cannot be encoded — it is not the codec's type,
// or nests a value of a type nobody registered — and EncodeAppend of the
// same value returns the error that says which.
type Sizer interface {
	EncodedSize(v any) int
}

// SizedCodec is what the registry takes (RegisterType): every value that
// is framed — in a snapshot, a fingerprint, or nested inside a composite
// — is sized first. A codec pinned to one edge (Stream.EdgeCodec) writes
// unframed bytes and can stay a plain Codec.
type SizedCodec interface {
	Codec
	Sizer
}

// UvarintLen reports how many bytes binary.AppendUvarint writes for x.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// VarintLen reports how many bytes binary.AppendVarint writes for x.
func VarintLen(x int64) int { return UvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// ErrShortBuffer is returned by decoding routines when the input does not
// contain a complete encoding.
var ErrShortBuffer = errors.New("codec: short buffer")

// ErrTrailingBytes is returned when a decode consumed a complete value
// but input bytes remain — a framing bug upstream (Decode receives
// exactly one value's bytes), which must surface instead of being
// silently accepted.
var ErrTrailingBytes = errors.New("codec: trailing bytes after value")

// Int64Codec encodes int64 values as zig-zag varints.
type Int64Codec struct{}

// EncodeAppend implements Codec.
func (Int64Codec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	n, ok := v.(int64)
	if !ok {
		return dst, fmt.Errorf("codec: Int64Codec got %T", v)
	}
	return binary.AppendVarint(dst, n), nil
}

// EncodedSize implements Sizer.
func (Int64Codec) EncodedSize(v any) int {
	n, ok := v.(int64)
	if !ok {
		return -1
	}
	return VarintLen(n)
}

// Decode implements Codec.
func (Int64Codec) Decode(b []byte) (any, error) {
	n, sz := binary.Varint(b)
	if sz <= 0 {
		return nil, ErrShortBuffer
	}
	if sz != len(b) {
		return nil, ErrTrailingBytes
	}
	return n, nil
}

// Float64Codec encodes float64 values as fixed 8-byte big-endian bits.
type Float64Codec struct{}

// EncodeAppend implements Codec.
func (Float64Codec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	f, ok := v.(float64)
	if !ok {
		return dst, fmt.Errorf("codec: Float64Codec got %T", v)
	}
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f)), nil
}

// EncodedSize implements Sizer.
func (Float64Codec) EncodedSize(v any) int {
	if _, ok := v.(float64); !ok {
		return -1
	}
	return 8
}

// Decode implements Codec.
func (Float64Codec) Decode(b []byte) (any, error) {
	if len(b) < 8 {
		return nil, ErrShortBuffer
	}
	if len(b) != 8 {
		return nil, ErrTrailingBytes
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
}

// StringCodec encodes string values as raw bytes.
type StringCodec struct{}

// EncodeAppend implements Codec.
func (StringCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return dst, fmt.Errorf("codec: StringCodec got %T", v)
	}
	return append(dst, s...), nil
}

// EncodedSize implements Sizer.
func (StringCodec) EncodedSize(v any) int {
	s, ok := v.(string)
	if !ok {
		return -1
	}
	return len(s)
}

// Decode implements Codec.
func (StringCodec) Decode(b []byte) (any, error) {
	return string(b), nil
}

// BytesCodec passes []byte payloads through unchanged. Decode aliases the
// input, so callers must not retain the source buffer.
type BytesCodec struct{}

// EncodeAppend implements Codec.
func (BytesCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	b, ok := v.([]byte)
	if !ok {
		return dst, fmt.Errorf("codec: BytesCodec got %T", v)
	}
	return append(dst, b...), nil
}

// EncodedSize implements Sizer.
func (BytesCodec) EncodedSize(v any) int {
	b, ok := v.([]byte)
	if !ok {
		return -1
	}
	return len(b)
}

// Decode implements Codec.
func (BytesCodec) Decode(b []byte) (any, error) {
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// EncodeElement appends the length-prefixed wire form of e to dst using c
// for the record payload.
//
// Wire format (after the uint32 big-endian length prefix covering the rest):
//
//	kind      uint8
//	record:    key uvarint | ts varint | payload...
//	watermark: ts varint
//	barrier:   checkpoint uvarint
//	eos:       (nothing)
//	latency:   ts varint
func EncodeElement(dst []byte, e types.Element, c Codec) ([]byte, error) {
	// Reserve the 4-byte length prefix and fill it in at the end.
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, byte(e.Kind))
	var err error
	switch e.Kind {
	case types.KindRecord:
		dst = binary.AppendUvarint(dst, e.Key)
		dst = binary.AppendVarint(dst, e.Timestamp)
		dst, err = c.EncodeAppend(dst, e.Value)
		if err != nil {
			return dst[:start], err
		}
	case types.KindWatermark:
		dst = binary.AppendVarint(dst, e.Timestamp)
	case types.KindBarrier:
		dst = binary.AppendUvarint(dst, uint64(e.Checkpoint))
	case types.KindEndOfStream:
		// no body
	case types.KindLatencyMarker:
		dst = binary.AppendVarint(dst, e.Timestamp)
	default:
		return dst[:start], fmt.Errorf("codec: cannot encode element kind %v", e.Kind)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

// DecodeElement decodes one complete element body (without its length
// prefix) from b.
func DecodeElement(b []byte, c Codec) (types.Element, error) {
	if len(b) < 1 {
		return types.Element{}, ErrShortBuffer
	}
	kind := types.Kind(b[0])
	body := b[1:]
	switch kind {
	case types.KindRecord:
		key, n := binary.Uvarint(body)
		if n <= 0 {
			return types.Element{}, ErrShortBuffer
		}
		body = body[n:]
		ts, n := binary.Varint(body)
		if n <= 0 {
			return types.Element{}, ErrShortBuffer
		}
		body = body[n:]
		v, err := c.Decode(body)
		if err != nil {
			return types.Element{}, err
		}
		return types.Element{Kind: types.KindRecord, Key: key, Timestamp: ts, Value: v}, nil
	case types.KindWatermark:
		ts, n := binary.Varint(body)
		if n <= 0 {
			return types.Element{}, ErrShortBuffer
		}
		return types.Watermark(ts), nil
	case types.KindBarrier:
		id, n := binary.Uvarint(body)
		if n <= 0 {
			return types.Element{}, ErrShortBuffer
		}
		return types.Barrier(types.CheckpointID(id)), nil
	case types.KindEndOfStream:
		return types.EndOfStream(), nil
	case types.KindLatencyMarker:
		ts, n := binary.Varint(body)
		if n <= 0 {
			return types.Element{}, ErrShortBuffer
		}
		return types.LatencyMarker(ts), nil
	default:
		return types.Element{}, fmt.Errorf("codec: unknown element kind %d", b[0])
	}
}
