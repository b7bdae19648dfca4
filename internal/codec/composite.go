package codec

// Hand-written codecs for the remaining scalar shapes and for the
// generic composites — []any list-state values and the map shapes the
// operators keep in state. Composites embed their elements through the
// tagged-union frame (EncodeAnyFramed), so any registered type nests;
// an element of an unregistered type fails the whole encode with an
// error naming it.
//
// Map codecs iterate keys in sorted order: their bytes feed the audit
// plane's state fingerprint, which must be identical at snapshot time
// and after restore regardless of map iteration order.
//
// Decoders check an element count against the bytes that follow it
// (every element takes at least one) before it sizes an allocation: a
// corrupt count is ErrShortBuffer, not a makeslice panic.

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// BoolCodec encodes bool values as one byte.
type BoolCodec struct{}

// EncodeAppend implements Codec.
func (BoolCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	b, ok := v.(bool)
	if !ok {
		return dst, fmt.Errorf("codec: BoolCodec got %T", v)
	}
	if b {
		return append(dst, 1), nil
	}
	return append(dst, 0), nil
}

// EncodedSize implements Sizer.
func (BoolCodec) EncodedSize(v any) int {
	if _, ok := v.(bool); !ok {
		return -1
	}
	return 1
}

// Decode implements Codec.
func (BoolCodec) Decode(b []byte) (any, error) {
	if len(b) != 1 {
		return nil, ErrTrailingBytes
	}
	switch b[0] {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return nil, fmt.Errorf("codec: invalid bool byte %d", b[0])
	}
}

// IntCodec encodes int values as zig-zag varints.
type IntCodec struct{}

// EncodeAppend implements Codec.
func (IntCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	n, ok := v.(int)
	if !ok {
		return dst, fmt.Errorf("codec: IntCodec got %T", v)
	}
	return binary.AppendVarint(dst, int64(n)), nil
}

// EncodedSize implements Sizer.
func (IntCodec) EncodedSize(v any) int {
	n, ok := v.(int)
	if !ok {
		return -1
	}
	return VarintLen(int64(n))
}

// Decode implements Codec.
func (IntCodec) Decode(b []byte) (any, error) {
	n, sz := binary.Varint(b)
	if sz <= 0 {
		return nil, ErrShortBuffer
	}
	if sz != len(b) {
		return nil, ErrTrailingBytes
	}
	return int(n), nil
}

// Uint64Codec encodes uint64 values as uvarints.
type Uint64Codec struct{}

// EncodeAppend implements Codec.
func (Uint64Codec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	n, ok := v.(uint64)
	if !ok {
		return dst, fmt.Errorf("codec: Uint64Codec got %T", v)
	}
	return binary.AppendUvarint(dst, n), nil
}

// EncodedSize implements Sizer.
func (Uint64Codec) EncodedSize(v any) int {
	n, ok := v.(uint64)
	if !ok {
		return -1
	}
	return UvarintLen(n)
}

// Decode implements Codec.
func (Uint64Codec) Decode(b []byte) (any, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, ErrShortBuffer
	}
	if sz != len(b) {
		return nil, ErrTrailingBytes
	}
	return n, nil
}

// AnySliceCodec encodes []any — the list-state shape — as a count
// followed by framed elements.
type AnySliceCodec struct{}

// EncodeAppend implements Codec.
func (AnySliceCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	s, ok := v.([]any)
	if !ok {
		return dst, fmt.Errorf("codec: AnySliceCodec got %T", v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	var err error
	for _, e := range s {
		if dst, err = EncodeAnyFramed(dst, e); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// EncodedSize implements Sizer.
func (AnySliceCodec) EncodedSize(v any) int {
	s, ok := v.([]any)
	if !ok {
		return -1
	}
	n := UvarintLen(uint64(len(s)))
	for _, e := range s {
		f := FramedSize(e)
		if f < 0 {
			return -1
		}
		n += f
	}
	return n
}

// Decode implements Codec.
func (AnySliceCodec) Decode(b []byte) (any, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, ErrShortBuffer
	}
	b = b[sz:]
	out := make([]any, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used, err := DecodeAnyFramed(b)
		if err != nil {
			return nil, err
		}
		b = b[used:]
		out = append(out, v)
	}
	if len(b) != 0 {
		return nil, ErrTrailingBytes
	}
	return out, nil
}

// Int64SliceCodec encodes []int64 as a count followed by varints.
type Int64SliceCodec struct{}

// EncodeAppend implements Codec.
func (Int64SliceCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	s, ok := v.([]int64)
	if !ok {
		return dst, fmt.Errorf("codec: Int64SliceCodec got %T", v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, n := range s {
		dst = binary.AppendVarint(dst, n)
	}
	return dst, nil
}

// EncodedSize implements Sizer.
func (Int64SliceCodec) EncodedSize(v any) int {
	s, ok := v.([]int64)
	if !ok {
		return -1
	}
	n := UvarintLen(uint64(len(s)))
	for _, e := range s {
		n += VarintLen(e)
	}
	return n
}

// Decode implements Codec.
func (Int64SliceCodec) Decode(b []byte) (any, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, ErrShortBuffer
	}
	b = b[sz:]
	out := make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		v, w := binary.Varint(b)
		if w <= 0 {
			return nil, ErrShortBuffer
		}
		b = b[w:]
		out = append(out, v)
	}
	if len(b) != 0 {
		return nil, ErrTrailingBytes
	}
	return out, nil
}

// MapInt64AnyCodec encodes map[int64]any (window pane state) with
// sorted keys and framed values.
type MapInt64AnyCodec struct{}

// EncodeAppend implements Codec.
func (MapInt64AnyCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	m, ok := v.(map[int64]any)
	if !ok {
		return dst, fmt.Errorf("codec: MapInt64AnyCodec got %T", v)
	}
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	var err error
	for _, k := range keys {
		dst = binary.AppendVarint(dst, k)
		if dst, err = EncodeAnyFramed(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// EncodedSize implements Sizer.
func (MapInt64AnyCodec) EncodedSize(v any) int {
	m, ok := v.(map[int64]any)
	if !ok {
		return -1
	}
	n := UvarintLen(uint64(len(m)))
	for k, e := range m {
		f := FramedSize(e)
		if f < 0 {
			return -1
		}
		n += VarintLen(k) + f
	}
	return n
}

// Decode implements Codec.
func (MapInt64AnyCodec) Decode(b []byte) (any, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, ErrShortBuffer
	}
	b = b[sz:]
	out := make(map[int64]any, n)
	for i := uint64(0); i < n; i++ {
		k, w := binary.Varint(b)
		if w <= 0 {
			return nil, ErrShortBuffer
		}
		b = b[w:]
		v, used, err := DecodeAnyFramed(b)
		if err != nil {
			return nil, err
		}
		b = b[used:]
		out[k] = v
	}
	if len(b) != 0 {
		return nil, ErrTrailingBytes
	}
	return out, nil
}

// MapUint64Int64Codec encodes map[uint64]int64 with sorted keys.
type MapUint64Int64Codec struct{}

// EncodeAppend implements Codec.
func (MapUint64Int64Codec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	m, ok := v.(map[uint64]int64)
	if !ok {
		return dst, fmt.Errorf("codec: MapUint64Int64Codec got %T", v)
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, k)
		dst = binary.AppendVarint(dst, m[k])
	}
	return dst, nil
}

// EncodedSize implements Sizer.
func (MapUint64Int64Codec) EncodedSize(v any) int {
	m, ok := v.(map[uint64]int64)
	if !ok {
		return -1
	}
	n := UvarintLen(uint64(len(m)))
	for k, e := range m {
		n += UvarintLen(k) + VarintLen(e)
	}
	return n
}

// Decode implements Codec.
func (MapUint64Int64Codec) Decode(b []byte) (any, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, ErrShortBuffer
	}
	b = b[sz:]
	out := make(map[uint64]int64, n)
	for i := uint64(0); i < n; i++ {
		k, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, ErrShortBuffer
		}
		b = b[w:]
		v, w2 := binary.Varint(b)
		if w2 <= 0 {
			return nil, ErrShortBuffer
		}
		b = b[w2:]
		out[k] = v
	}
	if len(b) != 0 {
		return nil, ErrTrailingBytes
	}
	return out, nil
}

// MapStringAnyCodec encodes map[string]any with sorted keys and framed
// values.
type MapStringAnyCodec struct{}

// EncodeAppend implements Codec.
func (MapStringAnyCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return dst, fmt.Errorf("codec: MapStringAnyCodec got %T", v)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	var err error
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		if dst, err = EncodeAnyFramed(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// EncodedSize implements Sizer.
func (MapStringAnyCodec) EncodedSize(v any) int {
	m, ok := v.(map[string]any)
	if !ok {
		return -1
	}
	n := UvarintLen(uint64(len(m)))
	for k, e := range m {
		f := FramedSize(e)
		if f < 0 {
			return -1
		}
		n += UvarintLen(uint64(len(k))) + len(k) + f
	}
	return n
}

// Decode implements Codec.
func (MapStringAnyCodec) Decode(b []byte) (any, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, ErrShortBuffer
	}
	b = b[sz:]
	out := make(map[string]any, n)
	for i := uint64(0); i < n; i++ {
		kl, w := binary.Uvarint(b)
		if w <= 0 || uint64(len(b)-w) < kl {
			return nil, ErrShortBuffer
		}
		k := string(b[w : w+int(kl)])
		b = b[w+int(kl):]
		v, used, err := DecodeAnyFramed(b)
		if err != nil {
			return nil, err
		}
		b = b[used:]
		out[k] = v
	}
	if len(b) != 0 {
		return nil, ErrTrailingBytes
	}
	return out, nil
}
