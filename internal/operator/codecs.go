package operator

// Codecs for the operator-state shapes: every value an operator keeps in
// keyed state is registered here, which is what lets snapshots, delta
// snapshots and audit fingerprints encode it at all (the registry is the
// only way a value becomes bytes). Interface-typed fields (accumulators,
// window panes, join buffers) nest through codec.EncodeAnyFramed, which
// recurses into the registry.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"clonos/internal/codec"
)

func init() {
	codec.RegisterType(wmState{}, wmStateCodec{})
	codec.RegisterType(avgAcc{}, avgAccCodec{})
	codec.RegisterType(maxAcc{}, maxAccCodec{})
	codec.RegisterType(WindowResult{}, windowResultCodec{})
	codec.RegisterType([]sessionState{}, sessionSliceCodec{})
	codec.RegisterType(&joinAcc{}, joinAccCodec{})
	codec.RegisterType(map[int64]*joinAcc{}, joinAccMapCodec{})
}

// wmStateCodec encodes the source's watermark-generation state.
type wmStateCodec struct{}

// EncodeAppend implements codec.Codec.
func (wmStateCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	s, ok := v.(wmState)
	if !ok {
		return dst, fmt.Errorf("operator: wmStateCodec got %T", v)
	}
	dst = binary.AppendVarint(dst, s.MaxTs)
	dst = binary.AppendVarint(dst, s.Count)
	return binary.AppendVarint(dst, s.LastWm), nil
}

// EncodedSize implements codec.Sizer.
func (wmStateCodec) EncodedSize(v any) int {
	s, ok := v.(wmState)
	if !ok {
		return -1
	}
	return codec.VarintLen(s.MaxTs) + codec.VarintLen(s.Count) + codec.VarintLen(s.LastWm)
}

// Decode implements codec.Codec.
func (wmStateCodec) Decode(b []byte) (any, error) {
	var s wmState
	i := 0
	for _, f := range []*int64{&s.MaxTs, &s.Count, &s.LastWm} {
		v, n := binary.Varint(b[i:])
		if n <= 0 {
			return nil, codec.ErrShortBuffer
		}
		*f = v
		i += n
	}
	if i != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	return s, nil
}

// avgAccCodec encodes the AvgFloat accumulator.
type avgAccCodec struct{}

// EncodeAppend implements codec.Codec.
func (avgAccCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	a, ok := v.(avgAcc)
	if !ok {
		return dst, fmt.Errorf("operator: avgAccCodec got %T", v)
	}
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Sum))
	return binary.AppendVarint(dst, a.N), nil
}

// EncodedSize implements codec.Sizer.
func (avgAccCodec) EncodedSize(v any) int {
	a, ok := v.(avgAcc)
	if !ok {
		return -1
	}
	return 8 + codec.VarintLen(a.N)
}

// Decode implements codec.Codec.
func (avgAccCodec) Decode(b []byte) (any, error) {
	if len(b) < 9 {
		return nil, codec.ErrShortBuffer
	}
	var a avgAcc
	a.Sum = math.Float64frombits(binary.BigEndian.Uint64(b))
	n, w := binary.Varint(b[8:])
	if w <= 0 {
		return nil, codec.ErrShortBuffer
	}
	if 8+w != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	a.N = n
	return a, nil
}

// maxAccCodec encodes the MaxBy accumulator; Best is interface-typed
// and nests through the tagged-union frame.
type maxAccCodec struct{}

// EncodeAppend implements codec.Codec.
func (maxAccCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	a, ok := v.(maxAcc)
	if !ok {
		return dst, fmt.Errorf("operator: maxAccCodec got %T", v)
	}
	valid := byte(0)
	if a.Valid {
		valid = 1
	}
	dst = append(dst, valid)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Score))
	return codec.EncodeAnyFramed(dst, a.Best)
}

// EncodedSize implements codec.Sizer.
func (maxAccCodec) EncodedSize(v any) int {
	a, ok := v.(maxAcc)
	if !ok {
		return -1
	}
	return sized(9, codec.FramedSize(a.Best))
}

// Decode implements codec.Codec.
func (maxAccCodec) Decode(b []byte) (any, error) {
	if len(b) < 9 {
		return nil, codec.ErrShortBuffer
	}
	a := maxAcc{Valid: b[0] != 0, Score: math.Float64frombits(binary.BigEndian.Uint64(b[1:]))}
	best, used, err := codec.DecodeAnyFramed(b[9:])
	if err != nil {
		return nil, err
	}
	if 9+used != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	a.Best = best
	return a, nil
}

// windowResultCodec encodes the wrapped window emission.
type windowResultCodec struct{}

// EncodeAppend implements codec.Codec.
func (windowResultCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	r, ok := v.(WindowResult)
	if !ok {
		return dst, fmt.Errorf("operator: windowResultCodec got %T", v)
	}
	dst = binary.AppendUvarint(dst, r.Key)
	dst = binary.AppendVarint(dst, r.Start)
	dst = binary.AppendVarint(dst, r.End)
	return codec.EncodeAnyFramed(dst, r.Value)
}

// EncodedSize implements codec.Sizer.
func (windowResultCodec) EncodedSize(v any) int {
	r, ok := v.(WindowResult)
	if !ok {
		return -1
	}
	return sized(codec.UvarintLen(r.Key)+codec.VarintLen(r.Start)+codec.VarintLen(r.End), codec.FramedSize(r.Value))
}

// Decode implements codec.Codec.
func (windowResultCodec) Decode(b []byte) (any, error) {
	var r WindowResult
	key, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, codec.ErrShortBuffer
	}
	i := n
	r.Key = key
	start, n := binary.Varint(b[i:])
	if n <= 0 {
		return nil, codec.ErrShortBuffer
	}
	i += n
	r.Start = start
	end, n := binary.Varint(b[i:])
	if n <= 0 {
		return nil, codec.ErrShortBuffer
	}
	i += n
	r.End = end
	val, used, err := codec.DecodeAnyFramed(b[i:])
	if err != nil {
		return nil, err
	}
	if i+used != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	r.Value = val
	return r, nil
}

// sessionSliceCodec encodes a key's open session windows.
type sessionSliceCodec struct{}

// EncodeAppend implements codec.Codec.
func (sessionSliceCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	ss, ok := v.([]sessionState)
	if !ok {
		return dst, fmt.Errorf("operator: sessionSliceCodec got %T", v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	var err error
	for _, s := range ss {
		dst = binary.AppendVarint(dst, s.Start)
		dst = binary.AppendVarint(dst, s.End)
		if dst, err = codec.EncodeAnyFramed(dst, s.Acc); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// EncodedSize implements codec.Sizer.
func (sessionSliceCodec) EncodedSize(v any) int {
	ss, ok := v.([]sessionState)
	if !ok {
		return -1
	}
	n := codec.UvarintLen(uint64(len(ss)))
	for _, s := range ss {
		if n = sized(n+codec.VarintLen(s.Start)+codec.VarintLen(s.End), codec.FramedSize(s.Acc)); n < 0 {
			return -1
		}
	}
	return n
}

// Decode implements codec.Codec.
func (sessionSliceCodec) Decode(b []byte) (any, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, codec.ErrShortBuffer
	}
	b = b[sz:]
	out := make([]sessionState, 0, n)
	for i := uint64(0); i < n; i++ {
		var s sessionState
		start, w := binary.Varint(b)
		if w <= 0 {
			return nil, codec.ErrShortBuffer
		}
		b = b[w:]
		s.Start = start
		end, w := binary.Varint(b)
		if w <= 0 {
			return nil, codec.ErrShortBuffer
		}
		b = b[w:]
		s.End = end
		acc, used, err := codec.DecodeAnyFramed(b)
		if err != nil {
			return nil, err
		}
		b = b[used:]
		s.Acc = acc
		out = append(out, s)
	}
	if len(b) != 0 {
		return nil, codec.ErrTrailingBytes
	}
	return out, nil
}

// joinAccCodec encodes one window-join buffer (*joinAcc, the pointer
// shape the operator stores).
type joinAccCodec struct{}

func encodeAnySlice(dst []byte, s []any) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	var err error
	for _, e := range s {
		if dst, err = codec.EncodeAnyFramed(dst, e); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// sized adds two encoded sizes, staying negative ("cannot be encoded",
// see codec.Sizer) when either is.
func sized(a, b int) int {
	if a < 0 || b < 0 {
		return -1
	}
	return a + b
}

// anySliceSize sizes what encodeAnySlice writes, which is the built-in
// []any encoding.
func anySliceSize(s []any) int { return codec.AnySliceCodec{}.EncodedSize(s) }

func decodeAnySlice(b []byte) ([]any, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, 0, codec.ErrShortBuffer
	}
	i := sz
	out := make([]any, 0, n)
	for k := uint64(0); k < n; k++ {
		v, used, err := codec.DecodeAnyFramed(b[i:])
		if err != nil {
			return nil, 0, err
		}
		i += used
		out = append(out, v)
	}
	return out, i, nil
}

// EncodeAppend implements codec.Codec.
func (joinAccCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	a, ok := v.(*joinAcc)
	if !ok {
		return dst, fmt.Errorf("operator: joinAccCodec got %T", v)
	}
	dst, err := encodeAnySlice(dst, a.Left)
	if err != nil {
		return dst, err
	}
	return encodeAnySlice(dst, a.Right)
}

// EncodedSize implements codec.Sizer.
func (joinAccCodec) EncodedSize(v any) int {
	a, ok := v.(*joinAcc)
	if !ok {
		return -1
	}
	return sized(anySliceSize(a.Left), anySliceSize(a.Right))
}

// Decode implements codec.Codec.
func (joinAccCodec) Decode(b []byte) (any, error) {
	left, n, err := decodeAnySlice(b)
	if err != nil {
		return nil, err
	}
	right, n2, err := decodeAnySlice(b[n:])
	if err != nil {
		return nil, err
	}
	if n+n2 != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	return &joinAcc{Left: left, Right: right}, nil
}

// joinAccMapCodec encodes the per-key window map of WindowJoin with
// sorted keys (fingerprint determinism).
type joinAccMapCodec struct{}

// EncodeAppend implements codec.Codec.
func (joinAccMapCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	m, ok := v.(map[int64]*joinAcc)
	if !ok {
		return dst, fmt.Errorf("operator: joinAccMapCodec got %T", v)
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
		if dst, err = (joinAccCodec{}).EncodeAppend(dst, m[k]); err != nil {
			return dst, err
		}
		// Each joinAcc is self-delimiting (two counted slices), so no
		// per-entry length frame is needed.
	}
	return dst, nil
}

// EncodedSize implements codec.Sizer.
func (joinAccMapCodec) EncodedSize(v any) int {
	m, ok := v.(map[int64]*joinAcc)
	if !ok {
		return -1
	}
	n := codec.UvarintLen(uint64(len(m)))
	for k, a := range m {
		if n = sized(n+codec.VarintLen(k), (joinAccCodec{}).EncodedSize(a)); n < 0 {
			return -1
		}
	}
	return n
}

// Decode implements codec.Codec.
func (joinAccMapCodec) Decode(b []byte) (any, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, codec.ErrShortBuffer
	}
	b = b[sz:]
	out := make(map[int64]*joinAcc, n)
	for i := uint64(0); i < n; i++ {
		k, w := binary.Varint(b)
		if w <= 0 {
			return nil, codec.ErrShortBuffer
		}
		b = b[w:]
		left, used, err := decodeAnySlice(b)
		if err != nil {
			return nil, err
		}
		b = b[used:]
		right, used2, err := decodeAnySlice(b)
		if err != nil {
			return nil, err
		}
		b = b[used2:]
		out[k] = &joinAcc{Left: left, Right: right}
	}
	if len(b) != 0 {
		return nil, codec.ErrTrailingBytes
	}
	return out, nil
}
