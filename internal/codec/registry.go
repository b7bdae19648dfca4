package codec

// The typed codec tier: a concrete-type → codec registry with a one-byte
// type tag per registered type, so values of mixed concrete types can be
// encoded reflection-free on edges (Auto), inside snapshots
// (EncodeAnyFramed), and recursively inside composite values ([]any,
// map[...]any). encoding/gob remains only as the final fallback for
// unregistered types, under its own tag.
//
// Tags are process-local: built-in shapes hold fixed tags, custom types
// are numbered in registration (init) order. Every artifact carrying
// tagged encodings (statestore snapshot frames, audit fingerprints) is a
// process-lifetime artifact in this engine, and the snapshot frames are
// additionally versioned so a foreign image is rejected, not misdecoded.

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// TypeTag identifies a concrete value type in the typed tier's
// tagged-union encoding.
type TypeTag uint8

// Built-in tags. TagNil marks a nil interface value (which gob cannot
// encode at all); TagGob frames a reflective encoding/gob fallback for
// types never registered with RegisterType.
const (
	TagNil TypeTag = iota
	TagGob
	TagInt64
	TagFloat64
	TagString
	TagBytes
	TagBool
	TagInt
	TagUint64
	TagAnySlice       // []any (list state)
	TagInt64Slice     // []int64
	TagMapInt64Any    // map[int64]any
	TagMapUint64Int64 // map[uint64]int64
	TagMapStringAny   // map[string]any

	// firstCustomTag is where RegisterType starts numbering.
	firstCustomTag TypeTag = 16
)

// regState is the immutable registry image. Registration copies and
// atomically replaces it, so the encode/decode hot path reads it without
// locking.
type regState struct {
	byType map[reflect.Type]regEntry
	byTag  [256]Codec
	next   TypeTag
}

type regEntry struct {
	tag TypeTag
	c   Codec
}

var (
	regMu    sync.Mutex // serializes RegisterType
	registry atomic.Pointer[regState]
)

func init() {
	st := &regState{byType: make(map[reflect.Type]regEntry), next: firstCustomTag}
	builtin := func(tag TypeTag, sample any, c Codec) {
		st.byType[reflect.TypeOf(sample)] = regEntry{tag: tag, c: c}
		st.byTag[tag] = c
	}
	builtin(TagInt64, int64(0), Int64Codec{})
	builtin(TagFloat64, float64(0), Float64Codec{})
	builtin(TagString, "", StringCodec{})
	builtin(TagBytes, []byte(nil), BytesCodec{})
	builtin(TagBool, false, BoolCodec{})
	builtin(TagInt, int(0), IntCodec{})
	builtin(TagUint64, uint64(0), Uint64Codec{})
	builtin(TagAnySlice, []any(nil), AnySliceCodec{})
	builtin(TagInt64Slice, []int64(nil), Int64SliceCodec{})
	builtin(TagMapInt64Any, map[int64]any(nil), MapInt64AnyCodec{})
	builtin(TagMapUint64Int64, map[uint64]int64(nil), MapUint64Int64Codec{})
	builtin(TagMapStringAny, map[string]any(nil), MapStringAnyCodec{})
	st.byTag[TagGob] = GobCodec{}
	registry.Store(st)
}

// RegisterType binds a hand-written codec to sample's concrete type and
// assigns it a tag in the typed tier. Values of that type then encode
// through c everywhere the tier runs: Auto edges, snapshot frames,
// fingerprints, and nested inside composite values. Call it from init();
// registering the same type twice with a different codec panics, while
// an identical re-registration is a no-op. Codecs whose type holds maps
// or other unordered containers must encode deterministically (sorted
// iteration) — snapshot fingerprints hash these bytes.
func RegisterType(sample any, c Codec) {
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("codec: RegisterType with nil sample")
	}
	regMu.Lock()
	defer regMu.Unlock()
	old := registry.Load()
	if e, ok := old.byType[t]; ok {
		if reflect.TypeOf(e.c) == reflect.TypeOf(c) {
			return
		}
		panic(fmt.Sprintf("codec: type %v already registered with %T", t, e.c))
	}
	if old.next == 0 { // wrapped past 255
		panic("codec: type tag space exhausted")
	}
	st := &regState{byType: make(map[reflect.Type]regEntry, len(old.byType)+1), next: old.next + 1}
	for k, v := range old.byType {
		st.byType[k] = v
	}
	st.byTag = old.byTag
	st.byType[t] = regEntry{tag: old.next, c: c}
	st.byTag[old.next] = c
	registry.Store(st)
}

// TypedFor returns the registered codec for v's concrete type (built-in
// or custom), and whether one exists. It never returns the gob fallback.
func TypedFor(v any) (Codec, bool) {
	if v == nil {
		return nil, false
	}
	e, ok := registry.Load().byType[reflect.TypeOf(v)]
	return e.c, ok
}

// resolve maps a value to its tag and codec, taking the gob fallback for
// unregistered types. The type switch keeps the common scalar shapes off
// the reflect path entirely.
func resolve(v any) (TypeTag, Codec) {
	switch v.(type) {
	case nil:
		return TagNil, nil
	case int64:
		return TagInt64, Int64Codec{}
	case float64:
		return TagFloat64, Float64Codec{}
	case string:
		return TagString, StringCodec{}
	case []byte:
		return TagBytes, BytesCodec{}
	case bool:
		return TagBool, BoolCodec{}
	case int:
		return TagInt, IntCodec{}
	case uint64:
		return TagUint64, Uint64Codec{}
	case []any:
		return TagAnySlice, AnySliceCodec{}
	}
	if e, ok := registry.Load().byType[reflect.TypeOf(v)]; ok {
		return e.tag, e.c
	}
	return TagGob, GobCodec{}
}

// codecForTag returns the codec decoding the given tag.
func codecForTag(tag TypeTag) (Codec, bool) {
	c := registry.Load().byTag[tag]
	return c, c != nil
}

// EncodeAny appends the tagged (but unframed) encoding of v: one tag
// byte followed by the payload, which must extend to the end of the
// buffer handed to DecodeAny. It is the edge-level form used by Auto.
func EncodeAny(dst []byte, v any) ([]byte, error) {
	tag, c := resolve(v)
	dst = append(dst, byte(tag))
	if tag == TagNil {
		return dst, nil
	}
	return c.EncodeAppend(dst, v)
}

// DecodeAny decodes a tagged encoding occupying exactly b.
func DecodeAny(b []byte) (any, error) {
	if len(b) < 1 {
		return nil, ErrShortBuffer
	}
	tag := TypeTag(b[0])
	if tag == TagNil {
		if len(b) != 1 {
			return nil, ErrTrailingBytes
		}
		return nil, nil
	}
	c, ok := codecForTag(tag)
	if !ok {
		return nil, fmt.Errorf("codec: unknown type tag %d", tag)
	}
	return c.Decode(b[1:])
}

// EncodeAnyFramed appends `tag | uvarint(len(payload)) | payload` — the
// self-delimiting form composites and snapshot frames embed. A codec
// that is a Sizer has its length written at final width up front and its
// payload appended behind it, so no encoded byte ever moves. For the
// rest — user codecs without EncodedSize, and the gob fallback — the
// length slot is reserved at one byte and a payload of 128 bytes or more
// is shifted right once when its varint width is known.
func EncodeAnyFramed(dst []byte, v any) ([]byte, error) {
	tag, c := resolve(v)
	if tag == TagNil {
		return append(dst, byte(TagNil), 0), nil
	}
	start := len(dst)
	dst = append(dst, byte(tag))
	if n := encodedSize(c, v); n >= 0 {
		dst = binary.AppendUvarint(dst, uint64(n))
		body := len(dst)
		out, err := c.EncodeAppend(dst, v)
		if err != nil {
			return dst[:start], err
		}
		if len(out)-body != n {
			return dst[:start], fmt.Errorf("codec: %T.EncodedSize reported %d bytes, EncodeAppend wrote %d", c, n, len(out)-body)
		}
		return out, nil
	}
	lenPos := len(dst)
	dst = append(dst, 0)
	out, err := c.EncodeAppend(dst, v)
	if err != nil {
		return dst[:start], err
	}
	n := len(out) - lenPos - 1
	if n < 0x80 {
		out[lenPos] = byte(n)
		return out, nil
	}
	var lb [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(lb[:], uint64(n))
	out = append(out, lb[:w-1]...)
	copy(out[lenPos+w:], out[lenPos+1:lenPos+1+n])
	copy(out[lenPos:lenPos+w], lb[:w])
	return out, nil
}

// encodedSize is c's EncodedSize of v, or -1 when c is not a Sizer.
func encodedSize(c Codec, v any) int {
	if s, ok := c.(Sizer); ok {
		return s.EncodedSize(v)
	}
	return -1
}

// FramedSize reports how many bytes EncodeAnyFramed appends for v, or -1
// when v's codec cannot size it.
func FramedSize(v any) int {
	tag, c := resolve(v)
	if tag == TagNil {
		return 2
	}
	n := encodedSize(c, v)
	if n < 0 {
		return -1
	}
	return 1 + UvarintLen(uint64(n)) + n
}

// DecodeAnyFramed decodes one framed value from the front of b and
// reports how many bytes it consumed.
func DecodeAnyFramed(b []byte) (v any, consumed int, err error) {
	if len(b) < 2 {
		return nil, 0, ErrShortBuffer
	}
	tag := TypeTag(b[0])
	n, sz := binary.Uvarint(b[1:])
	if sz <= 0 || uint64(len(b)-1-sz) < n {
		return nil, 0, ErrShortBuffer
	}
	consumed = 1 + sz + int(n)
	if tag == TagNil {
		if n != 0 {
			return nil, 0, ErrTrailingBytes
		}
		return nil, consumed, nil
	}
	c, ok := codecForTag(tag)
	if !ok {
		return nil, 0, fmt.Errorf("codec: unknown type tag %d", tag)
	}
	v, err = c.Decode(b[1+sz : consumed])
	if err != nil {
		return nil, 0, err
	}
	return v, consumed, nil
}

// Auto is the default edge codec: it encodes each value through the
// typed tier (one tag byte + the registered codec's payload) and falls
// back to encoding/gob only for types never registered. Pipelines that
// know an edge's exact type can pin the bare codec with
// Stream.EdgeCodec and save the tag byte.
type Auto struct{}

// EncodeAppend implements Codec.
func (Auto) EncodeAppend(dst []byte, v any) ([]byte, error) { return EncodeAny(dst, v) }

// Decode implements Codec.
func (Auto) Decode(b []byte) (any, error) { return DecodeAny(b) }
