package codec

// The codec registry: a concrete-type → codec map with a one-byte type
// tag per registered type, so values of mixed concrete types can be
// encoded reflection-free on edges (Auto), inside snapshots
// (EncodeAnyFramed), and recursively inside composite values ([]any,
// map[...]any). It is the only way a value becomes bytes: a value of a
// type nobody registered is an encode error that names the type.
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

// TypeTag identifies a concrete value type in the registry's
// tagged-union encoding.
type TypeTag uint8

// Built-in tags. TagNil marks a nil interface value. TagGob is reserved:
// it framed a reflective encoding/gob fallback for unregistered types
// until the registry became the only tier, and stays unassigned — never
// written, an error to decode — so every other tag keeps its number.
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
	byTag  [256]SizedCodec
	next   TypeTag
}

type regEntry struct {
	tag TypeTag
	c   SizedCodec
}

var (
	regMu    sync.Mutex // serializes RegisterType
	registry atomic.Pointer[regState]
)

func init() {
	st := &regState{byType: make(map[reflect.Type]regEntry), next: firstCustomTag}
	builtin := func(tag TypeTag, sample any, c SizedCodec) {
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
	registry.Store(st)
}

// RegisterType binds a hand-written codec to sample's concrete type and
// assigns it a tag. Values of that type then encode through c everywhere
// the engine serializes them: Auto edges, snapshot frames, fingerprints,
// and nested inside composite values. Call it from init();
// registering the same type twice with a different codec panics, while
// an identical re-registration is a no-op. Codecs whose type holds maps
// or other unordered containers must encode deterministically (sorted
// iteration) — snapshot fingerprints hash these bytes.
func RegisterType(sample any, c SizedCodec) {
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

// resolve maps a value to its tag and codec; a type nobody registered is
// an error. The type switch keeps the common scalar shapes off the
// reflect path entirely.
func resolve(v any) (TypeTag, SizedCodec, error) {
	switch v.(type) {
	case nil:
		return TagNil, nil, nil
	case int64:
		return TagInt64, Int64Codec{}, nil
	case float64:
		return TagFloat64, Float64Codec{}, nil
	case string:
		return TagString, StringCodec{}, nil
	case []byte:
		return TagBytes, BytesCodec{}, nil
	case bool:
		return TagBool, BoolCodec{}, nil
	case int:
		return TagInt, IntCodec{}, nil
	case uint64:
		return TagUint64, Uint64Codec{}, nil
	case []any:
		return TagAnySlice, AnySliceCodec{}, nil
	}
	if e, ok := registry.Load().byType[reflect.TypeOf(v)]; ok {
		return e.tag, e.c, nil
	}
	return 0, nil, fmt.Errorf("codec: no codec registered for %T; call clonos.RegisterCodec", v)
}

// codecForTag returns the codec decoding the given tag.
func codecForTag(tag TypeTag) (Codec, error) {
	if c := registry.Load().byTag[tag]; c != nil {
		return c, nil
	}
	return nil, fmt.Errorf("codec: unknown type tag %d", tag)
}

// EncodeAny appends the tagged (but unframed) encoding of v: one tag
// byte followed by the payload, which must extend to the end of the
// buffer handed to DecodeAny. It is the edge-level form used by Auto.
func EncodeAny(dst []byte, v any) ([]byte, error) {
	tag, c, err := resolve(v)
	if err != nil {
		return dst, err
	}
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
	c, err := codecForTag(tag)
	if err != nil {
		return nil, err
	}
	return c.Decode(b[1:])
}

// EncodeAnyFramed appends `tag | uvarint(len(payload)) | payload` — the
// self-delimiting form composites and snapshot frames embed. The length
// is written at final width up front and the payload appended behind it,
// so no encoded byte ever moves.
func EncodeAnyFramed(dst []byte, v any) ([]byte, error) {
	tag, c, err := resolve(v)
	if err != nil {
		return dst, err
	}
	if tag == TagNil {
		return append(dst, byte(TagNil), 0), nil
	}
	// A negative size means c cannot encode v; EncodeAppend then says why
	// (for a composite: which nested type has no codec).
	n := c.EncodedSize(v)
	start := len(dst)
	dst = binary.AppendUvarint(append(dst, byte(tag)), uint64(n))
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

// FramedSize reports how many bytes EncodeAnyFramed appends for v;
// negative when EncodeAnyFramed would return an error instead.
func FramedSize(v any) int {
	tag, c, err := resolve(v)
	if err != nil {
		return -1
	}
	if tag == TagNil {
		return 2
	}
	n := c.EncodedSize(v)
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
	c, err := codecForTag(tag)
	if err != nil {
		return nil, 0, err
	}
	v, err = c.Decode(b[1+sz : consumed])
	if err != nil {
		return nil, 0, err
	}
	return v, consumed, nil
}

// Auto is the default edge codec: it encodes each value through the
// registry (one tag byte + the registered codec's payload); a value of an
// unregistered type fails the task with an error naming the type.
// Pipelines that know an edge's exact type can pin the bare codec with
// Stream.EdgeCodec and save the tag byte.
type Auto struct{}

// EncodeAppend implements Codec.
func (Auto) EncodeAppend(dst []byte, v any) ([]byte, error) { return EncodeAny(dst, v) }

// Decode implements Codec.
func (Auto) Decode(b []byte) (any, error) { return DecodeAny(b) }
