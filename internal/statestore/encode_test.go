package statestore

// Tests of the size → allocate → fill encoder: byte identity with the
// encoder it replaced (kept here verbatim as the reference, the
// TestDeltaForWireFormat pattern), its allocation profile, and the
// readers' behaviour on damaged frames.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"clonos/internal/codec"
	"clonos/internal/types"
)

// sizedRec is a user type with a registered codec, like widget
// (statestore_test.go).
type sizedRec struct {
	N       int64
	Payload []byte
}

type sizedRecCodec struct{}

func (sizedRecCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	r := v.(sizedRec)
	return append(binary.AppendVarint(dst, r.N), r.Payload...), nil
}
func (sizedRecCodec) EncodedSize(v any) int {
	r := v.(sizedRec)
	return codec.VarintLen(r.N) + len(r.Payload)
}
func (sizedRecCodec) Decode(b []byte) (any, error) {
	n, w := binary.Varint(b)
	if w <= 0 {
		return nil, codec.ErrShortBuffer
	}
	return sizedRec{N: n, Payload: bytes.Clone(b[w:])}, nil
}

func init() { codec.RegisterType(sizedRec{}, sizedRecCodec{}) }

// refFramed is the frame format stated from scratch: tag | uvarint(len)
// | payload, assembled from the unframed encoding.
func refFramed(dst []byte, v any) ([]byte, error) {
	enc, err := codec.EncodeAny(nil, v)
	if err != nil {
		return dst, err
	}
	dst = append(dst, enc[0])
	dst = binary.AppendUvarint(dst, uint64(len(enc)-1))
	return append(dst, enc[1:]...), nil
}

// refAppendStateSection is the pre-change appendStateSection, verbatim
// but for the frame call.
func refAppendStateSection(dst []byte, flat map[string]map[uint64]any) ([]byte, error) {
	names := make([]string, 0, len(flat))
	for name := range flat {
		names = append(names, name)
	}
	sort.Strings(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	var err error
	for _, name := range names {
		data := flat[name]
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		keys := make([]uint64, 0, len(data))
		for k := range data {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, k)
			if dst, err = refFramed(dst, data[k]); err != nil {
				return dst, fmt.Errorf("statestore: encode %s[%d]: %w", name, k, err)
			}
		}
	}
	return dst, nil
}

// refSnapshot is the pre-change Store.Snapshot, verbatim.
func refSnapshot(s *Store) ([]byte, error) {
	flat := make(map[string]map[uint64]any, len(s.states))
	for name, st := range s.states {
		flat[name] = st.data
	}
	out := appendMagic(make([]byte, 0, 64), magicKindFull)
	return refAppendStateSection(out, flat)
}

// refDeltaSnapshot is the pre-change Store.DeltaSnapshot, verbatim except
// that it leaves the dirty sets alone, so the encoder under test can run
// on the same store afterwards.
func refDeltaSnapshot(s *Store) ([]byte, error) {
	changes, deletes := make(map[string]map[uint64]any), make(map[string][]uint64)
	for name, st := range s.states {
		for key := range st.dirty {
			if v, ok := st.data[key]; ok {
				m := changes[name]
				if m == nil {
					m = make(map[uint64]any)
					changes[name] = m
				}
				m[key] = v
			} else {
				deletes[name] = append(deletes[name], key)
			}
		}
	}
	out := appendMagic(make([]byte, 0, 64), magicKindDelta)
	out, err := refAppendStateSection(out, changes)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(deletes))
	for name := range deletes {
		names = append(names, name)
	}
	sort.Strings(names)
	out = binary.AppendUvarint(out, uint64(len(names)))
	for _, name := range names {
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		keys := deletes[name]
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		out = binary.AppendUvarint(out, uint64(len(keys)))
		for _, k := range keys {
			out = binary.AppendUvarint(out, k)
		}
	}
	return out, nil
}

// randomValue draws a state value: scalars, byte strings on both sides of
// the 128 B and 16 KiB length widths, nested composites, user types, nil.
func randomValue(r *rand.Rand) any {
	blob := func(max int) []byte {
		b := make([]byte, r.Intn(max+1))
		r.Read(b)
		return b
	}
	switch r.Intn(11) {
	case 0:
		return nil
	case 1:
		return int64(r.Uint64() >> uint(r.Intn(64)))
	case 2:
		return string(blob(300))
	case 3:
		return blob(20000)
	case 4:
		return r.NormFloat64()
	case 5:
		return []any{int64(r.Intn(9)), nil, string(blob(200))}
	case 6:
		return map[string]any{"a": blob(150), "b": []int64{1, -2}}
	case 7:
		return sizedRec{N: r.Int63(), Payload: blob(5000)}
	case 8:
		return uint64(r.Uint64() >> uint(r.Intn(64)))
	case 9:
		return widget{Name: string(blob(8)), Count: r.Intn(100)}
	default:
		return []any{widget{Name: string(blob(200))}, int64(1)}
	}
}

// randomStore builds a store of a few states, then resets dirty tracking
// and mutates it again (puts, overwrites, deletes, a Clear, a state that
// only loses keys, an empty state), so both a full and a delta snapshot
// of it are non-trivial.
func randomStore(r *rand.Rand) *Store {
	s := NewStore()
	key := func() uint64 { return r.Uint64() >> uint(r.Intn(64)) }
	names := []string{"a", "op.state", "", "zz-long-" + string(make([]byte, 130)), "b"}
	nStates := 1 + r.Intn(len(names))
	var all []uint64
	for _, name := range names[:nStates] {
		ks := s.Keyed(name)
		for n := r.Intn(40); n > 0; n-- {
			k := key()
			all = append(all, k)
			ks.Put(k, randomValue(r))
		}
	}
	s.Keyed("empty")
	s.ResetDirty()
	for _, name := range names[:nStates] {
		ks := s.Keyed(name)
		switch r.Intn(4) {
		case 0: // untouched: absent from a delta
		case 1:
			ks.Clear()
		default:
			for n := r.Intn(12); n > 0 && len(all) > 0; n-- {
				k := all[r.Intn(len(all))]
				switch r.Intn(3) {
				case 0:
					ks.Delete(k)
				case 1:
					ks.Put(k, randomValue(r))
				default:
					ks.Put(key(), randomValue(r))
				}
			}
		}
	}
	return s
}

// TestSnapshotBytesMatchReference: on random multi-state stores mixing
// built-in, user-registered and nil values, Snapshot and DeltaSnapshot
// produce exactly the bytes the reference encoder produces, from one
// allocation of exactly that size (len == cap).
func TestSnapshotBytesMatchReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		s := randomStore(rand.New(rand.NewSource(seed)))
		want, err := refSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: Snapshot differs from the reference encoder (%d vs %d bytes)", seed, len(got), len(want))
		}
		if len(got) != cap(got) {
			t.Fatalf("seed %d: Snapshot has len %d, cap %d", seed, len(got), cap(got))
		}
		want, err = refDeltaSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err = s.DeltaSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: DeltaSnapshot differs from the reference encoder (%d vs %d bytes)", seed, len(got), len(want))
		}
		if len(got) != cap(got) {
			t.Fatalf("seed %d: DeltaSnapshot has len %d, cap %d", seed, len(got), cap(got))
		}
		for name, st := range s.states {
			if len(st.dirty) != 0 {
				t.Fatalf("seed %d: DeltaSnapshot left state %q dirty", seed, name)
			}
		}
		// The full image round-trips, so the reference is not just equal
		// but right.
		back := NewStore()
		full, _ := s.Snapshot()
		if err := back.Restore(full); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		storesEqual(t, s, back)
	}
}

// TestSnapshotAllocsConstant: a checkpoint allocates its output and
// nothing else, whatever the number of entries and the size of a value.
func TestSnapshotAllocsConstant(t *testing.T) {
	for _, tc := range []struct{ entries, valueBytes int }{{16, 8}, {16, 4096}, {4096, 8}, {4096, 4096}} {
		s := NewStore()
		for _, name := range []string{"op.state", "op.other"} {
			ks := s.Keyed(name)
			for i := 0; i < tc.entries; i++ {
				ks.Put(uint64(i)*2654435761, sizedRec{N: int64(i), Payload: make([]byte, tc.valueBytes)})
			}
		}
		var out []byte
		snapshot := func() {
			var err error
			if out, err = s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		snapshot() // grows the store's key scratch once
		if allocs := testing.AllocsPerRun(5, snapshot); allocs != 1 {
			t.Errorf("%d entries x %d B: Snapshot allocates %.0f times, want 1 (its output)", tc.entries, tc.valueBytes, allocs)
		}
		if len(out) != cap(out) {
			t.Errorf("%d entries x %d B: len %d != cap %d", tc.entries, tc.valueBytes, len(out), cap(out))
		}
		// A delta of half the keys of one state, dirtied again each round
		// (a Put of the value already there allocates nothing, and the
		// dirty set is refilled in place).
		delta := func() {
			ks := s.Keyed("op.state")
			for i := 0; i < tc.entries; i += 2 {
				ks.Put(uint64(i)*2654435761, ks.Get(uint64(i)*2654435761))
			}
			var err error
			if out, err = s.DeltaSnapshot(); err != nil {
				t.Fatal(err)
			}
		}
		delta()
		if allocs := testing.AllocsPerRun(5, delta); allocs != 1 {
			t.Errorf("%d entries x %d B: DeltaSnapshot allocates %.0f times, want 1 (its output)", tc.entries, tc.valueBytes, allocs)
		}
		if len(out) != cap(out) {
			t.Errorf("%d entries x %d B: delta len %d != cap %d", tc.entries, tc.valueBytes, len(out), cap(out))
		}
	}
}

// damagedFrames returns a small full image and a small delta image of
// the same store, with every value shape the readers meet.
func damagedFrames(t *testing.T) (src *Store, full, dlt []byte) {
	t.Helper()
	src = NewStore()
	a, b := src.Keyed("a"), src.Keyed("b.state")
	a.Put(1, int64(7))
	a.Put(300, "str")
	a.Put(70000, nil)
	b.Put(2, []byte{1, 2, 3})
	b.Put(3, []any{int64(1), "x"})
	b.Put(4, sizedRec{N: -5, Payload: make([]byte, 130)})
	b.Put(5, map[string]any{"k": 1.5})
	full, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	src.ResetDirty()
	a.Delete(300)
	a.Put(9, uint64(1)<<40)
	b.Delete(2)
	b.Put(3, []int64{4, 5})
	if dlt, err = refDeltaSnapshot(src); err != nil {
		t.Fatal(err)
	}
	return src, full, dlt
}

// TestDamagedFramesNeverPanic cuts a full and a delta image short at
// every position and flips every bit of them. The contract: Restore and
// ApplyDelta return an error or succeed — they never panic, and never
// size an allocation from a count the frame's own length cannot back.
// Every cut is ErrCorrupt, and so is every flip in the three magic bytes:
// there is one image format, and bytes that are not it go to no other
// decoder.
// A frame has no checksum yet (ROADMAP item 6), so a flipped payload bit
// can still decode to a different, valid state; what is required of a
// flip that decodes is that the store it leaves is a working one: it
// snapshots and restores to itself.
func TestDamagedFramesNeverPanic(t *testing.T) {
	src, full, dlt := damagedFrames(t)
	base := func() *Store {
		s := NewStore()
		if err := s.Restore(full); err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := base()
	if err := want.ApplyDelta(dlt); err != nil {
		t.Fatal(err)
	}
	storesEqual(t, src, want)

	frames := []struct {
		name  string
		img   []byte
		apply func(b []byte) (*Store, error)
	}{
		{"full", full, func(b []byte) (*Store, error) { s := NewStore(); return s, s.Restore(b) }},
		{"delta", dlt, func(b []byte) (*Store, error) { s := base(); return s, s.ApplyDelta(b) }},
	}
	for _, f := range frames {
		for cut := 1; cut < len(f.img); cut++ {
			_, err := f.apply(f.img[:cut:cut])
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s cut at %d/%d: %v, want ErrCorrupt", f.name, cut, len(f.img), err)
			}
		}
		flipped := 0
		for bit := 0; bit < 8*len(f.img); bit++ {
			img := bytes.Clone(f.img)
			img[bit/8] ^= 1 << (bit % 8)
			s, err := f.apply(img)
			if bit/8 < snapshotHeadLen-1 && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s bit %d (magic byte %d): %v, want ErrCorrupt", f.name, bit, bit/8, err)
			}
			if err != nil {
				continue
			}
			flipped++
			again, err := s.Snapshot()
			if err != nil {
				t.Fatalf("%s bit %d: decoded to a store that does not snapshot: %v", f.name, bit, err)
			}
			back := NewStore()
			if err := back.Restore(again); err != nil {
				t.Fatalf("%s bit %d: decoded to a store whose snapshot does not restore: %v", f.name, bit, err)
			}
			// Compared as bytes: a flip can make a float NaN, which is
			// not equal to itself.
			if third, err := back.Snapshot(); err != nil || !bytes.Equal(third, again) {
				t.Fatalf("%s bit %d: decoded to a store that does not restore to itself (err %v)", f.name, bit, err)
			}
		}
		t.Logf("%s: %d bytes, %d of %d bit flips decode without error (no frame checksum yet)", f.name, len(f.img), flipped, 8*len(f.img))
	}

	// Counts far beyond the frame: the makeslice / make(map) sizes the
	// readers used to trust.
	huge := binary.AppendUvarint(nil, 1<<62)
	hdr := func(kind byte) []byte { return appendMagic(nil, kind) }
	for name, img := range map[string][]byte{
		"full: state count":   append(hdr(magicKindFull), huge...),
		"full: entry count":   append(append(hdr(magicKindFull), 1, 1, 'a'), huge...),
		"full: name length":   append(append(hdr(magicKindFull), 1), huge...),
		"delta: delete count": append(append(hdr(magicKindDelta), 0, 1, 1, 'a'), huge...),
		"delta: state count":  append(append(hdr(magicKindDelta), 0), huge...),
	} {
		s := NewStore()
		err := s.Restore(img)
		if img[2] == magicKindDelta {
			err = s.ApplyDelta(img)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

// orphan is a type nobody registered a codec for.
type orphan struct{ N int }

// TestUnregisteredTypeIsNamed: wherever a value of an unregistered type
// would have to become bytes — on an Auto edge, in keyed state (full and
// delta snapshot), nested in a []any list — the failure is an error that
// names the type and the remedy, and for state also the entry. It never
// panics on a size that went negative, however many such values there
// are.
func TestUnregisteredTypeIsNamed(t *testing.T) {
	keyed := func(v any, n int) *Store {
		s := NewStore()
		for k := 0; k < n; k++ {
			s.Keyed("op.state").Put(uint64(k), v)
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		encode func() ([]byte, error)
		where  string
	}{
		{"auto edge", func() ([]byte, error) {
			return codec.EncodeElement(nil, types.Record(1, 2, orphan{3}), codec.Auto{})
		}, ""},
		{"list on an auto edge", func() ([]byte, error) {
			return codec.EncodeElement(nil, types.Record(1, 2, []any{int64(1), orphan{3}}), codec.Auto{})
		}, ""},
		{"keyed state", keyed(orphan{3}, 1).Snapshot, "op.state[0]"},
		{"keyed state, many entries", keyed(orphan{3}, 500).Snapshot, "op.state[0]"},
		{"keyed state, delta", keyed(orphan{3}, 1).DeltaSnapshot, "op.state[0]"},
		{"list in keyed state", keyed([]any{"x", orphan{3}}, 1).Snapshot, "op.state[0]"},
		{"pointer in keyed state", keyed(&orphan{3}, 1).Snapshot, "op.state[0]"},
	} {
		out, err := tc.encode()
		if err == nil {
			t.Errorf("%s: encoded %d bytes of a type with no codec", tc.name, len(out))
			continue
		}
		for _, want := range []string{"statestore.orphan", "clonos.RegisterCodec", tc.where} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}
}
