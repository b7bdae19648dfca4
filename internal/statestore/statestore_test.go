package statestore

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"clonos/internal/codec"
)

// widget is a user state type: it needs a registered codec like any
// other (varint Count, then Name to the end).
type widget struct {
	Name  string
	Count int
}

type widgetCodec struct{}

func (widgetCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	w := v.(widget)
	return append(binary.AppendVarint(dst, int64(w.Count)), w.Name...), nil
}
func (widgetCodec) EncodedSize(v any) int {
	w := v.(widget)
	return codec.VarintLen(int64(w.Count)) + len(w.Name)
}
func (widgetCodec) Decode(b []byte) (any, error) {
	n, w := binary.Varint(b)
	if w <= 0 {
		return nil, codec.ErrShortBuffer
	}
	return widget{Name: string(b[w:]), Count: int(n)}, nil
}

func init() { codec.RegisterType(widget{}, widgetCodec{}) }

func TestKeyedStatePutGetDelete(t *testing.T) {
	s := NewStore()
	k := s.Keyed("counts")
	if k.Get(1) != nil {
		t.Fatal("missing key returned non-nil")
	}
	k.Put(1, int64(5))
	if got := k.Get(1).(int64); got != 5 {
		t.Fatalf("got %d, want 5", got)
	}
	k.Delete(1)
	if k.Get(1) != nil {
		t.Fatal("deleted key still present")
	}
}

func TestKeyedStateSameInstance(t *testing.T) {
	s := NewStore()
	if s.Keyed("a") != s.Keyed("a") {
		t.Fatal("Keyed returned different instances for same name")
	}
}

func TestSortedKeys(t *testing.T) {
	s := NewStore()
	k := s.Keyed("x")
	for _, key := range []uint64{5, 1, 9, 3} {
		k.Put(key, key)
	}
	keys := k.SortedKeys()
	want := []uint64{1, 3, 5, 9}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
}

func TestAppendList(t *testing.T) {
	s := NewStore()
	k := s.Keyed("lists")
	k.AppendList(7, "a")
	k.AppendList(7, "b")
	l := k.List(7)
	if len(l) != 2 || l[0] != "a" || l[1] != "b" {
		t.Fatalf("list = %v", l)
	}
	if k.List(8) != nil {
		t.Fatal("missing list non-nil")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewStore()
	s.Keyed("counts").Put(1, int64(10))
	s.Keyed("counts").Put(2, int64(20))
	s.Keyed("widgets").Put(9, widget{Name: "w", Count: 3})
	s.Keyed("lists").AppendList(4, "x")

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := s2.Keyed("counts").Get(2).(int64); got != 20 {
		t.Fatalf("counts[2] = %d", got)
	}
	w := s2.Keyed("widgets").Get(9).(widget)
	if w.Name != "w" || w.Count != 3 {
		t.Fatalf("widget = %+v", w)
	}
	if l := s2.Keyed("lists").List(4); len(l) != 1 || l[0] != "x" {
		t.Fatalf("lists[4] = %v", l)
	}
}

func TestRestoreEmptySnapshot(t *testing.T) {
	s := NewStore()
	s.Keyed("x").Put(1, int64(1))
	if err := s.Restore(nil); err != nil {
		t.Fatal(err)
	}
	if s.Keyed("x").Len() != 0 {
		t.Fatal("restore(nil) kept old state")
	}
}

func TestRestoreCorruptSnapshot(t *testing.T) {
	s := NewStore()
	if err := s.Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt snapshot restored without error")
	}
}

func TestNamesAndLen(t *testing.T) {
	s := NewStore()
	s.Keyed("b").Put(1, int64(1))
	s.Keyed("a").Put(1, int64(1))
	s.Keyed("a").Put(2, int64(2))
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if n := s.Keyed("a").Len() + s.Keyed("b").Len(); n != 3 {
		t.Fatalf("entries = %d, want 3", n)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := NewStore()
	k := s.Keyed("x")
	for i := uint64(0); i < 10; i++ {
		k.Put(i, i)
	}
	n := 0
	k.Range(func(key uint64, v any) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d entries, want 3", n)
	}
}

func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(keys []uint64, vals []int64) bool {
		s := NewStore()
		k := s.Keyed("q")
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		want := make(map[uint64]int64)
		for i := 0; i < n; i++ {
			k.Put(keys[i], vals[i])
			want[keys[i]] = vals[i]
		}
		snap, err := s.Snapshot()
		if err != nil {
			return false
		}
		s2 := NewStore()
		if err := s2.Restore(snap); err != nil {
			return false
		}
		k2 := s2.Keyed("q")
		if k2.Len() != len(want) {
			return false
		}
		for key, v := range want {
			if got, ok := k2.Get(key).(int64); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	k := s.Keyed("x")
	k.Put(1, int64(10))
	k.Put(2, int64(20))
	full, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s.ResetDirty()

	// Mutate a subset; the delta carries only those keys.
	k.Put(2, int64(22))
	k.Put(3, int64(30))
	k.Delete(1)
	delta, err := s.DeltaSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruct: base image + delta == live store.
	img := NewStore()
	if err := img.Restore(full); err != nil {
		t.Fatal(err)
	}
	if err := img.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	ik := img.Keyed("x")
	if ik.Get(1) != nil {
		t.Fatal("deleted key survived delta")
	}
	if ik.Get(2).(int64) != 22 || ik.Get(3).(int64) != 30 {
		t.Fatalf("image = %v %v", ik.Get(2), ik.Get(3))
	}
	// Dirty set was consumed: an immediate second delta is empty-ish.
	delta2, err := s.DeltaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	img2 := NewStore()
	_ = img2.Restore(full)
	if err := img2.ApplyDelta(delta2); err != nil {
		t.Fatal(err)
	}
	if img2.Keyed("x").Get(2).(int64) != 20 {
		t.Fatal("empty delta changed the image")
	}
}

func TestDeltaTracksAppendListAndClear(t *testing.T) {
	s := NewStore()
	k := s.Keyed("lists")
	k.AppendList(5, "a")
	delta, err := s.DeltaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	img := NewStore()
	if err := img.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if l := img.Keyed("lists").List(5); len(l) != 1 || l[0] != "a" {
		t.Fatalf("list = %v", l)
	}
	// Clear marks all keys dirty as deletions.
	k.Clear()
	delta, err = s.DeltaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := img.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if img.Keyed("lists").Len() != 0 {
		t.Fatal("clear not propagated by delta")
	}
}

func TestApplyDeltaCorrupt(t *testing.T) {
	if err := NewStore().ApplyDelta([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt delta applied")
	}
}
