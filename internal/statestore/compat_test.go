package statestore

// Framing tests for the snapshot encoding: the version byte must reject
// foreign frames with a pinned message, bytes that are not a frame are
// ErrCorrupt, and the image must be byte-deterministic — and the bytes it
// has always been.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// populate fills a store with a mix of shapes across two named states.
func populate(s *Store) {
	ks := s.Keyed("counts")
	for i := uint64(0); i < 50; i++ {
		ks.Put(i, int64(i*3))
	}
	mixed := s.Keyed("mixed")
	mixed.Put(1, "a string")
	mixed.Put(2, []byte{9, 8, 7})
	mixed.Put(3, 2.5)
	mixed.Put(4, []any{int64(1), "two"})
	mixed.Put(5, nil)
}

func storesEqual(t *testing.T, a, b *Store) {
	t.Helper()
	if !reflect.DeepEqual(a.Names(), b.Names()) {
		t.Fatalf("state names differ: %v vs %v", a.Names(), b.Names())
	}
	for _, name := range a.Names() {
		ka, kb := a.Keyed(name), b.Keyed(name)
		if !reflect.DeepEqual(ka.SortedKeys(), kb.SortedKeys()) {
			t.Fatalf("%s: keys differ", name)
		}
		for _, key := range ka.SortedKeys() {
			if !reflect.DeepEqual(ka.Get(key), kb.Get(key)) {
				t.Fatalf("%s[%d]: %#v vs %#v", name, key, ka.Get(key), kb.Get(key))
			}
		}
	}
}

// TestSnapshotVersionRejected pins the rejection message for frames of
// any version but the one written — a future (or corrupted) version and
// the retired version 2 alike must error, never misdecode.
func TestSnapshotVersionRejected(t *testing.T) {
	src := NewStore()
	populate(src)
	for _, v := range []byte{snapshotVersion + 1, snapshotVersion - 1} {
		snap, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap[3] = v // rewrite the version byte
		err = NewStore().Restore(snap)
		if err == nil {
			t.Fatalf("version-%d snapshot restored without error", v)
		}
		want := fmt.Sprintf("statestore: unsupported snapshot version %d (want %d)", v, snapshotVersion)
		if err.Error() != want {
			t.Fatalf("rejection message %q, want pinned %q", err.Error(), want)
		}
	}
}

// TestSnapshotMalformedHeaderRejected covers buffers that are not a frame
// of the expected kind: a damaged magic, the other kind's magic, a frame
// cut inside its header, and bytes that never were a frame.
func TestSnapshotMalformedHeaderRejected(t *testing.T) {
	s := NewStore()
	if err := s.Restore([]byte{0x00, 'X', 'X', 2, 0}); !errors.Is(err, ErrCorrupt) ||
		!strings.Contains(err.Error(), "malformed snapshot header") {
		t.Fatalf("malformed header not rejected: %v", err)
	}
	if err := s.ApplyDelta([]byte{0x00, 'C', 'S', 2, 0}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("full-snapshot magic accepted as delta: %v", err)
	}
	for _, img := range [][]byte{{0x00}, {0x00, 'C', 'S'}, {0x0d, 0xff, 0x81, 0x04, 0x01, 0x02}, []byte("not a frame")} {
		if err := s.Restore(img); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Restore(% x): %v, want ErrCorrupt", img, err)
		}
		if err := s.ApplyDelta(img); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ApplyDelta(% x): %v, want ErrCorrupt", img, err)
		}
	}
}

// TestSnapshotDeterministic pins byte determinism of the binary frame:
// equal logical state must produce identical bytes (audit fingerprints
// and guided replay compare encodings).
func TestSnapshotDeterministic(t *testing.T) {
	a, b := NewStore(), NewStore()
	populate(a)
	populate(b)
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("equal stores produced different snapshot bytes")
	}
}

// TestSnapshotGolden pins the full image of the populate store to the
// bytes the last commit with a gob tier produced (hex captured there):
// deleting that tier changed no byte of a frame, so the frame version
// stays 3.
func TestSnapshotGolden(t *testing.T) {
	const want = "004353030206636f756e74733200020100010201060202010c03020112040201180502011e060201240702012a08020130090201360a02013c0b0201420c0201480d02014e0e0201540f02015a10020160110201661202016c13020172140201781502017e16020284011702028a01180202900119020296011a02029c011b0202a2011c0202a8011d0202ae011e0202b4011f0202ba01200202c001210202c601220202cc01230202d201240202d801250202de01260202e401270202ea01280202f001290202f6012a0202fc012b020282022c020288022d02028e022e020294022f02029a02300202a002310202a602056d69786564050104086120737472696e67020503090807030308400400000000000004090902020102040374776f050000"
	s := NewStore()
	populate(s)
	got, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != want {
		t.Fatalf("snapshot bytes changed:\n got %x\nwant %s", got, want)
	}
}

// TestBinaryDeltaRoundTrip covers the delta frame end to end, including
// deletes and the nil value tag.
func TestBinaryDeltaRoundTrip(t *testing.T) {
	src := NewStore()
	populate(src)
	src.ResetDirty()
	src.Keyed("counts").Put(7, int64(777))
	src.Keyed("counts").Delete(8)
	src.Keyed("mixed").Put(5, nil) // re-dirty the nil entry
	d, err := src.DeltaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(d) < snapshotHeadLen || d[0] != 0x00 || d[2] != magicKindDelta {
		t.Fatalf("delta frame header wrong: % x", d[:4])
	}
	dst := NewStore()
	populate(dst)
	if err := dst.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if dst.Keyed("counts").Get(7) != int64(777) {
		t.Fatalf("change not applied: %v", dst.Keyed("counts").Get(7))
	}
	if dst.Keyed("counts").Get(8) != nil {
		t.Fatal("delete not applied")
	}
	if v := dst.Keyed("mixed").Get(5); v != nil {
		t.Fatalf("nil value came back as %#v", v)
	}
}
