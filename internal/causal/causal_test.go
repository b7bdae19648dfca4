package causal

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"clonos/internal/types"
)

func task(v, s int32) types.TaskID {
	return types.TaskID{Vertex: types.VertexID(v), Subtask: s}
}

func chid(e, f, t int32) types.ChannelID {
	return types.ChannelID{Edge: types.EdgeID(e), From: f, To: t}
}

// decodeDeterminant decodes one determinant from b, returning it and the
// bytes consumed.
func decodeDeterminant(b []byte) (Determinant, int, error) {
	rd := deltaReader{b: b, left: 1}
	var d Determinant
	rd.next(&d, true)
	return d, rd.i, rd.err
}

// EncodeDelta is the reference encoder of the delta wire format: one run
// per set, each set's header then its run, and the tests hold
// Manager.DeltaFor's direct encoding to it byte for byte.
func EncodeDelta(dst []byte, sets []ForwardSet) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(sets)))
	for _, fs := range sets {
		dst = binary.AppendVarint(dst, int64(fs.Origin.Vertex))
		dst = binary.AppendVarint(dst, int64(fs.Origin.Subtask))
		dst = binary.AppendUvarint(dst, uint64(fs.Hops))
		dst = binary.AppendUvarint(dst, fs.Start)
		dst = binary.AppendUvarint(dst, uint64(len(fs.Ents)))
		for _, d := range fs.Ents {
			dst = d.Append(dst)
		}
	}
	return dst
}

func sampleDeterminants() []Determinant {
	return []Determinant{
		{Kind: KindEpoch, Epoch: 3},
		{Kind: KindOrder, Channel: 2},
		{Kind: KindTimer, Handler: 7, Key: 99, When: -12345, Offset: 42},
		{Kind: KindTimestamp, Value: 1_700_000_000_123},
		{Kind: KindRNG, Value: -987654321},
		{Kind: KindService, ServiceID: 5, Payload: []byte(`{"a":3}`)},
		{Kind: KindRPC, Epoch: 11, Offset: 17},
		{Kind: KindBufferSize, Output: chid(4, 1, 3), Value: 32768},
	}
}

func TestDeterminantRoundTrip(t *testing.T) {
	for _, d := range sampleDeterminants() {
		b := d.Append(nil)
		got, n, err := decodeDeterminant(b)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if n != len(b) {
			t.Fatalf("%v: consumed %d of %d bytes", d, n, len(b))
		}
		if !got.Equal(d) {
			t.Fatalf("round trip: got %v want %v", got, d)
		}
	}
}

func TestDeterminantDecodeErrors(t *testing.T) {
	if _, _, err := decodeDeterminant(nil); err == nil {
		t.Fatal("decoded empty input")
	}
	if _, _, err := decodeDeterminant([]byte{255}); err == nil {
		t.Fatal("decoded unknown kind")
	}
	// Truncated service payload.
	d := Determinant{Kind: KindService, ServiceID: 1, Payload: []byte("abcdef")}
	b := d.Append(nil)
	if _, _, err := decodeDeterminant(b[:len(b)-3]); err == nil {
		t.Fatal("decoded truncated payload")
	}
}

func TestQuickTimerDeterminantRoundTrip(t *testing.T) {
	f := func(h int32, key uint64, when int64, off uint64) bool {
		d := Determinant{Kind: KindTimer, Handler: h, Key: key, When: when, Offset: off}
		got, _, err := decodeDeterminant(d.Append(nil))
		return err == nil && got.Equal(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickServiceDeterminantRoundTrip(t *testing.T) {
	f := func(id uint16, payload []byte) bool {
		d := Determinant{Kind: KindService, ServiceID: id, Payload: payload}
		got, _, err := decodeDeterminant(d.Append(nil))
		if err != nil {
			return false
		}
		// Payload nil/empty are equivalent on the wire.
		return got.ServiceID == id && string(got.Payload) == string(payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// logSince returns the entries an own log would send a cursor at abs, and
// the index of the first.
func logSince(l *Log, abs uint64) ([]Determinant, uint64) {
	abs = max(abs, l.Base())
	return l.r.from(abs), abs
}

func TestLogAppendSinceTruncate(t *testing.T) {
	l := NewLog()
	l.StartEpoch(1)
	l.Append(Determinant{Kind: KindOrder, Channel: 0})
	l.Append(Determinant{Kind: KindOrder, Channel: 1})
	l.StartEpoch(2)
	l.Append(Determinant{Kind: KindOrder, Channel: 2})

	if l.Len() != 5 || l.Base() != 0 {
		t.Fatalf("len=%d base=%d", l.Len(), l.Base())
	}
	ents, start := logSince(l, 3)
	if start != 3 || len(ents) != 2 || ents[0].Kind != KindEpoch {
		t.Fatalf("Since(3) = %v at %d", ents, start)
	}
	if idx, ok := l.EpochStart(2); !ok || idx != 3 {
		t.Fatalf("EpochStart(2) = %d,%v", idx, ok)
	}
	l.Truncate(1)
	if l.Base() != 3 || l.Len() != 2 {
		t.Fatalf("after truncate base=%d len=%d", l.Base(), l.Len())
	}
	// Absolute indexing survives truncation.
	ents, start = logSince(l, 0)
	if start != 3 || len(ents) != 2 {
		t.Fatalf("Since(0) after truncate = %v at %d", ents, start)
	}
	// Truncating without the next epoch marker is a no-op.
	l.Truncate(5)
	if l.Len() != 2 {
		t.Fatal("truncate without marker modified log")
	}
}

func TestLogNewLogAt(t *testing.T) {
	l := NewLogAt(100)
	idx := l.Append(Determinant{Kind: KindOrder})
	if idx != 100 {
		t.Fatalf("first index = %d, want 100", idx)
	}
}

func TestReplicaLogMergeOverlap(t *testing.T) {
	rl := &replicaLog{}
	mk := func(ch int32) Determinant { return Determinant{Kind: KindOrder, Channel: ch} }
	rl.insert(5, []Determinant{mk(5), mk(6), mk(7)})
	rl.insert(0, []Determinant{mk(0), mk(1), mk(2)})
	// Gap 3..4: not contiguous yet.
	if got := rl.contiguousFrom(0); len(got) != 3 {
		t.Fatalf("contiguousFrom(0) = %d entries, want 3", len(got))
	}
	// Overlapping fill joins everything.
	rl.insert(2, []Determinant{mk(2), mk(3), mk(4), mk(5)})
	got := rl.contiguousFrom(0)
	if len(got) != 8 {
		t.Fatalf("contiguousFrom(0) = %d entries, want 8", len(got))
	}
	for i, d := range got {
		if d.Channel != int32(i) {
			t.Fatalf("entry %d has channel %d", i, d.Channel)
		}
	}
	if got := rl.contiguousFrom(100); got != nil {
		t.Fatal("contiguousFrom past end returned entries")
	}
}

func TestReplicaLogRandomizedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		const n = 40
		full := make([]Determinant, n)
		for i := range full {
			full[i] = Determinant{Kind: KindOrder, Channel: int32(i)}
		}
		rl := &replicaLog{}
		// Insert random overlapping chunks until covered.
		for i := 0; i < 30; i++ {
			a := rng.Intn(n)
			b := a + 1 + rng.Intn(n-a)
			rl.insert(uint64(a), full[a:b])
		}
		rl.insert(0, full[:1])
		rl.insert(uint64(n-1), full[n-1:])
		// May still have gaps; verify every contiguous claim is correct.
		for abs := 0; abs < n; abs++ {
			got := rl.contiguousFrom(uint64(abs))
			for j, d := range got {
				if d.Channel != int32(abs+j) {
					t.Fatalf("trial %d: abs %d entry %d = ch %d", trial, abs, j, d.Channel)
				}
			}
		}
	}
}

func TestStoreIngestExtract(t *testing.T) {
	st := NewStore()
	origin := task(1, 0)
	ch := chid(1, 0, 0)
	main := []Determinant{
		{Kind: KindEpoch, Epoch: 2},
		{Kind: KindOrder, Channel: 0},
		{Kind: KindBufferSize, Output: ch, Value: 100},
		{Kind: KindTimestamp, Value: 111},
		{Kind: KindBufferSize, Output: ch, Value: 60},
	}
	st.Ingest(origin, 1, 10, main)

	ex, ok := st.Extract(origin, 2)
	if !ok {
		t.Fatal("extract failed")
	}
	if ex.MainStart != 10 || !equalRuns(ex.Main, main) {
		t.Fatalf("main start=%d entries=%v", ex.MainStart, ex.Main)
	}
	if _, ok := st.Extract(origin, 7); ok {
		t.Fatal("extract for unknown epoch succeeded")
	}
	if _, ok := st.Extract(task(9, 9), 2); ok {
		t.Fatal("extract for unknown origin succeeded")
	}
}

func TestStoreTruncate(t *testing.T) {
	st := NewStore()
	origin := task(1, 0)
	st.Ingest(origin, 1, 0, []Determinant{
		{Kind: KindEpoch, Epoch: 1},
		{Kind: KindOrder, Channel: 0},
		{Kind: KindEpoch, Epoch: 2},
		{Kind: KindOrder, Channel: 1},
	})
	if st.SizeEntries() != 4 {
		t.Fatalf("size = %d", st.SizeEntries())
	}
	st.Truncate(1)
	if st.SizeEntries() != 2 {
		t.Fatalf("size after truncate = %d", st.SizeEntries())
	}
	if _, ok := st.Extract(origin, 2); !ok {
		t.Fatal("epoch 2 lost by truncation")
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	sets := []ForwardSet{
		{Origin: task(1, 2), Hops: 1, Run: Run{Start: 5, Ents: sampleDeterminants()}},
		{Origin: task(0, 1), Hops: 2, Run: Run{Start: 77, Ents: []Determinant{{Kind: KindOrder, Channel: 1}}}},
	}
	b := EncodeDelta(nil, sets)
	got, err := DecodeDelta(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d sets", len(got))
	}
	for i := range sets {
		if got[i].Origin != sets[i].Origin || got[i].Hops != sets[i].Hops || got[i].Start != sets[i].Start {
			t.Fatalf("set %d header mismatch: %+v", i, got[i])
		}
		if !equalRuns(got[i].Ents, sets[i].Ents) {
			t.Fatalf("set %d entries %v, want %v", i, got[i].Ents, sets[i].Ents)
		}
	}
}

func TestDecodeDeltaErrors(t *testing.T) {
	if _, err := DecodeDelta([]byte{}); err == nil {
		t.Fatal("decoded empty delta")
	}
	sets := []ForwardSet{{Origin: task(1, 0), Hops: 1, Run: Run{Start: 0, Ents: sampleDeterminants()}}}
	b := EncodeDelta(nil, sets)
	if _, err := DecodeDelta(b[:len(b)/2]); err == nil {
		t.Fatal("decoded truncated delta")
	}
}

func TestManagerDeltaCursorsAdvance(t *testing.T) {
	m := NewManager(task(1, 0), 1)
	down := chid(2, 0, 0)
	m.StartEpochMain(1)
	m.AppendOrder(0)
	m.AppendTimestamp(123)
	m.AppendBufferSize(down, 100)

	d1 := m.DeltaFor(down)
	if d1 == nil {
		t.Fatal("first delta empty")
	}
	sets, err := DecodeDelta(d1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || sets[0].Origin != task(1, 0) || sets[0].Hops != 1 {
		t.Fatalf("sets = %+v", sets)
	}
	if len(sets[0].Ents) != 4 { // EPOCH, ORDER, TS, BS
		t.Fatalf("delta = %d entries, want 4", len(sets[0].Ents))
	}
	// No new determinants: delta is nil.
	if d2 := m.DeltaFor(down); d2 != nil {
		t.Fatalf("second delta not nil: %d bytes", len(d2))
	}
	m.AppendOrder(1)
	d3 := m.DeltaFor(down)
	sets, err = DecodeDelta(d3)
	if err != nil {
		t.Fatal(err)
	}
	if run := sets[0].Run; len(run.Ents) != 1 || run.Start != 4 {
		t.Fatalf("incremental delta = %+v", run)
	}
}

func TestManagerDSDZeroSharesNothing(t *testing.T) {
	m := NewManager(task(1, 0), 0)
	m.AppendOrder(0)
	if d := m.DeltaFor(chid(1, 0, 0)); d != nil {
		t.Fatal("DSD=0 produced a delta")
	}
}

func TestManagerForwardingDepth(t *testing.T) {
	// a -> b -> c with DSD=2: b forwards a's determinants to c;
	// with DSD=1 it does not.
	for _, dsd := range []int{1, 2} {
		a, b := task(0, 0), task(1, 0)
		ab, bc := chid(0, 0, 0), chid(1, 0, 0)

		ma := NewManager(a, dsd)
		ma.StartEpochMain(1)
		ma.AppendTimestamp(42)
		deltaAB := ma.DeltaFor(ab)

		mb := NewManager(b, dsd)
		if err := mb.Ingest(deltaAB); err != nil {
			t.Fatal(err)
		}
		mb.StartEpochMain(1)
		mb.AppendOrder(0)
		deltaBC := mb.DeltaFor(bc)
		sets, err := DecodeDelta(deltaBC)
		if err != nil {
			t.Fatal(err)
		}
		var origins []types.TaskID
		for _, fs := range sets {
			origins = append(origins, fs.Origin)
		}
		switch dsd {
		case 1:
			if len(sets) != 1 || sets[0].Origin != b {
				t.Fatalf("DSD=1 forwarded: %v", origins)
			}
		case 2:
			if len(sets) != 2 {
				t.Fatalf("DSD=2 sets = %v", origins)
			}
			found := false
			for _, fs := range sets {
				if fs.Origin == a {
					found = true
					if fs.Hops != 2 {
						t.Fatalf("forwarded hops = %d, want 2", fs.Hops)
					}
				}
			}
			if !found {
				t.Fatal("DSD=2 did not forward a's log")
			}
		}
	}
}

func TestManagerTruncate(t *testing.T) {
	m := NewManager(task(1, 0), 1)
	down := chid(2, 0, 0)
	m.StartEpochMain(1)
	m.AppendOrder(0)
	m.AppendBufferSize(down, 10)
	m.StartEpochMain(2)
	m.AppendOrder(1)
	m.AppendBufferSize(down, 20)
	m.Truncate(1)
	if m.Main().Len() != 3 { // EPOCH 2 + ORDER + BS
		t.Fatalf("log len = %d, want 3", m.Main().Len())
	}
	if n := m.SizeEntries(); n != 3 {
		t.Fatalf("retained %d entries, want the log's 3", n)
	}
}

func TestManagerSeedForRecovery(t *testing.T) {
	m := NewManager(task(1, 0), 1)
	ch := chid(2, 0, 0)
	m.SeedForRecovery(50)
	if idx := m.Main().Append(Determinant{Kind: KindOrder}); idx != 50 {
		t.Fatalf("log re-based at %d, want 50", idx)
	}
	// A buffer's size follows the entries before it in the one log.
	m.AppendBufferSize(ch, 1)
	sets, err := DecodeDelta(m.DeltaFor(ch))
	if err != nil || len(sets) != 1 || sets[0].Start != 50 || len(sets[0].Ents) != 2 ||
		!sets[0].Ents[1].Equal(Determinant{Kind: KindBufferSize, Output: ch, Value: 1}) {
		t.Fatalf("delta after re-basing = %+v, %v", sets, err)
	}
}

func TestManagerIngestIdempotent(t *testing.T) {
	// Replayed buffers carry deltas the replica has already seen; the
	// absolute indexing must make re-ingestion harmless.
	a, b := task(0, 0), task(1, 0)
	ab := chid(0, 0, 0)
	ma := NewManager(a, 1)
	ma.StartEpochMain(1)
	ma.AppendTimestamp(1)
	ma.AppendTimestamp(2)
	delta := ma.DeltaFor(ab)

	mb := NewManager(b, 1)
	if err := mb.Ingest(delta); err != nil {
		t.Fatal(err)
	}
	if err := mb.Ingest(delta); err != nil {
		t.Fatal(err)
	}
	ex, ok := mb.Replicas().Extract(a, 1)
	if !ok || len(ex.Main) != 3 {
		t.Fatalf("extract after duplicate ingest: ok=%v len=%d", ok, len(ex.Main))
	}
}

func TestDeltaForExternal(t *testing.T) {
	m := NewManager(task(2, 0), 1)
	m.StartEpochMain(1)
	m.AppendTimestamp(11)
	d1 := m.DeltaForExternal("kafka")
	if d1 == nil {
		t.Fatal("first external delta empty")
	}
	sets, err := DecodeDelta(d1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || sets[0].Origin != task(2, 0) {
		t.Fatalf("sets = %+v", sets)
	}
	if got := len(sets[0].Ents); got != 2 { // EPOCH + TS
		t.Fatalf("entries = %d", got)
	}
	// Incremental: nothing new -> nil.
	if m.DeltaForExternal("kafka") != nil {
		t.Fatal("second delta not nil")
	}
	m.AppendTimestamp(22)
	d2 := m.DeltaForExternal("kafka")
	sets, err = DecodeDelta(d2)
	if err != nil {
		t.Fatal(err)
	}
	if run := sets[0].Run; len(run.Ents) != 1 || run.Start != 2 {
		t.Fatalf("incremental run = %+v", run)
	}
	// Independent cursors per consumer.
	d3 := m.DeltaForExternal("other")
	sets, _ = DecodeDelta(d3)
	if len(sets[0].Ents) != 3 {
		t.Fatal("second consumer did not get full log")
	}
	// Round trip into a store and extract for recovery.
	st := NewStore()
	for _, blob := range [][]byte{d1, d2} {
		ss, err := DecodeDelta(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, fs := range ss {
			st.Ingest(fs.Origin, fs.Hops, fs.Start, fs.Ents)
		}
	}
	ex, ok := st.Extract(task(2, 0), 1)
	if !ok || len(ex.Main) != 3 {
		t.Fatalf("extract ok=%v len=%d", ok, len(ex.Main))
	}
}

func TestDeltaForExternalDSDZero(t *testing.T) {
	m := NewManager(task(1, 0), 0)
	m.AppendTimestamp(1)
	if m.DeltaForExternal("x") != nil {
		t.Fatal("DSD=0 produced an external delta")
	}
}

// TestQuickAlwaysNoOrphans checks Eq. 1/2 mechanically: whatever
// interleaving of determinant appends and per-channel buffer dispatches
// occurs, every downstream replica can recover the origin's log as a
// contiguous prefix up to the last determinant it was shown — i.e. no
// buffer ever makes a receiver depend on an event whose determinant it
// does not hold, its own BUFFERSIZE and every other channel's before it
// included.
func TestQuickAlwaysNoOrphans(t *testing.T) {
	f := func(ops []uint8) bool {
		origin := task(0, 0)
		m := NewManager(origin, 1)
		m.StartEpochMain(1)
		chans := []types.ChannelID{chid(0, 0, 0), chid(0, 0, 1)}
		stores := []*Store{NewStore(), NewStore()}
		shown := []uint64{0, 0} // highest absolute main index shared per channel

		for i, op := range ops {
			switch op % 4 {
			case 0:
				m.AppendTimestamp(int64(i))
			case 1:
				m.AppendOrder(int32(i % 3))
			case 2, 3:
				ch := int(op%4) - 2
				m.AppendBufferSize(chans[ch], i)
				sets, err := DecodeDelta(m.DeltaFor(chans[ch]))
				if err != nil {
					return false
				}
				for _, fs := range sets {
					stores[ch].Ingest(fs.Origin, fs.Hops, fs.Start, fs.Ents)
					if end := fs.Start + uint64(len(fs.Ents)); end > shown[ch] {
						shown[ch] = end
					}
				}
			}
		}
		for ch, st := range stores {
			if shown[ch] == 0 {
				continue // nothing delivered: nothing depends on origin
			}
			ex, ok := st.Extract(origin, 1)
			if !ok {
				return false
			}
			// The recovered prefix must be contiguous from the epoch
			// marker through everything this receiver was shown.
			if ex.MainStart != 0 || uint64(len(ex.Main)) < shown[ch] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
