package causal

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"clonos/internal/types"
)

// modelLog is the naive reference for a replicaLog: every retained entry
// by absolute index, the floor the last truncation left and the highest
// epoch a truncation was asked for.
type modelLog struct {
	ents  map[uint64]Determinant
	floor uint64
	done  types.EpochID
}

func (m *modelLog) insert(start uint64, ents []Determinant) {
	for i, d := range ents {
		if idx := start + uint64(i); idx >= m.floor {
			m.ents[idx] = d
		}
	}
	if m.done > 0 {
		m.truncate(m.done) // the marker a truncation waited for may be in now
	}
}

func (m *modelLog) epochStart(e types.EpochID) (uint64, bool) {
	for idx, d := range m.ents {
		if d.Kind == KindEpoch && d.Epoch == e {
			return idx, true
		}
	}
	return 0, false
}

func (m *modelLog) truncate(upTo types.EpochID) {
	m.done = max(m.done, upTo)
	cut, ok := m.epochStart(m.done + 1)
	if !ok || cut <= m.floor {
		return
	}
	m.floor = cut
	for idx := range m.ents {
		if idx < cut {
			delete(m.ents, idx)
		}
	}
}

func (m *modelLog) contiguousFrom(abs uint64) []Determinant {
	var out []Determinant
	for d, ok := m.ents[abs]; ok; d, ok = m.ents[abs] {
		out = append(out, d)
		abs++
	}
	return out
}

func (m *modelLog) end() uint64 {
	end := uint64(0)
	for idx := range m.ents {
		end = max(end, idx+1)
	}
	return end
}

// end returns one past the highest retained index, or 0 when empty.
func (r *replicaLog) end() uint64 {
	if len(r.segs) == 0 {
		return 0
	}
	return r.segs[len(r.segs)-1].end()
}

func equalRuns(a, b []Determinant) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// originLog builds n determinants of every kind with an EPOCH marker every
// epochLen entries (epochs 1, 2, ...), the log a replica sees pieces of.
func originLog(rng *rand.Rand, n, epochLen int) []Determinant {
	full := make([]Determinant, n)
	for i := range full {
		v := int64(i)
		switch kind := Kind(1 + rng.Intn(7)); {
		case i%epochLen == 0:
			full[i] = Determinant{Kind: KindEpoch, Epoch: types.EpochID(i/epochLen + 1)}
		case kind == KindOrder:
			full[i] = Determinant{Kind: kind, Channel: int32(i)}
		case kind == KindTimer:
			full[i] = Determinant{Kind: kind, Handler: 3, Key: 99, When: -v, Offset: uint64(i)}
		case kind == KindService:
			full[i] = Determinant{Kind: kind, ServiceID: uint16(i), Payload: []byte(fmt.Sprint("payload-", i))}
		case kind == KindRPC:
			full[i] = Determinant{Kind: kind, Epoch: types.EpochID(1000 + i), Offset: uint64(i)}
		case kind == KindBufferSize:
			full[i] = Determinant{Kind: kind, Output: types.ChannelID{Edge: 1, To: int32(i % 3)}, Value: v}
		default: // TS, RNG
			full[i] = Determinant{Kind: kind, Value: v}
		}
	}
	return full
}

// runDelta encodes one run of an origin's log the way a delta carries it.
func runDelta(origin types.TaskID, start uint64, ents []Determinant) []byte {
	return EncodeDelta(nil, []ForwardSet{{Origin: origin, Hops: 1, Run: Run{Start: start, Ents: ents}}})
}

// TestReplicaLogMatchesModel drives a replica log with random schedules of
// extending, contained, overlapping, gapped and out-of-order runs — through
// the slice path and through the wire path — interleaved with
// truncations, and holds it to the naive model after every step.
func TestReplicaLogMatchesModel(t *testing.T) {
	const n, epochLen = 240, 30
	origin := task(1, 0)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		full := originLog(rng, n, epochLen)
		st := NewStore()
		rl := st.log(origin, 1)
		model := &modelLog{ents: make(map[uint64]Determinant)}
		for step := 0; step < 150; step++ {
			var what string
			end := int(rl.end())
			var a, b int
			switch op := rng.Intn(10); {
			case op < 3: // extends the tail
				what, a = "extend", end
				b = a + 1 + rng.Intn(12)
			case op < 4 && end > 0: // already held
				what = "contained"
				a = int(model.floor) + rng.Intn(end-int(model.floor))
				b = a + 1 + rng.Intn(end-a)
			case op < 6 && end > 0: // starts inside the tail, runs past it
				what, a = "overlap", max(0, end-1-rng.Intn(8))
				b = end + 1 + rng.Intn(12)
			case op < 7: // leaves a gap
				what, a = "gap", end+1+rng.Intn(6)
				b = a + 1 + rng.Intn(12)
			case op < 9: // anywhere: out of order, below the floor, bridging
				what, a = "anywhere", rng.Intn(n)
				b = a + 1 + rng.Intn(40)
			default:
				upTo := types.EpochID(rng.Intn(n/epochLen + 1))
				what = fmt.Sprint("truncate ", upTo)
				st.Truncate(upTo)
				model.truncate(upTo)
			}
			if a = min(a, n); b > a {
				b = min(b, n)
				what = fmt.Sprintf("%s [%d,%d)", what, a, b)
				model.insert(uint64(a), full[a:b])
				if rng.Intn(2) == 0 {
					st.Ingest(origin, 1, uint64(a), full[a:b])
				} else if err := st.IngestDelta(runDelta(origin, uint64(a), full[a:b])); err != nil {
					t.Fatal(err)
				}
			}

			ctx := fmt.Sprintf("seed %d step %d (%s)", seed, step, what)
			if rl.end() != model.end() {
				t.Fatalf("%s: end = %d, model %d", ctx, rl.end(), model.end())
			}
			if st.SizeEntries() != len(model.ents) {
				t.Fatalf("%s: SizeEntries = %d, model %d", ctx, st.SizeEntries(), len(model.ents))
			}
			for abs := uint64(0); abs <= n; abs++ {
				if got, want := rl.contiguousFrom(abs), model.contiguousFrom(abs); !equalRuns(got, want) {
					t.Fatalf("%s: contiguousFrom(%d) has %d entries, model %d", ctx, abs, len(got), len(want))
				}
			}
			for e := types.EpochID(0); e <= n/epochLen+1; e++ {
				got, gok := rl.epochStart(e)
				want, wok := model.epochStart(e)
				if got != want || gok != wok {
					t.Fatalf("%s: epochStart(%d) = %d,%v, model %d,%v", ctx, e, got, gok, want, wok)
				}
			}
			for i := 1; i < len(rl.segs); i++ {
				if rl.segs[i-1].end() >= rl.segs[i].base {
					t.Fatalf("%s: runs %d and %d overlap or touch", ctx, i-1, i)
				}
			}
		}
	}
}

// storesEqual compares what two stores retain for an origin's log.
func storesEqual(t *testing.T, a, b *Store, origin types.TaskID) {
	t.Helper()
	la, lb := &a.byOrigin[origin].log, &b.byOrigin[origin].log
	if la.end() != lb.end() || len(la.segs) != len(lb.segs) {
		t.Fatalf("%v: end %d vs %d, %d vs %d runs", origin, la.end(), lb.end(), len(la.segs), len(lb.segs))
	}
	for i := range la.segs {
		if la.segs[i].base != lb.segs[i].base || !equalRuns(la.segs[i].from(la.segs[i].base), lb.segs[i].from(lb.segs[i].base)) {
			t.Fatalf("%v: run %d differs", origin, i)
		}
	}
}

// TestIngestDeltaMatchesDecode checks the streaming ingest against the
// decode-then-insert reference on a delta holding every determinant kind
// and several origins, and that a malformed delta — every
// strict prefix, and random byte damage — is refused whole: an error, no
// panic, nothing ingested.
func TestIngestDeltaMatchesDecode(t *testing.T) {
	a, b := task(0, 1), task(1, 2)
	sets := []ForwardSet{
		{Origin: b, Hops: 1, Run: Run{Start: 5, Ents: sampleDeterminants()}},
		{Origin: a, Hops: 2, Run: Run{Start: 77, Ents: []Determinant{{Kind: KindService, ServiceID: 1, Payload: []byte("xyz")}, {Kind: KindService, ServiceID: 2}}}},
	}
	delta := EncodeDelta(nil, sets)

	streamed, decoded := NewStore(), NewStore()
	if err := streamed.IngestDelta(delta); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range got {
		decoded.Ingest(fs.Origin, fs.Hops, fs.Start, fs.Ents)
	}
	for _, fs := range sets {
		storesEqual(t, streamed, decoded, fs.Origin)
	}
	if ha, hb := streamed.byOrigin[a].Hops, streamed.byOrigin[b].Hops; ha != 2 || hb != 1 {
		t.Fatalf("hops = %d and %d, want 2 and 1", ha, hb)
	}
	// Ingested payloads are copies: the delta's bytes may be recycled.
	for i := range delta {
		delta[i] = 0xff
	}
	for _, fs := range sets {
		storesEqual(t, streamed, decoded, fs.Origin)
	}

	delta = EncodeDelta(nil, sets)
	refused := func(bad []byte, why string) {
		t.Helper()
		st := NewStore()
		if err := st.IngestDelta(bad); err == nil {
			return
		}
		if n := st.SizeEntries(); n != 0 {
			t.Fatalf("%s: refused delta left %d entries behind", why, n)
		}
		if _, err := DecodeDelta(bad); err == nil {
			t.Fatalf("%s: IngestDelta refused what DecodeDelta accepts", why)
		}
	}
	for cut := 0; cut < len(delta); cut++ {
		if err := NewStore().IngestDelta(delta[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes ingested without error", cut, len(delta))
		}
		refused(delta[:cut], fmt.Sprint("prefix ", cut))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		bad := append([]byte(nil), delta...)
		for k := 0; k <= rng.Intn(3); k++ {
			bad[rng.Intn(len(bad))] = byte(rng.Intn(256))
		}
		refused(bad, fmt.Sprint("damage ", i))
	}
	// A count far beyond what the bytes can hold must not be believed.
	huge := EncodeDelta(nil, []ForwardSet{{Origin: a, Hops: 1, Run: Run{Start: 1 << 62}}})
	huge[len(huge)-1] = 0xff // n: 0 -> an unterminated varint
	refused(huge, "unterminated count")
	huge = append(huge[:len(huge)-1], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // n = 2^63-1
	refused(huge, "huge count")
	if _, err := DecodeDelta(huge); err == nil {
		t.Fatal("decoded a run of 2^63 determinants")
	}
}

// TestDeltaForWireFormat holds the direct encoder to the reference one:
// own set first, forwarded sets by origin, one run per set, every count
// exact — with buffers dispatched on several output channels, whose
// BUFFERSIZE entries sit in the one log in dispatch order, and, at DSD 2,
// several forwarded origins.
func TestDeltaForWireFormat(t *testing.T) {
	up0, up1, mid := task(0, 0), task(0, 1), task(1, 2)
	outs := []types.ChannelID{chid(2, 2, 1), chid(2, 2, 0), chid(1, 2, 5)}
	m := NewManager(mid, 2)
	for i, origin := range []types.TaskID{up1, up0} {
		u := NewManager(origin, 2)
		u.StartEpochMain(1)
		u.AppendService(7, []byte("resp"))
		u.AppendBufferSize(chid(0, int32(1-i), 2), 100+i)
		if err := m.Ingest(u.DeltaFor(chid(0, int32(1-i), 2))); err != nil {
			t.Fatal(err)
		}
	}
	m.StartEpochMain(1)
	m.AppendOrder(1)
	for _, id := range outs {
		m.AppendBufferSize(id, 512)
	}
	delta := m.DeltaFor(outs[0])
	sets, err := DecodeDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 3 || sets[0].Origin != mid || sets[1].Origin != up0 || sets[2].Origin != up1 {
		t.Fatalf("sets = %+v", sets)
	}
	if sets[0].Hops != 1 || sets[1].Hops != 2 || len(sets[0].Ents) != 5 || len(sets[1].Ents) != 3 {
		t.Fatalf("sets = %+v", sets)
	}
	for i, id := range outs {
		if d := sets[0].Ents[2+i]; !d.Equal(Determinant{Kind: KindBufferSize, Output: id, Value: 512}) {
			t.Fatalf("entry %d = %v, want the BUFFERSIZE of %v", 2+i, d, id)
		}
	}
	if want := EncodeDelta(nil, sets); !bytes.Equal(delta, want) {
		t.Fatalf("DeltaFor wrote\n%x\nreference encoder\n%x", delta, want)
	}
	// The second delta on the channel carries only what is new.
	m.AppendOrder(0)
	sets, err = DecodeDelta(m.DeltaFor(outs[0]))
	if err != nil || len(sets) != 1 || sets[0].Start != 5 || len(sets[0].Ents) != 1 {
		t.Fatalf("incremental delta = %+v, %v", sets, err)
	}
}

// TestForwardingSurvivesTruncationPastCursor: a forwarding cursor that a
// truncation overtook must resume at the oldest retained entry, not wait
// forever for entries that are gone (the downstream would never be sent
// that origin's log again).
func TestForwardingSurvivesTruncationPastCursor(t *testing.T) {
	a, b := task(0, 0), task(1, 0)
	ab, bc := chid(0, 0, 0), chid(1, 0, 0)
	ma, mb := NewManager(a, 2), NewManager(b, 2)
	ma.StartEpochMain(1)
	ma.AppendOrder(0)
	if err := mb.Ingest(ma.DeltaFor(ab)); err != nil {
		t.Fatal(err)
	}
	mb.DeltaFor(bc) // forwards a's [0,2): the cursor is at 2
	ma.AppendOrder(1)
	ma.StartEpochMain(2) // index 3
	ma.AppendOrder(2)
	if err := mb.Ingest(ma.DeltaFor(ab)); err != nil {
		t.Fatal(err)
	}
	mb.Truncate(1) // a's replica now starts at the EPOCH 2 marker
	sets, err := DecodeDelta(mb.DeltaFor(bc))
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || sets[0].Origin != a {
		t.Fatalf("forwarded sets = %+v", sets)
	}
	run := sets[0].Run
	if run.Start != 3 || len(run.Ents) != 2 || run.Ents[0].Kind != KindEpoch || run.Ents[0].Epoch != 2 {
		t.Fatalf("forwarded run = %+v, want [3,5) from the EPOCH 2 marker", run)
	}
	if mb.DeltaFor(bc) != nil {
		t.Fatal("the same entries were forwarded twice")
	}
}

// TestTruncationBeforeItsMarker: a holder is told that checkpoint N
// completed before the first buffer of epoch N+1 — which carries that
// epoch's marker — has reached it; that is the order a running job produces
// at every checkpoint. The cut must be made when the marker arrives, or the
// replica is never truncated at all: the next truncation waits for the
// marker after that one.
func TestTruncationBeforeItsMarker(t *testing.T) {
	up, down := NewManager(task(0, 0), 1), NewManager(task(1, 0), 1)
	ch := chid(0, 0, 0)
	const epochs, perEpoch = 6, 50
	for e := types.EpochID(1); e <= epochs; e++ {
		up.StartEpochMain(e)
		for k := 0; k < perEpoch; k++ {
			up.AppendOrder(0)
			if err := down.Ingest(up.DeltaFor(ch)); err != nil {
				t.Fatal(err)
			}
		}
		// Epoch e is complete; the marker of e+1 is not even logged yet.
		down.Truncate(e)
		if e > 1 {
			if got := down.Replicas().SizeEntries(); got != perEpoch+1 {
				t.Fatalf("after checkpoint %d the replica holds %d entries, want the %d of epoch %d", e, got, perEpoch+1, e)
			}
		}
	}
	up.StartEpochMain(epochs + 1)
	if err := down.Ingest(up.DeltaFor(ch)); err != nil {
		t.Fatal(err)
	}
	if got := down.Replicas().SizeEntries(); got != 1 {
		t.Fatalf("the marker of epoch %d came in and the replica holds %d entries, want the marker alone", epochs+1, got)
	}
	if _, ok := down.Replicas().Extract(task(0, 0), epochs+1); !ok {
		t.Fatal("the epoch after the last completed checkpoint cannot be extracted")
	}
}

// replicationStream pre-encodes a stream of deltas from an upstream task:
// perDelta SERVICE determinants each, an epoch every epochLen deltas.
func replicationStream(deltas, perDelta, epochLen int) [][]byte {
	up := NewManager(task(0, 0), 1)
	ch := chid(0, 0, 0)
	payload := []byte("0123456789abcdef")
	out := make([][]byte, deltas)
	for i := range out {
		if i%epochLen == 0 {
			up.StartEpochMain(types.EpochID(i/epochLen + 1))
		}
		for k := 0; k < perDelta; k++ {
			up.AppendService(1, payload)
		}
		out[i] = up.DeltaFor(ch)
		if i%epochLen == 0 && i >= 2*epochLen {
			up.Truncate(types.EpochID(i/epochLen - 1))
		}
	}
	return out
}

// TestIngestAllocations: receiving a delta allocates the payloads' shared
// backing and, amortized, the replica's growth — not per determinant, and
// not in proportion to what is retained.
func TestIngestAllocations(t *testing.T) {
	const runs = 200
	stream := replicationStream(runs+300, 100, 1<<30)
	down := NewManager(task(1, 0), 1)
	for _, d := range stream[:299] {
		if err := down.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	next := 299
	allocs := testing.AllocsPerRun(runs, func() {
		if err := down.Ingest(stream[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 2 {
		t.Fatalf("Ingest of a 100-determinant delta allocates %.0f objects, want <= 2", allocs)
	}
	if got := down.Replicas().SizeEntries(); got != next*100+1 {
		t.Fatalf("retained %d entries, want %d", got, next*100+1)
	}
}

// TestDeltaForAllocations: a delta costs its own bytes and nothing else.
func TestDeltaForAllocations(t *testing.T) {
	for _, dsd := range []int{1, 2} {
		up, m := NewManager(task(0, 0), dsd), NewManager(task(1, 0), dsd)
		in, out := chid(0, 0, 0), chid(1, 0, 0)
		up.StartEpochMain(1)
		m.StartEpochMain(1)
		step := func() {
			up.AppendTimestamp(1)
			if err := m.Ingest(up.DeltaFor(in)); err != nil {
				t.Fatal(err)
			}
			m.AppendOrder(0)
			m.AppendBufferSize(out, 64)
		}
		step()
		m.DeltaFor(out)
		if allocs := testing.AllocsPerRun(100, func() { m.DeltaFor(out) }); allocs != 0 {
			t.Fatalf("DSD %d: DeltaFor with nothing new allocates %.0f objects", dsd, allocs)
		}
		// A whole buffer's worth — upstream append and delta, ingest, own
		// appends, delta — costs the two deltas' bytes and amortized log
		// growth, however long the logs are.
		allocs := testing.AllocsPerRun(1000, func() {
			step()
			if m.DeltaFor(out) == nil {
				t.Fatal("no delta")
			}
		})
		if allocs > 3 {
			t.Fatalf("DSD %d: append+ingest+DeltaFor allocates %.0f objects per buffer", dsd, allocs)
		}
	}
}

// TestIngestCostIndependentOfRetained: the time to ingest a delta must not
// depend on how many determinants the replica retains. Steady state with
// truncation two epochs behind, 100-determinant deltas, ~1 000 against
// ~100 000 retained; the best of several batches on each side.
func TestIngestCostIndependentOfRetained(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	perIngest := func(epochLen int) time.Duration {
		const measured = 3000
		warm := 4 * epochLen
		stream := replicationStream(warm+measured, 100, epochLen)
		best := time.Duration(1 << 62)
		for batch := 0; batch < 5; batch++ {
			down := NewManager(task(1, 0), 1)
			var took time.Duration
			for i, d := range stream {
				began := time.Now()
				if err := down.Ingest(d); err != nil {
					t.Fatal(err)
				}
				if i%epochLen == 0 && i >= 2*epochLen {
					down.Truncate(types.EpochID(i/epochLen - 1))
				}
				if i >= warm {
					took += time.Since(began)
				}
			}
			if retained := down.Replicas().SizeEntries(); retained < 100*epochLen || retained > 201*epochLen {
				t.Fatalf("retained %d entries with epochs of %d deltas", retained, epochLen)
			}
			best = min(best, took/measured)
		}
		return best
	}
	small, large := perIngest(5), perIngest(500)
	t.Logf("ingest of 100 determinants: %v with ~1 000 retained, %v with ~100 000", small, large)
	if large > 2*small {
		t.Fatalf("ingest takes %v with ~100 000 retained against %v with ~1 000: not O(delta)", large, small)
	}
}
