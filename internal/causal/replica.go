package causal

import (
	"cmp"
	"slices"
	"sync"

	"clonos/internal/obs"
	"clonos/internal/types"
)

// replicaLog is a task's copy of an upstream origin's log. In the common
// case it is a single run that every received delta extends in
// place. Diamond topologies with DSD > 1 can deliver overlapping or
// out-of-order ranges of the same origin log along different paths, so in
// general it is a sorted set of disjoint, non-adjacent runs, and a range
// that does not start inside or at the end of the newest run is merged in.
type replicaLog struct {
	// floor is the last truncation cut. Entries below it belong to
	// completed epochs and are not taken in again (a recovered sender
	// re-shares everything it retains).
	floor uint64
	// done is the highest epoch a truncation asked to drop. The marker of
	// done+1, where that cut falls, reaches a holder with the first buffer
	// after the checkpoint — after the truncation — so took retries the cut.
	done types.EpochID
	segs []run
}

// target picks where the range [start, start+n) goes: the run to append
// its entries to, after dropping the first skip of them (truncated, or
// held already). A fresh run is one not in segs yet — a gap or an
// out-of-order arrival — which the caller fills and hands to merge.
func (r *replicaLog) target(start, n uint64) (t *run, skip uint64, fresh bool) {
	if start < r.floor {
		skip = min(r.floor-start, n)
	}
	first := start + skip
	if k := len(r.segs); k > 0 {
		if t = &r.segs[k-1]; t.base <= first && first <= t.end() {
			return t, min(t.end()-start, n), false
		}
	}
	if skip == n {
		return nil, n, false
	}
	nr := newRun(first)
	return &nr, skip, true
}

// insert merges a received range given as a slice.
func (r *replicaLog) insert(start uint64, ents []Determinant) {
	t, skip, fresh := r.target(start, uint64(len(ents)))
	for _, d := range ents[skip:] {
		t.append(d)
	}
	r.took(t, fresh)
}

// ingest merges the range rd is positioned at, decoding only the entries
// it does not hold yet, straight into the run that keeps them.
func (r *replicaLog) ingest(rd *deltaReader) {
	t, skip, fresh := r.target(rd.start, rd.n)
	rd.skip(skip)
	var d Determinant
	for i := skip; i < rd.n; i++ {
		rd.next(&d, true)
		t.append(d)
	}
	r.took(t, fresh)
}

// took finishes taking a range into t: a fresh run joins the set, and a
// truncation that came before its marker is made once the marker is in.
func (r *replicaLog) took(t *run, fresh bool) {
	if fresh {
		r.merge(*t)
	}
	if r.done > 0 {
		r.truncate(r.done)
	}
}

// merge adds a run that overlaps, touches or lies apart from the retained
// ones in any way, coalescing every run it overlaps or touches.
func (r *replicaLog) merge(in run) {
	out := make([]run, 0, len(r.segs)+1)
	placed := false
	for _, s := range r.segs {
		switch {
		case s.end() < in.base:
			out = append(out, s)
		case in.end() < s.base:
			if !placed {
				out = append(out, in)
				placed = true
			}
			out = append(out, s)
		default:
			in = coalesce(s, in)
		}
	}
	if !placed {
		out = append(out, in)
	}
	r.segs = out
}

// coalesce joins two overlapping or adjacent runs. Overlapping entries are
// taken from whichever run starts first (they are identical by
// construction: the same origin log position).
func coalesce(a, b run) run {
	if b.base < a.base {
		a, b = b, a
	}
	if b.end() > a.end() {
		for _, d := range b.from(a.end()) {
			a.append(d)
		}
	}
	return a
}

// seg returns the run holding absolute index abs, or nil if abs lies in a
// gap or outside what is retained.
func (r *replicaLog) seg(abs uint64) *run {
	for i := range r.segs {
		if s := &r.segs[i]; s.base <= abs && abs < s.end() {
			return s
		}
	}
	return nil
}

// contiguousFrom returns the longest contiguous range starting at abs, or
// nil if abs is not covered.
func (r *replicaLog) contiguousFrom(abs uint64) []Determinant {
	if s := r.seg(abs); s != nil {
		return s.from(abs)
	}
	return nil
}

// since finds what a consumer whose next wanted index is abs can be sent:
// the run holding abs and the index to send from. A cursor that fell
// behind a truncation is clamped to the oldest retained entry, as it is
// on an own log; one inside a gap or at the end gets nil.
func (r *replicaLog) since(abs uint64) (*run, uint64) {
	if len(r.segs) > 0 && abs < r.segs[0].base {
		abs = r.segs[0].base
	}
	return r.seg(abs), abs
}

// epochStart returns the absolute index of the retained EPOCH marker of e.
func (r *replicaLog) epochStart(e types.EpochID) (uint64, bool) {
	for i := range r.segs {
		if idx, ok := r.segs[i].epochAt[e]; ok {
			return idx, true
		}
	}
	return 0, false
}

// truncate drops the entries of epochs <= upTo: everything before the
// EPOCH marker of upTo+1. Without the marker nothing is dropped yet.
func (r *replicaLog) truncate(upTo types.EpochID) {
	r.done = max(r.done, upTo)
	cut, ok := r.epochStart(r.done + 1)
	if !ok || cut <= r.floor {
		return
	}
	r.floor = cut
	// The marker is retained, so some run ends past the cut.
	i := slices.IndexFunc(r.segs, func(s run) bool { return s.end() > cut })
	r.segs = slices.Delete(r.segs, 0, i)
	if s := &r.segs[0]; s.base < cut {
		s.truncateTo(cut)
	}
}

func (r *replicaLog) size() int {
	n := 0
	for i := range r.segs {
		n += r.segs[i].len()
	}
	return n
}

// Replica is everything a task holds about one origin task's log.
type Replica struct {
	Origin types.TaskID
	// Hops is the distance from the origin to this holder (1 = direct
	// downstream). Forwarding only continues while Hops < DSD.
	Hops int
	log  replicaLog
}

// Extracted is the recovery view of an origin task's log: the contiguous
// determinant run starting at the requested epoch's boundary marker.
type Extracted struct {
	Origin types.TaskID
	// Main holds the determinants from the epoch marker on; MainStart is
	// the absolute index of the first entry.
	Main      []Determinant
	MainStart uint64
}

// Store is a task's replicated collection of upstream determinant logs.
// Deltas piggybacked on incoming buffers are ingested here as the buffer
// is accepted — before its records are processed, preserving
// Depend(e) ⊆ Log(e).
type Store struct {
	mu       sync.Mutex
	byOrigin map[types.TaskID]*Replica
	// order lists replicas by origin, the order forwarded sets take.
	order       []*Replica
	extractions *obs.Counter
}

// Instrument attaches a counter incremented on every successful Extract —
// this holder serving determinants for a recovering upstream peer.
func (s *Store) Instrument(extractions *obs.Counter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extractions = extractions
}

// NewStore creates an empty replica store.
func NewStore() *Store {
	return &Store{byOrigin: make(map[types.TaskID]*Replica)}
}

// log returns (creating on first sight) the replica of one origin's log.
// hops is the distance from the origin to this task. Replicas are kept in
// origin order, the order forwarded sets take, so encoding never sorts.
func (s *Store) log(origin types.TaskID, hops int) *replicaLog {
	rep, ok := s.byOrigin[origin]
	if !ok {
		rep = &Replica{Origin: origin, Hops: hops}
		s.byOrigin[origin] = rep
		at, _ := slices.BinarySearchFunc(s.order, origin, func(r *Replica, o types.TaskID) int {
			return cmp.Or(cmp.Compare(r.Origin.Vertex, o.Vertex), cmp.Compare(r.Origin.Subtask, o.Subtask))
		})
		s.order = slices.Insert(s.order, at, rep)
	}
	if hops < rep.Hops {
		rep.Hops = hops
	}
	return &rep.log
}

// Ingest merges a received run of an origin task's log. hops is the
// distance from the origin to this task.
func (s *Store) Ingest(origin types.TaskID, hops int, first uint64, ents []Determinant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log(origin, hops).insert(first, ents)
}

// IngestDelta merges a received delta, decoding each run straight into
// the replica log that keeps it: O(delta) time and, in steady state, one
// allocation (the SERVICE payloads' shared backing) however much is
// retained. A malformed delta is rejected whole.
func (s *Store) IngestDelta(delta []byte) error {
	payloadBytes, err := checkDelta(delta)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rd := readDelta(delta, payloadBytes)
	for rd.nextRun() {
		s.log(rd.origin, rd.hops).ingest(&rd)
	}
	return rd.err
}

// Extract builds the recovery view for an origin task from the requested
// epoch. It reports false if no EPOCH marker for that epoch is retained
// in the origin's log — the caller may then escalate to a global rollback
// (§5.3, DSD < D orphan case).
func (s *Store) Extract(origin types.TaskID, fromEpoch types.EpochID) (Extracted, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, ok := s.byOrigin[origin]
	if !ok {
		return Extracted{}, false
	}
	start, ok := rep.log.epochStart(fromEpoch)
	if !ok {
		return Extracted{}, false
	}
	s.extractions.Inc()
	return Extracted{
		Origin:    origin,
		Main:      append([]Determinant(nil), rep.log.contiguousFrom(start)...),
		MainStart: start,
	}, true
}

// Truncate drops determinants of epochs <= upTo from every replica.
func (s *Store) Truncate(upTo types.EpochID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rep := range s.byOrigin {
		rep.log.truncate(upTo)
	}
}

// SizeEntries reports the total retained determinant count, a memory
// proxy for the §7.5 experiments.
func (s *Store) SizeEntries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, rep := range s.byOrigin {
		n += rep.log.size()
	}
	return n
}
