package causal

import (
	"encoding/binary"
	"sync"

	"clonos/internal/types"
)

// run is one contiguous, append-only stretch of a determinant log with
// absolute indexing and an index of its EPOCH markers: the storage behind
// both a task's own Log and the segments of a replicaLog. Appending is
// amortized O(1) and truncating is O(1): the cut only advances off, and
// the live part slides back to the front of buf once the dead prefix has
// outgrown it, so a log in steady state stops allocating. Slices returned
// by from alias buf and are valid only until the next append or truncate.
type run struct {
	base uint64 // absolute index of the oldest retained entry, buf[off]
	buf  []Determinant
	off  int // truncated entries still occupying the front of buf
	// epochAt maps an epoch to the absolute index of its EPOCH marker.
	epochAt map[types.EpochID]uint64
}

func newRun(base uint64) run {
	return run{base: base, epochAt: make(map[types.EpochID]uint64)}
}

func (r *run) len() int    { return len(r.buf) - r.off }
func (r *run) end() uint64 { return r.base + uint64(r.len()) }

// from returns the entries with absolute index >= abs; base <= abs <= end.
func (r *run) from(abs uint64) []Determinant {
	return r.buf[r.off+int(abs-r.base):]
}

func (r *run) append(d Determinant) uint64 {
	idx := r.end()
	if d.Kind == KindEpoch {
		r.epochAt[d.Epoch] = idx
	}
	r.buf = append(r.buf, d)
	return idx
}

// truncateTo drops the entries below cut; base < cut <= end.
func (r *run) truncateTo(cut uint64) {
	r.off += int(cut - r.base)
	r.base = cut
	if live := r.len(); r.off > live {
		copy(r.buf, r.buf[r.off:])
		clear(r.buf[live:]) // let go of the moved and dead entries' payloads
		r.buf = r.buf[:live]
		r.off = 0
	}
	for e, idx := range r.epochAt {
		if idx < cut {
			delete(r.epochAt, e)
		}
	}
}

// appendSince encodes the entries with absolute index >= abs (clamped to
// the oldest retained) onto dst in the delta wire format's run layout —
// firstAbs, n, n determinants — and returns how many entries that was.
func (r *run) appendSince(dst []byte, abs uint64) ([]byte, int) {
	if abs < r.base {
		abs = r.base
	}
	ents := r.from(abs)
	dst = binary.AppendUvarint(dst, abs)
	dst = binary.AppendUvarint(dst, uint64(len(ents)))
	for i := range ents {
		dst = ents[i].Append(dst)
	}
	return dst, len(ents)
}

// Log is one append-only determinant log with absolute indexing. Each task
// keeps one, written by its main thread (§4.3).
// Entries carry absolute indices that survive truncation, so per-consumer
// sharing cursors and replicated copies stay consistent.
type Log struct {
	mu sync.Mutex
	r  run
}

// NewLog creates an empty log whose next entry has absolute index 0.
func NewLog() *Log { return NewLogAt(0) }

// NewLogAt creates an empty log whose next entry has the given absolute
// index; recovery seeds a standby's log at the predecessor's epoch-start
// index so re-appended determinants land on identical positions.
func NewLogAt(base uint64) *Log {
	return &Log{r: newRun(base)}
}

// Append adds a determinant and returns its absolute index.
func (l *Log) Append(d Determinant) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.append(d)
}

// StartEpoch appends the boundary marker for the given epoch.
func (l *Log) StartEpoch(e types.EpochID) uint64 {
	return l.Append(Determinant{Kind: KindEpoch, Epoch: e})
}

// Base returns the absolute index of the oldest retained entry.
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.base
}

// Len reports the number of retained entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.len()
}

// unsent reports how many entries have absolute index >= abs.
func (l *Log) unsent(abs uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if abs < l.r.base {
		abs = l.r.base
	}
	if abs >= l.r.end() {
		return 0
	}
	return int(l.r.end() - abs)
}

// appendSince is run.appendSince under the log's lock; it also returns
// the absolute index one past the last entry encoded.
func (l *Log) appendSince(dst []byte, abs uint64) ([]byte, int, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	dst, n := l.r.appendSince(dst, abs)
	return dst, n, l.r.end()
}

// EpochStart returns the absolute index of the EPOCH marker for e, if the
// marker is still retained.
func (l *Log) EpochStart(e types.EpochID) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx, ok := l.r.epochAt[e]
	return idx, ok
}

// Truncate drops all entries belonging to epochs <= upTo, i.e. everything
// before the EPOCH marker of upTo+1. Called when checkpoint upTo completes
// (§4.3 "Truncating Causal Logs"). If the marker for upTo+1 is not
// present, the log is left unchanged.
func (l *Log) Truncate(upTo types.EpochID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cut, ok := l.r.epochAt[upTo+1]; ok && cut > l.r.base {
		l.r.truncateTo(cut)
	}
}
