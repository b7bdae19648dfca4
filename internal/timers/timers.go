// Package timers implements a task's timer service: processing-time timers
// due by the wall clock, which the task's main thread fires between input
// buffers (a source of nondeterminism, captured by TIMER determinants), and
// event-time timers fired deterministically by watermark advancement.
package timers

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Timer identifies one pending timer instance. HandlerID selects the
// callback registered by the operator chain at setup time (stable across
// task incarnations); Key scopes it to a partition key; When is the firing
// deadline in Unix milliseconds.
type Timer struct {
	HandlerID int32
	Key       uint64
	When      int64
}

func less(a, b Timer) bool {
	if a.When != b.When {
		return a.When < b.When
	}
	if a.HandlerID != b.HandlerID {
		return a.HandlerID < b.HandlerID
	}
	return a.Key < b.Key
}

// set is a deduplicating ordered collection of timers.
type set struct {
	items map[Timer]struct{}
}

func newSet() *set { return &set{items: make(map[Timer]struct{})} }

func (s *set) add(t Timer) bool {
	if _, ok := s.items[t]; ok {
		return false
	}
	s.items[t] = struct{}{}
	return true
}

func (s *set) remove(t Timer) bool {
	if _, ok := s.items[t]; !ok {
		return false
	}
	delete(s.items, t)
	return true
}

// due removes and returns all timers with When <= bound, sorted.
func (s *set) due(bound int64) []Timer {
	var out []Timer
	for t := range s.items {
		if t.When <= bound {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	for _, t := range out {
		delete(s.items, t)
	}
	return out
}

func (s *set) earliest() (Timer, bool) {
	var best Timer
	found := false
	for t := range s.items {
		if !found || less(t, best) {
			best = t
			found = true
		}
	}
	return best, found
}

func (s *set) all() []Timer {
	out := make([]Timer, 0, len(s.items))
	for t := range s.items {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// Service manages a task's pending timers. It belongs to the task's main
// thread, which registers, fires, snapshots and restores them: no method
// is safe to call from another goroutine.
//
// Processing-time timers are fired by the main thread between input
// buffers (Due), where the task logs each firing as a TIMER determinant.
// Event-time timers fire on watermark advancement and need no
// determinant: watermarks are in-stream and replayed.
type Service struct {
	proc  *set
	event *set
	clock func() int64
	// next is the earliest processing-time deadline, valid while !stale;
	// hasNext is false when no processing-time timer is pending. A removal
	// of the minimum marks it stale, and the next read rescans the set.
	next    int64
	hasNext bool
	stale   bool
}

// NewService builds a timer service. clock returns the wall time in Unix
// ms; nil means the system clock.
func NewService(clock func() int64) *Service {
	if clock == nil {
		clock = func() int64 { return time.Now().UnixMilli() }
	}
	return &Service{proc: newSet(), event: newSet(), clock: clock}
}

// RegisterProc arms a processing-time timer. Duplicate registrations are
// idempotent.
func (s *Service) RegisterProc(t Timer) {
	if s.proc.add(t) && !s.stale && (!s.hasNext || t.When < s.next) {
		s.next, s.hasNext = t.When, true
	}
}

// removed notes that a processing-time timer due at when left the set.
func (s *Service) removed(when int64) {
	if s.hasNext && when <= s.next {
		s.stale = true
	}
}

// NextProc returns the earliest pending processing-time deadline in Unix
// ms, or false when none is pending.
func (s *Service) NextProc() (int64, bool) {
	if s.stale {
		t, ok := s.proc.earliest()
		s.next, s.hasNext, s.stale = t.When, ok, false
	}
	return s.next, s.hasNext
}

// Due removes and returns, in firing order, every processing-time timer
// whose deadline has passed. It reads the clock only while a timer is
// pending.
func (s *Service) Due() []Timer {
	next, ok := s.NextProc()
	if !ok {
		return nil
	}
	now := s.clock()
	if next > now {
		return nil
	}
	s.stale = true
	return s.proc.due(now)
}

// TakeProc removes a pending processing-time timer during determinant
// replay (the logged firing consumed it). Reports whether it was pending.
func (s *Service) TakeProc(t Timer) bool {
	if !s.proc.remove(t) {
		return false
	}
	s.removed(t.When)
	return true
}

// RegisterEvent arms an event-time timer.
func (s *Service) RegisterEvent(t Timer) {
	s.event.add(t)
}

// CancelEvent disarms an event-time timer.
func (s *Service) CancelEvent(t Timer) bool {
	return s.event.remove(t)
}

// AdvanceWatermark removes and returns, in deterministic order, all
// event-time timers due at the given watermark.
func (s *Service) AdvanceWatermark(wm int64) []Timer {
	return s.event.due(wm)
}

// DrainProc removes and returns every armed processing-time timer whose
// handler passes keep, in deterministic order. Tasks use it at
// end-of-stream so bounded jobs flush pending processing-time windows.
func (s *Service) DrainProc(keep func(Timer) bool) []Timer {
	var out []Timer
	for t := range s.proc.items {
		if keep == nil || keep(t) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	for _, t := range out {
		delete(s.proc.items, t)
	}
	if len(out) > 0 {
		s.removed(out[0].When)
	}
	return out
}

// PendingProc reports the number of armed processing-time timers.
func (s *Service) PendingProc() int {
	return len(s.proc.items)
}

// PendingEvent reports the number of armed event-time timers.
func (s *Service) PendingEvent() int {
	return len(s.event.items)
}

// Snapshot wire format: the processing-time set, then the event-time
// set, each a uvarint count followed, per timer in firing order (less),
// by zig-zag HandlerID | Key | zig-zag When as uvarints. Equal sets give
// equal bytes whatever order their timers were registered in; a service
// with no timers is two bytes.

// ErrCorrupt marks bytes Restore cannot parse back into timer sets.
var ErrCorrupt = errors.New("timers: corrupt snapshot")

func zigzag(x int64) uint64   { return uint64(x<<1) ^ uint64(x>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendSet(dst []byte, timers []Timer) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(timers)))
	for _, t := range timers {
		dst = binary.AppendUvarint(dst, zigzag(int64(t.HandlerID)))
		dst = binary.AppendUvarint(dst, t.Key)
		dst = binary.AppendUvarint(dst, zigzag(t.When))
	}
	return dst
}

// readSet decodes one set from the front of b and returns the rest. A
// timer takes at least three bytes: a count the bytes left cannot hold is
// never trusted.
func readSet(b []byte) (*set, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w)/3 {
		return nil, nil, fmt.Errorf("%w: count %d with %d bytes left", ErrCorrupt, n, len(b))
	}
	b = b[w:]
	out := newSet()
	var prev Timer
	for i := uint64(0); i < n; i++ {
		var f [3]uint64
		for j := range f {
			if f[j], w = binary.Uvarint(b); w <= 0 {
				return nil, nil, fmt.Errorf("%w: timer %d of %d cut short", ErrCorrupt, i, n)
			}
			b = b[w:]
		}
		t := Timer{HandlerID: int32(unzigzag(f[0])), Key: f[1], When: unzigzag(f[2])}
		if int64(t.HandlerID) != unzigzag(f[0]) || i > 0 && !less(prev, t) {
			return nil, nil, fmt.Errorf("%w: timer %d of %d out of range or order", ErrCorrupt, i, n)
		}
		out.add(t)
		prev = t
	}
	return out, b, nil
}

// Snapshot serializes all pending timers for inclusion in a checkpoint.
func (s *Service) Snapshot() []byte {
	proc, event := s.proc.all(), s.event.all()
	return appendSet(appendSet(make([]byte, 0, 2+16*(len(proc)+len(event))), proc), event)
}

// Restore replaces pending timers from a snapshot; nil stands for the
// two empty sets.
// Bytes Snapshot cannot have written are ErrCorrupt and leave the service
// as it was.
func (s *Service) Restore(b []byte) error {
	if len(b) == 0 {
		b = []byte{0, 0}
	}
	proc, b, err := readSet(b)
	if err != nil {
		return err
	}
	event, b, err := readSet(b)
	if err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b))
	}
	s.proc, s.event = proc, event
	s.stale = true
	return nil
}
