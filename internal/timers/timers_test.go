package timers

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestEventTimersFireOnWatermark(t *testing.T) {
	s := NewService(nil)
	s.RegisterEvent(Timer{HandlerID: 1, Key: 1, When: 100})
	s.RegisterEvent(Timer{HandlerID: 1, Key: 2, When: 200})
	s.RegisterEvent(Timer{HandlerID: 2, Key: 1, When: 100})

	fired := s.AdvanceWatermark(150)
	if len(fired) != 2 {
		t.Fatalf("fired %d timers, want 2", len(fired))
	}
	// Deterministic order: (when, handler, key).
	if fired[0] != (Timer{HandlerID: 1, Key: 1, When: 100}) || fired[1] != (Timer{HandlerID: 2, Key: 1, When: 100}) {
		t.Fatalf("order = %v", fired)
	}
	if s.PendingEvent() != 1 {
		t.Fatalf("pending = %d, want 1", s.PendingEvent())
	}
	if again := s.AdvanceWatermark(150); len(again) != 0 {
		t.Fatal("timers fired twice")
	}
}

func TestRegisterEventIdempotent(t *testing.T) {
	s := NewService(nil)
	tm := Timer{HandlerID: 1, Key: 1, When: 10}
	s.RegisterEvent(tm)
	s.RegisterEvent(tm)
	if got := s.AdvanceWatermark(10); len(got) != 1 {
		t.Fatalf("fired %d, want 1", len(got))
	}
}

func TestCancelEvent(t *testing.T) {
	s := NewService(nil)
	tm := Timer{HandlerID: 1, Key: 1, When: 10}
	s.RegisterEvent(tm)
	if !s.CancelEvent(tm) {
		t.Fatal("cancel of armed timer failed")
	}
	if s.CancelEvent(tm) {
		t.Fatal("cancel of missing timer succeeded")
	}
	if got := s.AdvanceWatermark(100); len(got) != 0 {
		t.Fatal("cancelled timer fired")
	}
}

func TestTakeProcConsumesPending(t *testing.T) {
	s := NewService(func() int64 { return 0 })
	tm := Timer{HandlerID: 3, Key: 9, When: 50}
	s.RegisterProc(tm)
	if !s.TakeProc(tm) {
		t.Fatal("TakeProc failed for armed timer")
	}
	if s.TakeProc(tm) {
		t.Fatal("TakeProc succeeded twice")
	}
	if s.PendingProc() != 0 {
		t.Fatal("timer still pending after TakeProc")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewService(func() int64 { return 0 })
	s.RegisterProc(Timer{HandlerID: 1, Key: 1, When: 10})
	s.RegisterProc(Timer{HandlerID: 1, Key: 2, When: 20})
	s.RegisterEvent(Timer{HandlerID: 2, Key: 3, When: 30})
	snap := s.Snapshot()
	s2 := NewService(func() int64 { return 0 })
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if s2.PendingProc() != 2 || s2.PendingEvent() != 1 {
		t.Fatalf("restored proc=%d event=%d", s2.PendingProc(), s2.PendingEvent())
	}
	if !s2.TakeProc(Timer{HandlerID: 1, Key: 2, When: 20}) {
		t.Fatal("restored proc timer missing")
	}
	if got := s2.AdvanceWatermark(30); len(got) != 1 || got[0].Key != 3 {
		t.Fatalf("restored event timers = %v", got)
	}
}

func TestRestoreEmpty(t *testing.T) {
	s := NewService(nil)
	s.RegisterProc(Timer{HandlerID: 1, Key: 1, When: 10})
	if err := s.Restore(nil); err != nil {
		t.Fatal(err)
	}
	if s.PendingProc() != 0 {
		t.Fatal("restore(nil) kept timers")
	}
}

// TestProcDeadlineTracksSet drives random sequences of RegisterProc,
// TakeProc, Due, DrainProc and Restore against a model set. After every
// step the cached next deadline must equal a scan of the pending timers,
// and every Due must return exactly the timers at or before the clock, in
// firing order. The narrow-deadline rows give many timers one deadline,
// as one processing-time window over many keys does.
func TestProcDeadlineTracksSet(t *testing.T) {
	for _, tc := range []struct {
		name        string
		seed        int64
		handlers    int32
		keys, whens int
		steps       int
	}{
		{"sparse", 1, 2, 64, 1000, 4000},
		{"one window", 2, 1, 256, 2, 4000},
		{"few deadlines", 3, 3, 16, 8, 4000},
		{"tiny", 4, 1, 2, 3, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			var now int64
			s := NewService(func() int64 { return now })
			model := map[Timer]bool{}
			random := func() Timer {
				return Timer{HandlerID: rng.Int31n(tc.handlers) - 1, Key: uint64(rng.Intn(tc.keys)), When: int64(rng.Intn(tc.whens))}
			}
			for step := 0; step < tc.steps; step++ {
				var op string
				switch r := rng.Intn(100); {
				case r < 55:
					op = "register"
					tm := random()
					s.RegisterProc(tm)
					model[tm] = true
				case r < 75:
					op = "take"
					tm := random()
					if got := s.TakeProc(tm); got != model[tm] {
						t.Fatalf("step %d: TakeProc(%v) = %v, model says %v", step, tm, got, model[tm])
					}
					delete(model, tm)
				case r < 92:
					op = "due"
					now = int64(rng.Intn(tc.whens)) - 1
					got := s.Due()
					var want []Timer
					for tm := range model {
						if tm.When <= now {
							want = append(want, tm)
							delete(model, tm)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("step %d: Due at %d returned %d timers, want %d", step, now, len(got), len(want))
					}
					for i := range got {
						if i > 0 && !less(got[i-1], got[i]) {
							t.Fatalf("step %d: Due out of firing order: %v before %v", step, got[i-1], got[i])
						}
						if got[i].When > now {
							t.Fatalf("step %d: Due at %d returned %v", step, now, got[i])
						}
					}
				case r < 97:
					op = "drain"
					handler := rng.Int31n(tc.handlers) - 1
					for _, tm := range s.DrainProc(func(tm Timer) bool { return tm.HandlerID == handler }) {
						if !model[tm] || tm.HandlerID != handler {
							t.Fatalf("step %d: DrainProc returned %v", step, tm)
						}
						delete(model, tm)
					}
				default:
					op = "restore"
					other := NewService(nil)
					model = map[Timer]bool{}
					for i := rng.Intn(8); i > 0; i-- {
						tm := random()
						other.RegisterProc(tm)
						model[tm] = true
					}
					if err := s.Restore(other.Snapshot()); err != nil {
						t.Fatal(err)
					}
				}
				next, ok := s.NextProc()
				if ok != (len(model) > 0) || ok && next != minWhen(model) {
					t.Fatalf("step %d (%s): NextProc = %d, %v; %d pending, earliest %d", step, op, next, ok, len(model), minWhen(model))
				}
				if s.PendingProc() != len(model) {
					t.Fatalf("step %d (%s): %d pending, model holds %d", step, op, s.PendingProc(), len(model))
				}
			}
		})
	}
}

// minWhen scans for the earliest deadline (0 for no timers).
func minWhen(m map[Timer]bool) int64 {
	first, best := true, int64(0)
	for tm := range m {
		if first || tm.When < best {
			first, best = false, tm.When
		}
	}
	return best
}

// TestDueReadsClockOnlyWhenPending pins the cost of the per-buffer check
// on a task with no processing-time timer: no clock read at all.
func TestDueReadsClockOnlyWhenPending(t *testing.T) {
	reads := 0
	s := NewService(func() int64 { reads++; return 100 })
	if s.Due() != nil || reads != 0 {
		t.Fatalf("Due with nothing pending read the clock %d times", reads)
	}
	s.RegisterEvent(Timer{HandlerID: 1, When: 5})
	s.RegisterProc(Timer{HandlerID: 1, When: 200})
	if s.Due() != nil || reads != 1 {
		t.Fatalf("Due before the deadline: %d clock reads, want 1", reads)
	}
	s.RegisterProc(Timer{HandlerID: 2, When: 100})
	if got := s.Due(); len(got) != 1 || got[0].HandlerID != 2 {
		t.Fatalf("Due at the deadline = %v", got)
	}
}

// populated registers a mix of timers — negative handler and deadline,
// every varint width, equal deadlines — in the order given by perm.
func populated(perm []int) *Service {
	proc := []Timer{
		{HandlerID: -1, Key: 0, When: 1_700_000_000_000},
		{HandlerID: 1, Key: 1, When: 10},
		{HandlerID: 1, Key: 2, When: 10},
		{HandlerID: math.MaxInt32, Key: math.MaxUint64, When: math.MaxInt64},
		{HandlerID: math.MinInt32, Key: 300, When: math.MinInt64},
	}
	event := []Timer{{HandlerID: 2, Key: 3, When: 30}, {HandlerID: 2, Key: 70000, When: -5}, {HandlerID: 7, Key: 3, When: 30}}
	s := NewService(func() int64 { return 0 })
	for _, i := range perm {
		s.RegisterProc(proc[i])
		if i < len(event) {
			s.RegisterEvent(event[i])
		}
	}
	return s
}

// TestSnapshotBytesDeterministic: the image is a function of the timer
// sets alone — registration order does not show, and a restored service
// snapshots to the bytes it was restored from (TaskSnapshot.Timers feeds
// the audit fingerprint on both sides of a recovery).
func TestSnapshotBytesDeterministic(t *testing.T) {
	a, b := populated([]int{0, 1, 2, 3, 4}).Snapshot(), populated([]int{3, 1, 4, 0, 2}).Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatalf("registration order shows in the snapshot:\n% x\n% x", a, b)
	}
	restored := NewService(nil)
	if err := restored.Restore(a); err != nil {
		t.Fatal(err)
	}
	if restored.PendingProc() != 5 || restored.PendingEvent() != 3 {
		t.Fatalf("restored proc=%d event=%d, want 5 and 3", restored.PendingProc(), restored.PendingEvent())
	}
	if again := restored.Snapshot(); !bytes.Equal(a, again) {
		t.Fatalf("snapshot → restore → snapshot changed the bytes:\n% x\n% x", a, again)
	}
	if empty := NewService(nil).Snapshot(); len(empty) > 2 {
		t.Fatalf("a service with no timers encodes in %d bytes, want <= 2", len(empty))
	}
}

// TestRestoreDamagedSnapshot truncates a populated image at every length
// and flips every bit of it. A truncation is always ErrCorrupt. A flip
// may still spell a valid image (there is no checksum); then the service
// it leaves must be a working one — it snapshots and restores to itself
// — and otherwise it is ErrCorrupt with the service left as it was.
// Nothing panics, and no count is trusted beyond the bytes behind it.
func TestRestoreDamagedSnapshot(t *testing.T) {
	img := populated([]int{0, 1, 2, 3, 4}).Snapshot()
	for cut := 1; cut < len(img); cut++ {
		if err := NewService(nil).Restore(img[:cut:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d/%d: %v, want ErrCorrupt", cut, len(img), err)
		}
	}
	accepted := 0
	for bit := 0; bit < 8*len(img); bit++ {
		damaged := bytes.Clone(img)
		damaged[bit/8] ^= 1 << (bit % 8)
		s := populated([]int{1})
		before := s.Snapshot()
		switch err := s.Restore(damaged); {
		case err == nil:
			accepted++
			got, back := s.Snapshot(), NewService(nil)
			if err := back.Restore(got); err != nil || !bytes.Equal(back.Snapshot(), got) {
				t.Fatalf("bit %d: accepted into a service that does not restore to itself (err %v)", bit, err)
			}
		case !errors.Is(err, ErrCorrupt):
			t.Fatalf("bit %d: %v, want ErrCorrupt", bit, err)
		case !bytes.Equal(s.Snapshot(), before):
			t.Fatalf("bit %d: a rejected image changed the service", bit)
		}
	}
	t.Logf("%d bytes: %d of %d bit flips still spell a valid image", len(img), accepted, 8*len(img))
	for name, b := range map[string][]byte{
		"huge count":     {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"count 3, 8 B":   {3, 2, 1, 20, 2, 2, 20, 0, 0},
		"trailing byte":  append(bytes.Clone(img), 0),
		"handler > i32":  {1, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 2, 0},
		"duplicate":      {2, 2, 1, 20, 2, 1, 20, 0},
		"missing events": {0},
	} {
		if err := NewService(nil).Restore(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}
