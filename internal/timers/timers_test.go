package timers

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEventTimersFireOnWatermark(t *testing.T) {
	s := NewService(nil, nil)
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
	s := NewService(nil, nil)
	tm := Timer{HandlerID: 1, Key: 1, When: 10}
	s.RegisterEvent(tm)
	s.RegisterEvent(tm)
	if got := s.AdvanceWatermark(10); len(got) != 1 {
		t.Fatalf("fired %d, want 1", len(got))
	}
}

func TestCancelEvent(t *testing.T) {
	s := NewService(nil, nil)
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

func TestProcTimersFireWhenLive(t *testing.T) {
	var now atomic.Int64
	now.Store(1000)
	var mu sync.Mutex
	var fired []Timer
	s := NewService(func() int64 { return now.Load() }, func(tm Timer) {
		mu.Lock()
		fired = append(fired, tm)
		mu.Unlock()
	})
	s.Start()
	defer s.Stop()
	s.SetLive(true)
	s.RegisterProc(Timer{HandlerID: 1, Key: 1, When: 1500})
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	n := len(fired)
	mu.Unlock()
	if n != 0 {
		t.Fatal("timer fired before deadline")
	}
	now.Store(1500)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n = len(fired)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timer never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.PendingProc() != 0 {
		t.Fatal("fired timer still pending")
	}
}

func TestProcTimersSuppressedWhenNotLive(t *testing.T) {
	var now atomic.Int64
	now.Store(2000)
	var count atomic.Int32
	firedCh := make(chan struct{}, 4)
	s := NewService(func() int64 { return now.Load() }, func(Timer) {
		count.Add(1)
		select {
		case firedCh <- struct{}{}:
		default:
		}
	})
	s.Start()
	defer s.Stop()
	// Not live: overdue timers must not fire.
	s.RegisterProc(Timer{HandlerID: 1, Key: 1, When: 1000})
	time.Sleep(80 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("timer fired while not live")
	}
	s.SetLive(true)
	select {
	case <-firedCh:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired after SetLive")
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("timer fired %d times, want 1", got)
	}
}

func TestTakeProcConsumesPending(t *testing.T) {
	s := NewService(func() int64 { return 0 }, nil)
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
	s := NewService(func() int64 { return 0 }, nil)
	s.RegisterProc(Timer{HandlerID: 1, Key: 1, When: 10})
	s.RegisterProc(Timer{HandlerID: 1, Key: 2, When: 20})
	s.RegisterEvent(Timer{HandlerID: 2, Key: 3, When: 30})
	snap := s.Snapshot()
	s2 := NewService(func() int64 { return 0 }, nil)
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
	s := NewService(nil, nil)
	s.RegisterProc(Timer{HandlerID: 1, Key: 1, When: 10})
	if err := s.Restore(nil); err != nil {
		t.Fatal(err)
	}
	if s.PendingProc() != 0 {
		t.Fatal("restore(nil) kept timers")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	s := NewService(nil, nil)
	s.Start()
	s.Start() // second start is a no-op
	s.Stop()
	s.Stop() // second stop is a no-op
}

// TestStartAfterStopIsNoOp pins Stop as terminal: a task's crash can run
// Stop before its start() reaches Start, and a thread spawned by that
// late Start would have nobody left to stop it.
func TestStartAfterStopIsNoOp(t *testing.T) {
	running := func(s *Service) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.stop != nil
	}
	s := NewService(nil, nil)
	s.Stop()
	s.Start()
	if running(s) {
		s.Stop()
		t.Fatal("Start after Stop launched the timer thread")
	}
	s = NewService(nil, nil)
	s.Start()
	s.Stop()
	s.Start()
	if running(s) {
		s.Stop()
		t.Fatal("Start after Start+Stop relaunched the timer thread")
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
	s := NewService(func() int64 { return 0 }, nil)
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
	restored := NewService(nil, nil)
	if err := restored.Restore(a); err != nil {
		t.Fatal(err)
	}
	if restored.PendingProc() != 5 || restored.PendingEvent() != 3 {
		t.Fatalf("restored proc=%d event=%d, want 5 and 3", restored.PendingProc(), restored.PendingEvent())
	}
	if again := restored.Snapshot(); !bytes.Equal(a, again) {
		t.Fatalf("snapshot → restore → snapshot changed the bytes:\n% x\n% x", a, again)
	}
	if empty := NewService(nil, nil).Snapshot(); len(empty) > 2 {
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
		if err := NewService(nil, nil).Restore(img[:cut:cut]); !errors.Is(err, ErrCorrupt) {
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
			got, back := s.Snapshot(), NewService(nil, nil)
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
		if err := NewService(nil, nil).Restore(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}
