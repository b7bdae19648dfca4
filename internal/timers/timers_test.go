package timers

import (
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
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
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
