package checkpoint

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"clonos/internal/statestore"
	"clonos/internal/types"
)

func tid(v, s int32) types.TaskID { return types.TaskID{Vertex: types.VertexID(v), Subtask: s} }

func TestStorePutGet(t *testing.T) {
	s := NewStore("")
	snap := &TaskSnapshot{Checkpoint: 1, Task: tid(0, 0), State: []byte("x")}
	if err := s.Put(snap); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(1, tid(0, 0))
	if !ok || string(got.State) != "x" {
		t.Fatalf("get: ok=%v snap=%+v", ok, got)
	}
	if _, ok := s.Get(2, tid(0, 0)); ok {
		t.Fatal("unknown checkpoint found")
	}
	if _, ok := s.Get(1, tid(9, 9)); ok {
		t.Fatal("unknown task found")
	}
}

func TestStoreMarkCompletedDiscardsOld(t *testing.T) {
	s := NewStore("")
	for cp := types.CheckpointID(1); cp <= 3; cp++ {
		if err := s.Put(&TaskSnapshot{Checkpoint: cp, Task: tid(0, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	s.MarkCompleted(2)
	if s.LatestCompleted() != 2 {
		t.Fatalf("latest = %d", s.LatestCompleted())
	}
	if _, ok := s.Get(1, tid(0, 0)); ok {
		t.Fatal("old checkpoint retained")
	}
	if _, ok := s.Get(2, tid(0, 0)); !ok {
		t.Fatal("completed checkpoint discarded")
	}
	if _, ok := s.Get(3, tid(0, 0)); !ok {
		t.Fatal("newer checkpoint discarded")
	}
	// Completion never regresses.
	s.MarkCompleted(1)
	if s.LatestCompleted() != 2 {
		t.Fatal("completion regressed")
	}
}

func TestStorePersistsToDisk(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir)
	if err := s.Put(&TaskSnapshot{Checkpoint: 5, Task: tid(1, 2), State: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "chk-5-v1-2.state"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "abc" {
		t.Fatalf("disk state = %q", b)
	}
}

// coordinatorHarness wires a coordinator to in-memory callbacks. Every
// mutation signals changed so tests can wait event-driven instead of
// sleep-polling.
type coordinatorHarness struct {
	mu        sync.Mutex
	triggered []types.CheckpointID
	completed []types.CheckpointID
	expected  []types.TaskID
	changed   chan struct{}
}

func newHarness(tasks ...types.TaskID) *coordinatorHarness {
	return &coordinatorHarness{expected: tasks, changed: make(chan struct{}, 1)}
}

func (h *coordinatorHarness) signal() {
	select {
	case h.changed <- struct{}{}:
	default:
	}
}

func (h *coordinatorHarness) coordinator(interval, timeout time.Duration) *Coordinator {
	return NewCoordinator(interval, timeout,
		func() []types.TaskID {
			h.mu.Lock()
			defer h.mu.Unlock()
			return append([]types.TaskID(nil), h.expected...)
		},
		func(cp types.CheckpointID) {
			h.mu.Lock()
			h.triggered = append(h.triggered, cp)
			h.mu.Unlock()
			h.signal()
		},
		func(cp types.CheckpointID) {
			h.mu.Lock()
			h.completed = append(h.completed, cp)
			h.mu.Unlock()
			h.signal()
		})
}

func (h *coordinatorHarness) lastTriggered() (types.CheckpointID, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.triggered) == 0 {
		return 0, false
	}
	return h.triggered[len(h.triggered)-1], true
}

func (h *coordinatorHarness) completions() []types.CheckpointID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]types.CheckpointID(nil), h.completed...)
}

// waitFor blocks until cond holds, waking on harness mutations rather
// than polling. The coordinator's acks arrive through the harness
// callbacks, so every state change rings h.changed.
func (h *coordinatorHarness) waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for !cond() {
		select {
		case <-h.changed:
		case <-deadline.C:
			if cond() {
				return
			}
			t.Fatal("condition never met")
		}
	}
}

func TestCoordinatorCompletesOnAllAcks(t *testing.T) {
	a, b := tid(0, 0), tid(1, 0)
	h := newHarness(a, b)
	c := h.coordinator(20*time.Millisecond, time.Second)
	c.Start()
	defer c.Stop()

	h.waitFor(t, 2*time.Second, func() bool { _, ok := h.lastTriggered(); return ok })
	cp, _ := h.lastTriggered()
	c.Ack(cp, a)
	if len(h.completions()) != 0 {
		t.Fatal("completed with one ack")
	}
	c.Ack(cp, b)
	h.waitFor(t, 2*time.Second, func() bool { return len(h.completions()) == 1 })
	if c.LatestCompleted() != cp {
		t.Fatalf("latest = %d, want %d", c.LatestCompleted(), cp)
	}
}

func TestCoordinatorNoConcurrentCheckpoints(t *testing.T) {
	a := tid(0, 0)
	h := newHarness(a)
	c := h.coordinator(10*time.Millisecond, 10*time.Second)
	c.Start()
	defer c.Stop()
	// Never ack: no further checkpoint may be triggered.
	h.waitFor(t, 2*time.Second, func() bool { _, ok := h.lastTriggered(); return ok })
	time.Sleep(100 * time.Millisecond)
	h.mu.Lock()
	n := len(h.triggered)
	h.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d checkpoints triggered while one was in flight", n)
	}
}

func TestCoordinatorTimeoutAbandonsCheckpoint(t *testing.T) {
	a := tid(0, 0)
	h := newHarness(a)
	c := h.coordinator(15*time.Millisecond, 40*time.Millisecond)
	c.Start()
	defer c.Stop()
	// Never ack the first; after the timeout a new one must trigger.
	h.waitFor(t, 2*time.Second, func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.triggered) >= 2
	})
	if len(h.completions()) != 0 {
		t.Fatal("abandoned checkpoint completed")
	}
}

func TestCoordinatorStaleAckIgnored(t *testing.T) {
	a := tid(0, 0)
	h := newHarness(a)
	c := h.coordinator(15*time.Millisecond, time.Second)
	c.Start()
	defer c.Stop()
	h.waitFor(t, 2*time.Second, func() bool { _, ok := h.lastTriggered(); return ok })
	cp, _ := h.lastTriggered()
	c.Ack(cp+100, a) // unknown checkpoint
	time.Sleep(50 * time.Millisecond)
	if len(h.completions()) != 0 {
		t.Fatal("stale ack completed a checkpoint")
	}
	c.Ack(cp, a)
	h.waitFor(t, 2*time.Second, func() bool { return len(h.completions()) == 1 })
}

func TestCoordinatorPauseAbortsInFlight(t *testing.T) {
	a := tid(0, 0)
	h := newHarness(a)
	c := h.coordinator(15*time.Millisecond, 10*time.Second)
	c.Start()
	defer c.Stop()
	h.waitFor(t, 2*time.Second, func() bool { _, ok := h.lastTriggered(); return ok })
	cp, _ := h.lastTriggered()
	// Pause (failure handling) aborts the in-flight checkpoint: a late
	// ack for it must not complete anything, before or after Resume.
	c.Pause()
	c.Ack(cp, a)
	time.Sleep(80 * time.Millisecond)
	if len(h.completions()) != 0 {
		t.Fatal("aborted checkpoint completed while paused")
	}
	c.Resume()
	// A fresh checkpoint triggers after Resume and completes normally.
	h.waitFor(t, 2*time.Second, func() bool {
		lcp, ok := h.lastTriggered()
		return ok && lcp > cp
	})
	time.Sleep(40 * time.Millisecond)
	if len(h.completions()) != 0 {
		t.Fatal("aborted checkpoint completed after resume")
	}
	lcp, _ := h.lastTriggered()
	c.Ack(lcp, a)
	h.waitFor(t, 2*time.Second, func() bool { return len(h.completions()) == 1 })
	if c.LatestCompleted() != lcp {
		t.Fatalf("latest = %d, want %d", c.LatestCompleted(), lcp)
	}
}

// TestCoordinatorPauseWaitsForCompletionCallback pins the recovery
// contract of Pause: a checkpoint whose completion callback is running
// (marking it completed, truncating logs) is past aborting, so Pause must
// not return — and let a recovery read the latest completed checkpoint —
// until the callback has.
func TestCoordinatorPauseWaitsForCompletionCallback(t *testing.T) {
	a := tid(0, 0)
	entered, release := make(chan struct{}), make(chan struct{})
	triggered := make(chan types.CheckpointID, 1)
	c := NewCoordinator(10*time.Millisecond, 10*time.Second,
		func() []types.TaskID { return []types.TaskID{a} },
		func(cp types.CheckpointID) {
			select {
			case triggered <- cp:
			default:
			}
		},
		func(types.CheckpointID) {
			close(entered)
			<-release
		})
	c.Start()
	defer c.Stop()

	cp := <-triggered
	go c.Ack(cp, a) // runs the parked callback
	<-entered

	paused := make(chan struct{})
	go func() {
		c.Pause()
		close(paused)
	}()
	select {
	case <-paused:
		t.Fatal("Pause returned while the completion callback was still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-paused:
	case <-time.After(5 * time.Second):
		t.Fatal("Pause still blocked after the completion callback returned")
	}
	if c.LatestCompleted() != cp {
		t.Fatalf("latest = %d, want %d", c.LatestCompleted(), cp)
	}
}

func TestCoordinatorReset(t *testing.T) {
	a := tid(0, 0)
	h := newHarness(a)
	c := h.coordinator(15*time.Millisecond, 10*time.Second)
	c.Start()
	defer c.Stop()
	h.waitFor(t, 2*time.Second, func() bool { _, ok := h.lastTriggered(); return ok })
	cp, _ := h.lastTriggered()
	c.Reset()
	c.Ack(cp, a) // ack for a reset checkpoint: ignored
	time.Sleep(50 * time.Millisecond)
	if len(h.completions()) != 0 {
		t.Fatal("ack after reset completed a checkpoint")
	}
	// A new checkpoint triggers and completes normally.
	h.waitFor(t, 2*time.Second, func() bool {
		lcp, ok := h.lastTriggered()
		return ok && lcp > cp
	})
	lcp, _ := h.lastTriggered()
	c.Ack(lcp, a)
	h.waitFor(t, 2*time.Second, func() bool { return len(h.completions()) == 1 })
}

func TestStoreIncrementalChain(t *testing.T) {
	img := statestore.NewStore()
	img.Keyed("x").Put(1, int64(1))
	img.Keyed("x").Put(2, int64(2))
	full, err := img.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	img.ResetDirty()

	s := NewStore("")
	if err := s.Put(&TaskSnapshot{Checkpoint: 1, Task: tid(0, 0), State: full}); err != nil {
		t.Fatal(err)
	}
	// Two chained deltas.
	img.Keyed("x").Put(2, int64(22))
	d1, _ := img.DeltaSnapshot()
	if err := s.Put(&TaskSnapshot{Checkpoint: 2, Task: tid(0, 0), State: d1, StateIsDelta: true}); err != nil {
		t.Fatal(err)
	}
	img.Keyed("x").Delete(1)
	d2, _ := img.DeltaSnapshot()
	if err := s.Put(&TaskSnapshot{Checkpoint: 3, Task: tid(0, 0), State: d2, StateIsDelta: true}); err != nil {
		t.Fatal(err)
	}

	// Get always returns reconstructed full state.
	snap, ok := s.Get(3, tid(0, 0))
	if !ok || snap.StateIsDelta {
		t.Fatalf("snap = %+v ok=%v", snap, ok)
	}
	rec := statestore.NewStore()
	if err := rec.Restore(snap.State); err != nil {
		t.Fatal(err)
	}
	if rec.Keyed("x").Get(1) != nil || rec.Keyed("x").Get(2).(int64) != 22 {
		t.Fatalf("reconstructed = %v %v", rec.Keyed("x").Get(1), rec.Keyed("x").Get(2))
	}
	fullB, deltaB := s.SnapshotTraffic()
	if fullB == 0 || deltaB == 0 {
		t.Fatalf("traffic full=%d delta=%d", fullB, deltaB)
	}
}

func TestStoreDeltaWithoutBase(t *testing.T) {
	s := NewStore("")
	img := statestore.NewStore()
	img.Keyed("x").Put(1, int64(1))
	d, _ := img.DeltaSnapshot()
	if err := s.Put(&TaskSnapshot{Checkpoint: 1, Task: tid(9, 9), State: d, StateIsDelta: true}); err == nil {
		t.Fatal("delta without base accepted")
	}
}
