// Package checkpoint implements coordinated Chandy-Lamport checkpointing:
// a coordinator that periodically triggers barrier injection at the
// sources via RPC, collects per-task acknowledgements, declares
// checkpoints complete, and a snapshot store holding every task's state
// (optionally persisted to disk, standing in for the paper's HDFS).
package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"clonos/internal/obs"
	"clonos/internal/statestore"
	"clonos/internal/types"
)

// TaskSnapshot is everything one task persists at a barrier.
type TaskSnapshot struct {
	Checkpoint types.CheckpointID
	Task       types.TaskID
	// State is the serialized operator state (statestore bytes). When
	// StateIsDelta is set it holds only the entries changed since the
	// task's previous snapshot (§6.4 incremental checkpoints); the
	// snapshot store reconstructs the full image on Put.
	State        []byte
	StateIsDelta bool
	// Timers is the serialized pending-timer set.
	Timers []byte
	// NextSeq is each output channel's next buffer sequence number, so
	// a recovering task resumes channel numbering exactly.
	NextSeq map[types.ChannelID]uint64
	// MainLogBase is the absolute index of the task's causal log at the
	// epoch boundary; a standby seeds its log here so re-appended
	// determinants land on the predecessor's indices.
	MainLogBase uint64
	// ChanWms is each input channel's highest received watermark at the
	// epoch boundary and CurWm the combined watermark already emitted.
	// A replacement must seed watermark merging with both: the combined
	// watermark is a min() over per-channel values carried across epoch
	// boundaries, so a replacement starting from blank channel watermarks
	// would emit (or suppress) different Watermark elements during guided
	// re-execution, breaking the byte-identity that sender-side
	// deduplication relies on.
	ChanWms map[types.ChannelID]int64
	CurWm   int64
	// Fingerprint is the audit plane's state-attestation digest computed
	// over the live task state at snapshot time (see audit.Fingerprint);
	// restore recomputes and compares it. 0 means no fingerprint was
	// recorded (audit disarmed at snapshot time), which skips the check.
	Fingerprint uint64
	// InFlight is the logged-buffer section of an unaligned checkpoint
	// (statestore.EncodeInFlight bytes): the pre-barrier input of every
	// channel whose barrier had not arrived when the task snapshotted.
	// Restore preloads it ahead of live replay. Empty for aligned
	// checkpoints. Held in memory only — the disk mirror (Store.Put)
	// writes operator state, standing in for HDFS's state files, not the
	// transient channel log.
	InFlight []byte
	// SourceBacklog is the polled-but-unemitted tail of a source task's
	// current batch at barrier time. Source operators advance their
	// offsets when a batch is polled, not per emitted element, so a
	// barrier arriving mid-batch snapshots state that already covers
	// elements still waiting in the task's pending batch — elements that
	// then flow in the next epoch. Restore must re-emit them before
	// polling again or they are silently skipped (the offsets are past
	// them). Like InFlight, this section is held in memory only; the
	// disk mirror persists operator state.
	SourceBacklog []types.Element
}

// Store holds snapshots by (checkpoint, task) and tracks which checkpoints
// completed. With a non-empty directory it also writes snapshots to disk,
// exercising the same state-transfer path used for standby dispatch.
type Store struct {
	mu        sync.Mutex
	snaps     map[types.CheckpointID]map[types.TaskID]*TaskSnapshot
	completed types.CheckpointID
	dir       string
	// images reconstruct full state from incremental snapshots (§6.4):
	// one evolving full image per task, advanced by each delta and
	// decoded lazily from lastFull on the first delta.
	images   map[types.TaskID]*statestore.Store
	lastFull map[types.TaskID][]byte
	// traffic accounting: bytes received as full vs delta snapshots.
	fullBytes, deltaBytes uint64
	// exported traffic counters (nil-safe; see Instrument).
	fullCtr, deltaCtr *obs.Counter
}

// NewStore creates a snapshot store. dir may be empty for memory-only.
func NewStore(dir string) *Store {
	return &Store{
		snaps:    make(map[types.CheckpointID]map[types.TaskID]*TaskSnapshot),
		dir:      dir,
		images:   make(map[types.TaskID]*statestore.Store),
		lastFull: make(map[types.TaskID][]byte),
	}
}

// Instrument attaches byte counters mirroring SnapshotTraffic: full
// counts bytes received as full snapshots, delta as incremental deltas.
func (s *Store) Instrument(full, delta *obs.Counter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fullCtr = full
	s.deltaCtr = delta
}

// Put stores one task's snapshot for a checkpoint. Incremental snapshots
// are merged into the task's retained full image, so Get always returns
// full state.
func (s *Store) Put(snap *TaskSnapshot) error {
	s.mu.Lock()
	if snap.StateIsDelta {
		s.deltaBytes += uint64(len(snap.State))
		s.deltaCtr.Add(uint64(len(snap.State)))
		img, ok := s.images[snap.Task]
		if !ok {
			// Lazily decode the base image from the last full snapshot.
			base, haveBase := s.lastFull[snap.Task]
			if !haveBase {
				s.mu.Unlock()
				return fmt.Errorf("checkpoint: delta snapshot for %v without a base image", snap.Task)
			}
			img = statestore.NewStore()
			if err := img.Restore(base); err != nil {
				s.mu.Unlock()
				return err
			}
			s.images[snap.Task] = img
		}
		if err := img.ApplyDelta(snap.State); err != nil {
			s.mu.Unlock()
			return err
		}
		full, err := img.Snapshot()
		if err != nil {
			s.mu.Unlock()
			return err
		}
		snap.State = full
		snap.StateIsDelta = false
		s.lastFull[snap.Task] = full
	} else {
		s.fullBytes += uint64(len(snap.State))
		s.fullCtr.Add(uint64(len(snap.State)))
		s.lastFull[snap.Task] = snap.State
		delete(s.images, snap.Task)
	}
	m, ok := s.snaps[snap.Checkpoint]
	if !ok {
		m = make(map[types.TaskID]*TaskSnapshot)
		s.snaps[snap.Checkpoint] = m
	}
	m[snap.Task] = snap
	dir := s.dir
	s.mu.Unlock()
	if dir == "" {
		return nil
	}
	name := filepath.Join(dir, fmt.Sprintf("chk-%d-v%d-%d.state", snap.Checkpoint, snap.Task.Vertex, snap.Task.Subtask))
	return os.WriteFile(name, snap.State, 0o644)
}

// Get returns one task's snapshot for a checkpoint.
func (s *Store) Get(cp types.CheckpointID, task types.TaskID) (*TaskSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.snaps[cp]
	if !ok {
		return nil, false
	}
	snap, ok := m[task]
	return snap, ok
}

// MarkCompleted records that a checkpoint completed; older checkpoints
// are discarded.
func (s *Store) MarkCompleted(cp types.CheckpointID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cp <= s.completed {
		return
	}
	s.completed = cp
	for old := range s.snaps {
		if old < cp {
			delete(s.snaps, old)
		}
	}
}

// LatestCompleted returns the newest completed checkpoint (0 = none).
func (s *Store) LatestCompleted() types.CheckpointID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed
}

// SnapshotTraffic reports the state bytes received as full snapshots and
// as incremental deltas — the §6.4 state-transfer cost.
func (s *Store) SnapshotTraffic() (full, delta uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fullBytes, s.deltaBytes
}

// Coordinator drives periodic checkpoints. It triggers a checkpoint only
// after the previous one completed (no concurrent checkpoints, matching
// §6.4's assumption), collects acks from every expected task, and invokes
// the completion callback — which the job layer uses to truncate in-flight
// and causal logs and to dispatch state to standby tasks.
// CoordinatorMetrics instruments checkpoint progress. All fields are
// optional (nil-safe): Triggered counts checkpoints started, Completed
// those fully acked, Aborted those abandoned (timeout or recovery
// pause), and Duration observes trigger-to-completion seconds.
type CoordinatorMetrics struct {
	Triggered *obs.Counter
	Completed *obs.Counter
	Aborted   *obs.Counter
	Duration  *obs.Histogram
}

// SpanName names the tracer span covering one checkpoint epoch, from
// trigger to completion (or abort). Its marks record the protocol
// milestones in arrival order: "first-barrier" when any task first sees
// the epoch's barrier, "align-complete:<task>" when that task finishes
// barrier alignment, "snapshot-persisted:<task>" when its snapshot
// lands in the store, "ack:<task>" for each acknowledgement, and
// "complete" when the epoch is declared done. Aborted epochs end with
// an "aborted" attribute (pause | reset | timeout) instead. Epochs where
// any task snapshotted through the unaligned capture path carry an
// "alignment"="unaligned" attribute (see Coordinator.AnnotateCheckpoint).
const SpanName = "checkpoint"

type Coordinator struct {
	interval time.Duration
	timeout  time.Duration
	expected func() []types.TaskID
	trigger  func(cp types.CheckpointID)
	complete func(cp types.CheckpointID)
	metrics  CoordinatorMetrics
	tracer   *obs.Tracer

	mu        sync.Mutex
	current   types.CheckpointID // checkpoint in flight, 0 = none
	next      types.CheckpointID
	acked     map[types.TaskID]bool
	started   time.Time
	completed types.CheckpointID
	paused    bool
	// completing is true while the completion callback of a just-finished
	// checkpoint runs (without mu); callbackDone is signalled when it
	// returns. Pause waits on it.
	completing   bool
	callbackDone *sync.Cond
	span         *obs.Span       // epoch span for the in-flight checkpoint
	marked       map[string]bool // span marks already recorded (dedup)

	stop chan struct{}
	done sync.WaitGroup
}

// NewCoordinator builds a coordinator. expected lists the tasks that must
// ack each checkpoint; trigger injects the barrier RPC at the sources;
// complete fires when all acks arrive.
func NewCoordinator(interval, timeout time.Duration, expected func() []types.TaskID, trigger, complete func(cp types.CheckpointID)) *Coordinator {
	c := &Coordinator{
		interval: interval,
		timeout:  timeout,
		expected: expected,
		trigger:  trigger,
		complete: complete,
		next:     1,
		stop:     make(chan struct{}),
	}
	c.callbackDone = sync.NewCond(&c.mu)
	return c
}

// Instrument attaches progress metrics. Call before Start.
func (c *Coordinator) Instrument(m CoordinatorMetrics) {
	c.metrics = m
}

// Trace attaches a tracer; each subsequent checkpoint epoch becomes a
// SpanName span from trigger to completion/abort. Call before Start.
func (c *Coordinator) Trace(tr *obs.Tracer) {
	c.tracer = tr
}

// MarkCheckpoint records a named milestone on the in-flight epoch's
// span. Marks for checkpoints that are not in flight are dropped (stale
// barriers from recovered tasks), and each name is recorded at most once
// per epoch — so "first-barrier" can be reported by every task and only
// the first arrival lands on the span. Nil-safe without a tracer.
func (c *Coordinator) MarkCheckpoint(cp types.CheckpointID, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cp != c.current || c.span == nil || c.marked[name] {
		return
	}
	c.marked[name] = true
	c.span.Mark(name)
}

// AnnotateCheckpoint sets an attribute on the in-flight epoch's span —
// e.g. the job layer stamps "alignment"="unaligned" when any task takes
// the epoch's snapshot through the unaligned capture path. Attributes for
// checkpoints that are not in flight are dropped; nil-safe without a
// tracer.
func (c *Coordinator) AnnotateCheckpoint(cp types.CheckpointID, key, value string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cp != c.current || c.span == nil {
		return
	}
	c.span.SetAttr(key, value)
}

// endSpanLocked detaches and finishes the in-flight epoch span. With a
// non-empty abort reason the span gets an "aborted" attribute instead of
// a "complete" mark. Caller holds c.mu; Span methods take only the
// span's own lock, so ending under c.mu cannot deadlock.
func (c *Coordinator) endSpanLocked(aborted string) {
	sp := c.span
	c.span = nil
	c.marked = nil
	if sp == nil {
		return
	}
	if aborted != "" {
		sp.SetAttr("aborted", aborted)
	} else {
		sp.Mark("complete")
	}
	sp.End()
}

// Start launches the coordinator loop.
func (c *Coordinator) Start() {
	c.done.Add(1)
	go c.run()
}

// Stop terminates the coordinator.
func (c *Coordinator) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.done.Wait()
}

// Pause suspends triggering and completion (used while a recovery is in
// flight so no truncation races with in-flight replay) and aborts any
// checkpoint currently in flight — a failed task would never ack it, and
// its barriers may be lost with the failure. Resume re-enables.
//
// A checkpoint that has just completed is not aborted: Pause returns only
// after its completion callback has, so the caller sees either all of a
// checkpoint's completion effects (marked completed, logs truncated,
// standby state dispatched) or none — never the callback's first half,
// which would let a recovery restore checkpoint N-1 under N's
// truncations. Must not be called from the completion callback.
func (c *Coordinator) Pause() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.paused = true
	if c.current != 0 {
		c.metrics.Aborted.Inc()
		c.endSpanLocked("pause")
	}
	c.current = 0
	c.acked = nil
	for c.completing {
		c.callbackDone.Wait()
	}
}

// Resume re-enables checkpointing after a Pause. An in-flight checkpoint
// whose acks all arrived while paused completes on the next tick.
func (c *Coordinator) Resume() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.paused = false
}

// LatestCompleted returns the newest completed checkpoint ID.
func (c *Coordinator) LatestCompleted() types.CheckpointID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.completed
}

// Reset aborts any in-flight checkpoint (after a global rollback).
func (c *Coordinator) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current != 0 {
		c.metrics.Aborted.Inc()
		c.endSpanLocked("reset")
	}
	c.current = 0
	c.acked = nil
}

// Ack records one task's acknowledgement for a checkpoint. Acks for
// checkpoints that are not in flight are ignored (stale re-acks from
// recovered tasks replaying barriers).
func (c *Coordinator) Ack(cp types.CheckpointID, task types.TaskID) {
	c.mu.Lock()
	if cp != c.current || c.acked == nil {
		c.mu.Unlock()
		return
	}
	c.acked[task] = true
	if c.span != nil {
		name := "ack:" + task.String()
		if !c.marked[name] {
			c.marked[name] = true
			c.span.Mark(name)
		}
	}
	expected := c.expected()
	for _, t := range expected {
		if !c.acked[t] {
			c.mu.Unlock()
			return
		}
	}
	// All acks in: complete unless paused (completion then happens on
	// a later tick, after recovery resumes checkpointing).
	if c.paused {
		c.mu.Unlock()
		return
	}
	c.finishLocked()
	c.mu.Unlock()
}

// finishLocked completes the in-flight checkpoint. Caller holds c.mu; the
// completion callback runs without the lock.
func (c *Coordinator) finishLocked() {
	cp := c.current
	c.current = 0
	c.acked = nil
	c.completed = cp
	c.metrics.Completed.Inc()
	c.metrics.Duration.ObserveSince(c.started)
	c.endSpanLocked("")
	complete := c.complete
	c.completing = true
	c.mu.Unlock()
	if complete != nil {
		complete(cp)
	}
	c.mu.Lock()
	c.completing = false
	c.callbackDone.Broadcast()
}

func (c *Coordinator) run() {
	defer c.done.Done()
	tick := time.NewTicker(c.interval / 4)
	defer tick.Stop()
	lastTrigger := time.Time{}
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		if c.paused {
			c.mu.Unlock()
			continue
		}
		if c.current != 0 {
			// Re-check completion (acks may have arrived while paused)
			// and abandon checkpoints that outlive the timeout (a
			// failure is being handled by a global restart).
			all := true
			for _, t := range c.expected() {
				if !c.acked[t] {
					all = false
					break
				}
			}
			if all {
				c.finishLocked()
			} else if c.timeout > 0 && time.Since(c.started) > c.timeout {
				c.metrics.Aborted.Inc()
				c.endSpanLocked("timeout")
				c.current = 0
				c.acked = nil
			}
			c.mu.Unlock()
			continue
		}
		if time.Since(lastTrigger) < c.interval {
			c.mu.Unlock()
			continue
		}
		cp := c.next
		c.next++
		c.current = cp
		c.acked = make(map[types.TaskID]bool)
		c.started = time.Now()
		c.metrics.Triggered.Inc()
		if c.tracer != nil {
			c.span = c.tracer.StartSpan(SpanName, map[string]string{"cp": fmt.Sprintf("%d", cp)})
			c.marked = make(map[string]bool)
		}
		trigger := c.trigger
		c.mu.Unlock()
		lastTrigger = time.Now()
		if trigger != nil {
			trigger(cp)
		}
	}
}
