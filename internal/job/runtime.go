package job

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clonos/internal/audit"
	"clonos/internal/checkpoint"
	"clonos/internal/faultinject"
	"clonos/internal/netstack"
	"clonos/internal/obs"
	"clonos/internal/types"
)

// EventKind labels runtime events recorded for the experiment harness.
type EventKind string

// Runtime event kinds.
const (
	EventFailureInjected  EventKind = "failure-injected"
	EventFailureDetected  EventKind = "failure-detected"
	EventStandbyActivated EventKind = "standby-activated"
	EventTaskLive         EventKind = "task-live"
	EventCaughtUp         EventKind = "caught-up"
	EventGlobalRestart    EventKind = "global-restart"
	EventCheckpointDone   EventKind = "checkpoint-complete"
	EventOrphanFallback   EventKind = "orphan-global-fallback"
	EventNodeFailure      EventKind = "node-failure"
	// EventAlignSuperseded records a newer barrier cancelling a pending
	// alignment (the older checkpoint was aborted mid-flight).
	EventAlignSuperseded EventKind = "alignment-superseded"
	// Watchdog events (see Config.StallDeadline): progress stopped on a
	// task's input stream, a pending barrier alignment, or checkpoint
	// completion respectively.
	EventTaskStall      EventKind = "task-stall"
	EventAlignmentStall EventKind = "alignment-stall"
	EventEpochStall     EventKind = "epoch-stall"
	// EventFaultInjected records an armed crash point firing (see
	// Config.Faults); Info carries the crash-point name.
	EventFaultInjected EventKind = "fault-injected"
	// EventAuditViolation records the audit plane detecting a causal-
	// consistency invariant breach (see Config.Audit); Info carries the
	// invariant name and detail, and the event attributes carry the
	// invariant and channel for clonos-trace -audit.
	EventAuditViolation EventKind = "audit-violation"
	// EventAuditFingerprint records a successful state-attestation check
	// at restore (Info: "cp=N fp=... verified"), giving clonos-trace
	// -audit a per-recovery fingerprint-comparison record.
	EventAuditFingerprint EventKind = "audit-fingerprint"
	// EventUnalignedSnapshot records a task converting a pending
	// alignment to an unaligned snapshot once it exceeded
	// Config.AlignmentBudget (at the first barrier when the budget is
	// 0). Info carries the checkpoint; the in-flight capture of the
	// not-yet-barriered channels begins here.
	EventUnalignedSnapshot EventKind = "unaligned-snapshot"
)

// RecoverySpanName is the tracer span covering one local recovery, from
// failure detection to the recovered task catching up. Its marks (in
// protocol order) name the recovery phases: standby-activated,
// determinants-retrieved, network-reconfigured, replay-done, caught-up.
const RecoverySpanName = "recovery"

// Event is one timestamped runtime event.
type Event struct {
	Time time.Time
	Kind EventKind
	Task types.TaskID
	Info string
}

// Runtime is the job manager: it owns the execution graph's tasks, the
// network, the checkpoint coordinator, the snapshot store, failure
// detection (the liveness loop), standby tasks, and recovery.
type Runtime struct {
	cfg   Config
	graph *Graph
	net   *netstack.Network
	snaps *checkpoint.Store
	coord *checkpoint.Coordinator

	mu          sync.Mutex
	tasks       map[types.TaskID]*Task
	standbys    map[types.TaskID]*Task
	standbySnap map[types.TaskID]*checkpoint.TaskSnapshot
	// standbyLag holds per-standby sync-lag values (checkpoints behind
	// the latest completed one), updated under mu but stored atomically so
	// the standby-lag gauges never take mu from inside the registry lock.
	standbyLag map[types.TaskID]*atomic.Int64
	finished   map[types.TaskID]bool
	failedSet  map[types.TaskID]bool
	recovering map[types.TaskID]bool
	// pendingReplay holds replay requests addressed to tasks that are
	// themselves awaiting recovery (consecutive failures).
	pendingReplay map[types.TaskID][]replayRequest
	// nodeOf / standbyNodeOf simulate cluster placement (§6.3).
	nodeOf        map[types.TaskID]int
	standbyNodeOf map[types.TaskID]int
	// recSpans holds the recovery span of each detected-but-not-yet-
	// activated failure; localRecover claims the span and hands it to the
	// replacement task, which ends it at caught-up.
	recSpans   map[types.TaskID]*obs.Span
	errs       []error
	restarting bool
	stopped    bool

	// pauseGate makes "no recovery pending: resume checkpointing" and "a
	// task failed: pause it" each one step, so a resume decided before a
	// failure was declared cannot land after that failure's pause. Taken
	// before mu and the coordinator's lock, never while holding either.
	pauseGate sync.Mutex

	// restartGate serializes global restarts against local recoveries:
	// localRecover runs under the read side, globalRestart under the
	// write side, so a restart triggered asynchronously (e.g. by an
	// unserviceable replay) can never tear the topology down while a
	// local recovery is installing and starting a replacement task.
	restartGate sync.RWMutex

	crashWake chan struct{} // Task.crash's wake-up to the liveness loop
	recoverCh chan types.TaskID
	allDone   chan struct{}
	doneOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup

	// progress is a broadcast channel for event-driven waiting: every
	// recorded runtime event closes and replaces it, waking WaitForEvent /
	// WaitForCheckpoint without polling.
	progressMu sync.Mutex
	progress   chan struct{}

	obs     *obs.Registry
	tracer  *obs.Tracer
	metrics runtimeMetrics
}

type replayRequest struct {
	channel   types.ChannelID
	fromEpoch types.EpochID
	afterSeq  uint64
}

// NewRuntime builds a runtime for the graph.
func NewRuntime(g *Graph, cfg Config) (*Runtime, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	r := &Runtime{
		cfg:           cfg,
		graph:         g,
		net:           netstack.NewNetwork(),
		snaps:         checkpoint.NewStore(cfg.SnapshotDir),
		tasks:         make(map[types.TaskID]*Task),
		standbys:      make(map[types.TaskID]*Task),
		standbySnap:   make(map[types.TaskID]*checkpoint.TaskSnapshot),
		standbyLag:    make(map[types.TaskID]*atomic.Int64),
		finished:      make(map[types.TaskID]bool),
		failedSet:     make(map[types.TaskID]bool),
		recovering:    make(map[types.TaskID]bool),
		pendingReplay: make(map[types.TaskID][]replayRequest),
		nodeOf:        make(map[types.TaskID]int),
		standbyNodeOf: make(map[types.TaskID]int),
		recSpans:      make(map[types.TaskID]*obs.Span),
		crashWake:     make(chan struct{}, 1),
		recoverCh:     make(chan types.TaskID, 256),
		allDone:       make(chan struct{}),
		stop:          make(chan struct{}),
		obs:           cfg.Obs,
		tracer:        obs.NewTracer(),
		progress:      make(chan struct{}),
	}
	if cfg.Faults != nil {
		// Kills redirected at a different task than the one hitting the
		// crash point route through here (overlapping-failure schedules).
		cfg.Faults.OnKill(func(task string) {
			for _, id := range g.AllTaskIDs() {
				if id.String() == task {
					r.mu.Lock()
					t := r.tasks[id]
					r.mu.Unlock()
					if t != nil {
						r.recordEvent(EventFaultInjected, id, "target-kill")
						t.crash()
					}
					return
				}
			}
		})
	}
	if cfg.Audit != nil {
		// Audit reporting: every violation becomes a labelled counter
		// increment plus a structured tracer event (and through the trace
		// sink, a flight-recorder record). /healthz aggregates the counter
		// family into the job health verdict.
		cfg.Audit.SetReporter(func(v audit.Violation) {
			vertexName := fmt.Sprintf("v%d", v.Task.Vertex)
			if int(v.Task.Vertex) < len(g.Vertices) {
				vertexName = g.Vertices[v.Task.Vertex].Name
			}
			r.obs.Counter("clonos_audit_violations_total",
				"Causal-consistency audit violations detected by the audit plane.",
				obs.Labels{"invariant": v.Invariant, "vertex": vertexName, "subtask": strconv.Itoa(int(v.Task.Subtask))}).Inc()
			attrs := map[string]string{
				"task":      v.Task.String(),
				"invariant": v.Invariant,
				"info":      v.Detail,
			}
			if v.Channel != "" {
				attrs["channel"] = v.Channel
			}
			r.tracer.Emit(string(EventAuditViolation),
				Event{Time: time.Now(), Kind: EventAuditViolation, Task: v.Task, Info: v.Invariant + ": " + v.Detail}, attrs)
			r.notifyProgress()
		})
	}
	r.tracer.SetLimits(cfg.TraceMaxEvents, cfg.TraceMaxSpans)
	if cfg.TraceSink != nil {
		r.tracer.SetSink(cfg.TraceSink)
	}
	r.registerTracerHealth()
	r.metrics = newRuntimeMetrics(r.obs)
	r.snaps.Instrument(
		r.obs.Counter("clonos_checkpoint_state_bytes_total", "State bytes received by the snapshot store.", obs.Labels{"kind": "full"}),
		r.obs.Counter("clonos_checkpoint_state_bytes_total", "State bytes received by the snapshot store.", obs.Labels{"kind": "delta"}),
	)
	r.coord = checkpoint.NewCoordinator(
		cfg.CheckpointInterval,
		checkpointTimeout,
		r.expectedAcks,
		r.triggerCheckpoint,
		r.onCheckpointComplete,
	)
	r.coord.Instrument(checkpoint.CoordinatorMetrics{
		Triggered: r.obs.Counter("clonos_checkpoint_triggered_total", "Checkpoints triggered by the coordinator.", nil),
		Completed: r.obs.Counter("clonos_checkpoint_completed_total", "Checkpoints fully acknowledged.", nil),
		Aborted:   r.obs.Counter("clonos_checkpoint_aborted_total", "Checkpoints abandoned (timeout or recovery pause).", nil),
		Duration:  r.obs.Histogram("clonos_checkpoint_duration_seconds", "Trigger-to-completion checkpoint time.", obs.DefDurationBuckets, nil),
	})
	r.coord.Trace(r.tracer)
	return r, nil
}

// registerTracerHealth exposes the tracer's own health: records that
// fell out of the bounded rings and current ring occupancy.
func (r *Runtime) registerTracerHealth() {
	tr := r.tracer
	r.obs.GaugeFunc("clonos_tracer_dropped_events", "Tracer events evicted from the bounded ring.", nil, func() float64 {
		ev, _ := tr.Dropped()
		return float64(ev)
	})
	r.obs.GaugeFunc("clonos_tracer_dropped_spans", "Tracer spans evicted from the bounded ring.", nil, func() float64 {
		_, sp := tr.Dropped()
		return float64(sp)
	})
	r.obs.GaugeFunc("clonos_tracer_ring_events", "Tracer events currently retained.", nil, func() float64 {
		ev, _ := tr.Len()
		return float64(ev)
	})
	r.obs.GaugeFunc("clonos_tracer_ring_spans", "Tracer spans currently retained.", nil, func() float64 {
		_, sp := tr.Len()
		return float64(sp)
	})
}

// Obs returns the runtime's metrics registry.
func (r *Runtime) Obs() *obs.Registry { return r.obs }

// Tracer returns the runtime's event/span tracer.
func (r *Runtime) Tracer() *obs.Tracer { return r.tracer }

// Graph returns the job's dataflow graph.
func (r *Runtime) Graph() *Graph { return r.graph }

// Config returns the runtime configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Start deploys and launches every task (plus standbys in HA mode), the
// checkpoint coordinator, the liveness loop, and the recovery worker.
func (r *Runtime) Start() error {
	r.mu.Lock()
	for _, v := range r.graph.Vertices {
		for s := int32(0); s < int32(v.Parallelism); s++ {
			t := newTask(r, v, s)
			r.tasks[t.id] = t
		}
	}
	for _, t := range r.tasks {
		t.attachNetwork(true)
	}
	if r.cfg.Mode == ModeClonos && r.cfg.Standby {
		for id := range r.tasks {
			r.standbys[id] = newTask(r, r.graph.Vertices[id.Vertex], id.Subtask)
			r.standbyLag[id] = &atomic.Int64{}
		}
	}
	r.assignNodes()
	tasks := make([]*Task, 0, len(r.tasks))
	for _, t := range r.tasks {
		tasks = append(tasks, t)
	}
	built := slices.Clone(tasks)
	for _, t := range r.standbys {
		built = append(built, t)
	}
	for _, t := range built {
		if t.buildErr == nil {
			continue
		}
		// Nothing runs yet: close the out-channels (each log owns a
		// spiller thread) and leave a runtime that Stop finds stopped.
		r.stopped = true
		r.mu.Unlock()
		for _, u := range built {
			for _, oc := range u.allOut {
				oc.close()
			}
		}
		return fmt.Errorf("job: deploy %v: %w", t.id, t.buildErr)
	}
	r.mu.Unlock()
	// Register outside r.mu: the callbacks read atomics only, and the
	// registry lock must never nest inside the runtime lock.
	for id, lag := range r.standbyLag {
		lbl := obs.Labels{"vertex": r.graph.Vertices[id.Vertex].Name, "subtask": strconv.Itoa(int(id.Subtask))}
		v := lag
		r.obs.GaugeFunc("clonos_standby_sync_lag", "Checkpoints the standby's preloaded snapshot trails the latest completed checkpoint.", lbl,
			func() float64 { return float64(v.Load()) })
	}
	for _, t := range tasks {
		t.start()
	}
	r.coord.Start()
	r.wg.Add(2)
	go r.liveness()
	go r.recoveryWorker()
	return nil
}

// Stop tears the job down.
func (r *Runtime) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
	// A recovery in progress runs to its end (later ones see stopped), so
	// the replacement and standby it deploys are in the teardown below.
	r.restartGate.Lock()
	//lint:ignore SA2001 a barrier, not a critical section
	r.restartGate.Unlock()
	r.mu.Lock()
	tasks := make([]*Task, 0, len(r.tasks))
	for _, t := range r.tasks {
		tasks = append(tasks, t)
	}
	standbys := make([]*Task, 0, len(r.standbys))
	for _, t := range r.standbys {
		standbys = append(standbys, t)
	}
	r.mu.Unlock()
	close(r.stop)
	r.coord.Stop()
	for _, t := range tasks {
		t.shutdown()
	}
	for _, t := range standbys {
		for _, oc := range t.allOut {
			oc.close()
		}
	}
	r.wg.Wait()
}

// WaitFinished blocks until every task reached end-of-stream or the
// timeout elapsed; it reports whether the job finished.
func (r *Runtime) WaitFinished(timeout time.Duration) bool {
	select {
	case <-r.allDone:
		return true
	case <-time.After(timeout):
		return false
	}
}

// InjectFailure crashes a running task abruptly. The crash wakes the
// liveness loop, which declares it on its own goroutine: the failure
// instant is EventFailureInjected, not the return of this call.
func (r *Runtime) InjectFailure(id types.TaskID) error {
	r.mu.Lock()
	_, ok := r.tasks[id]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("job: unknown task %v", id)
	}
	r.crashAll([]types.TaskID{id}, "")
	return nil
}

// crashAll crashes the given tasks at one instant as far as detection is
// concerned: the liveness pass needs r.mu, so holding it until every
// victim is down makes one pass declare them together.
func (r *Runtime) crashAll(ids []types.TaskID, info string) {
	for _, id := range ids {
		r.recordEvent(EventFailureInjected, id, info)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		if t := r.tasks[id]; t != nil {
			t.crash()
		}
	}
}

// LatestCompletedCheckpoint returns the newest completed checkpoint ID.
func (r *Runtime) LatestCompletedCheckpoint() types.CheckpointID {
	return r.snaps.LatestCompleted()
}

// Events returns a copy of the recorded runtime events, rebuilt from the
// tracer's event stream (recordEvent stores the Event as the payload).
func (r *Runtime) Events() []Event {
	traced := r.tracer.Events()
	out := make([]Event, 0, len(traced))
	for _, te := range traced {
		if ev, ok := te.Payload.(Event); ok {
			out = append(out, ev)
		}
	}
	return out
}

// Errors returns task errors reported so far.
func (r *Runtime) Errors() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]error(nil), r.errs...)
}

// TaskRecordCounts sums records in/out across live tasks of a vertex.
func (r *Runtime) TaskRecordCounts(v types.VertexID) (in, out uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, t := range r.tasks {
		if id.Vertex == v {
			in += t.recordsIn.Load()
			out += t.recordsOut.Load()
		}
	}
	return in, out
}

func (r *Runtime) recordEvent(kind EventKind, id types.TaskID, info string) {
	// Attrs duplicate the payload's portable fields: the payload is not
	// serialized into flight recordings, attributes are.
	attrs := map[string]string{"task": id.String()}
	if info != "" {
		attrs["info"] = info
	}
	r.tracer.Emit(string(kind), Event{Time: time.Now(), Kind: kind, Task: id, Info: info}, attrs)
	r.notifyProgress()
}

// notifyProgress wakes everything blocked in WaitForEvent/WaitForCheckpoint.
func (r *Runtime) notifyProgress() {
	r.progressMu.Lock()
	close(r.progress)
	r.progress = make(chan struct{})
	r.progressMu.Unlock()
}

// progressCh returns the current broadcast channel; it is closed on the
// next recorded event. Take the channel BEFORE checking a condition and
// a wake-up can never be lost between check and wait.
func (r *Runtime) progressCh() <-chan struct{} {
	r.progressMu.Lock()
	ch := r.progress
	r.progressMu.Unlock()
	return ch
}

// WaitForCheckpoint blocks until checkpoint cp has completed (event-
// driven, no polling) and reports whether it did before the timeout.
func (r *Runtime) WaitForCheckpoint(cp types.CheckpointID, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ch := r.progressCh()
		if r.snaps.LatestCompleted() >= cp {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return r.snaps.LatestCompleted() >= cp
		case <-r.stop:
			return false
		}
	}
}

// WaitForEvent blocks until a recorded runtime event satisfies pred
// (evaluated over the full retained event history, so an event recorded
// before the call also matches) and reports whether one did before the
// timeout.
func (r *Runtime) WaitForEvent(timeout time.Duration, pred func(Event) bool) bool {
	check := func() bool {
		for _, ev := range r.Events() {
			if pred(ev) {
				return true
			}
		}
		return false
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ch := r.progressCh()
		if check() {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return check()
		case <-r.stop:
			return false
		}
	}
}

// expectedAcks lists unfinished tasks (the coordinator's ack set).
func (r *Runtime) expectedAcks() []types.TaskID {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []types.TaskID
	for _, id := range r.graph.AllTaskIDs() {
		if !r.finished[id] {
			out = append(out, id)
		}
	}
	return out
}

// triggerCheckpoint sends the checkpoint RPC to every source task.
func (r *Runtime) triggerCheckpoint(cp types.CheckpointID) {
	r.mu.Lock()
	var sources []*Task
	for id, t := range r.tasks {
		if r.graph.Vertices[id.Vertex].Source != nil && !r.finished[id] {
			sources = append(sources, t)
		}
	}
	r.mu.Unlock()
	for _, t := range sources {
		t.TriggerCheckpoint(cp)
	}
}

// onCheckpointComplete truncates logs everywhere and dispatches fresh
// state snapshots to standby tasks (§6.4).
func (r *Runtime) onCheckpointComplete(cp types.CheckpointID) {
	r.snaps.MarkCompleted(cp)
	r.recordEvent(EventCheckpointDone, types.TaskID{}, fmt.Sprintf("cp=%d", cp))
	r.mu.Lock()
	tasks := make([]*Task, 0, len(r.tasks))
	for _, t := range r.tasks {
		tasks = append(tasks, t)
	}
	for id := range r.standbys {
		if snap, ok := r.snaps.Get(cp, id); ok {
			r.standbySnap[id] = snap
		}
		if lag := r.standbyLag[id]; lag != nil {
			var have types.CheckpointID
			if snap := r.standbySnap[id]; snap != nil {
				have = snap.Checkpoint
			}
			lag.Store(int64(cp) - int64(have))
		}
	}
	r.mu.Unlock()
	for _, t := range tasks {
		t.NotifyCheckpointComplete(cp)
	}
	// Recorded stream hashes for epochs at or below cp can never be
	// replayed against again (replay starts past the latest completed
	// checkpoint), so the auditor drops them alongside in-flight logs.
	r.cfg.Audit.Truncate(cp)
}

// onSnapshot stores a task snapshot and acks the coordinator.
func (r *Runtime) onSnapshot(snap *checkpoint.TaskSnapshot) {
	if err := r.snaps.Put(snap); err != nil {
		r.reportTaskError(snap.Task, err)
		return
	}
	r.coord.MarkCheckpoint(snap.Checkpoint, "snapshot-persisted:"+snap.Task.String())
	if r.faultHit(faultinject.PointPersistAckWindow, snap.Task) {
		// The task died with its snapshot durable but unacknowledged:
		// the checkpoint must abort (coordinator pause on detection) and
		// the persisted-but-uncommitted snapshot must never be restored.
		return
	}
	r.coord.Ack(snap.Checkpoint, snap.Task)
}

// faultHit fires a crash point on behalf of a task from runtime code (the
// persist→ack window runs on the task's main thread but is owned by the
// job manager); true means the task was crashed and the step guarded by
// the point must not execute.
func (r *Runtime) faultHit(point string, id types.TaskID) bool {
	fi := r.cfg.Faults
	if fi == nil || !fi.Hit(point, id.String()) {
		return false
	}
	r.mu.Lock()
	t := r.tasks[id]
	r.mu.Unlock()
	if t == nil {
		return false
	}
	r.recordEvent(EventFaultInjected, id, point)
	t.crash()
	return true
}

// onBarrier marks the epoch span when a task sees the checkpoint's
// barrier; the coordinator dedupes so only the first arrival lands.
func (r *Runtime) onBarrier(cp types.CheckpointID, id types.TaskID) {
	_ = id
	r.coord.MarkCheckpoint(cp, "first-barrier")
}

// onUnalignedSnapshot records a task switching checkpoint cp into
// unaligned capture and tags the checkpoint's span, so traces show which
// completed checkpoints logged in-flight input (and on which tasks).
func (r *Runtime) onUnalignedSnapshot(cp types.CheckpointID, id types.TaskID) {
	r.recordEvent(EventUnalignedSnapshot, id, fmt.Sprintf("cp=%d", cp))
	r.coord.MarkCheckpoint(cp, "unaligned:"+id.String())
	r.coord.AnnotateCheckpoint(cp, "alignment", "unaligned")
}

// onAlignmentComplete marks the epoch span when one task finished
// barrier alignment.
func (r *Runtime) onAlignmentComplete(cp types.CheckpointID, id types.TaskID) {
	r.coord.MarkCheckpoint(cp, "align-complete:"+id.String())
}

// onTaskLive is called when a task finishes causally guided replay (or
// starts fresh); once no recovery remains, checkpointing resumes.
func (r *Runtime) onTaskLive(id types.TaskID) {
	r.recordEvent(EventTaskLive, id, "")
	r.pauseGate.Lock()
	defer r.pauseGate.Unlock()
	r.mu.Lock()
	delete(r.recovering, id)
	empty := len(r.recovering) == 0 && len(r.failedSet) == 0 && !r.restarting
	r.mu.Unlock()
	if empty {
		r.coord.Resume()
	}
}

// onTaskFinished marks end-of-stream completion.
func (r *Runtime) onTaskFinished(id types.TaskID) {
	r.mu.Lock()
	r.finished[id] = true
	all := true
	for _, tid := range r.graph.AllTaskIDs() {
		if !r.finished[tid] {
			all = false
			break
		}
	}
	r.mu.Unlock()
	if all {
		r.doneOnce.Do(func() { close(r.allDone) })
	}
}

// reportTaskError records an internal task error.
func (r *Runtime) reportTaskError(id types.TaskID, err error) {
	r.mu.Lock()
	r.errs = append(r.errs, fmt.Errorf("%v: %w", id, err))
	r.mu.Unlock()
}

// liveness is the one goroutine that declares failures (DESIGN.md
// "Failure detection"). Task.crash — the only way a task dies — posts a
// wake-up and the loop declares the death at once; the sweep of the same
// predicate every HeartbeatTimeout/4 is the fallback for wake-ups that
// could not be acted on (posted during a global restart, or by a
// replacement that died before localRecover installed it). The loop also
// runs the stall watchdog's scan, which only observes.
func (r *Runtime) liveness() {
	defer r.wg.Done()
	sweep := time.NewTicker(max(r.cfg.HeartbeatTimeout/4, time.Millisecond))
	defer sweep.Stop()
	var stallScan <-chan time.Time // nil (never ready) with the watchdog off
	if d := r.cfg.StallDeadline; d > 0 {
		tick := time.NewTicker(max(d/4, 10*time.Millisecond))
		defer tick.Stop()
		stallScan = tick.C
	}
	ws := newWatchdogState(time.Now())
	for {
		select {
		case <-r.stop:
			return
		case now := <-stallScan:
			r.metrics.stalledTasks.Set(int64(r.scanStalls(ws, now)))
		case <-r.crashWake:
			r.declareCrashed()
		case <-sweep.C:
			r.declareCrashed()
		}
	}
}

// declareCrashed declares every crashed task that is not yet awaiting
// recovery failed and enqueues its recovery.
func (r *Runtime) declareCrashed() {
	select {
	case <-r.allDone:
		// Every task reached end-of-stream: the job's output is
		// complete, so late process deaths during wind-down need no
		// recovery (and must not race teardown with one).
		return
	default:
	}
	r.pauseGate.Lock()
	r.mu.Lock()
	if r.restarting || r.stopped {
		r.mu.Unlock()
		r.pauseGate.Unlock()
		return
	}
	var newlyFailed []types.TaskID
	for id, t := range r.tasks {
		// Tasks already declared failed are skipped; tasks in guided
		// replay and finished tasks are NOT — a finished process's log may
		// be mid-replay to a recovering peer, so it is recovered like any
		// other: the replacement re-executes to end-of-stream, re-serves
		// its log, and receivers dedup the re-sent suffix.
		if r.failedSet[id] || !t.crashed.Load() {
			continue
		}
		r.failedSet[id] = true
		delete(r.recovering, id)
		delete(r.finished, id)
		newlyFailed = append(newlyFailed, id)
	}
	r.mu.Unlock()
	for _, id := range newlyFailed {
		r.recordEvent(EventFailureDetected, id, "")
		r.startRecoverySpan(id)
		r.coord.Pause()
	}
	r.pauseGate.Unlock()
	for _, id := range newlyFailed {
		select {
		case r.recoverCh <- id:
		case <-r.stop:
			return
		}
	}
}

// startRecoverySpan opens the tracer span for one detected failure. A
// leftover span for the same task (its replacement failed before being
// activated) is superseded.
func (r *Runtime) startRecoverySpan(id types.TaskID) {
	sp := r.tracer.StartSpan(RecoverySpanName, map[string]string{
		"task": id.String(),
		"mode": r.cfg.Mode.String(),
	})
	r.mu.Lock()
	old := r.recSpans[id]
	r.recSpans[id] = sp
	r.mu.Unlock()
	if old != nil {
		old.SetAttr("aborted", "superseded")
		old.End()
	}
}

// takeRecoverySpan claims the span for a failure being recovered.
func (r *Runtime) takeRecoverySpan(id types.TaskID) *obs.Span {
	r.mu.Lock()
	sp := r.recSpans[id]
	delete(r.recSpans, id)
	r.mu.Unlock()
	return sp
}

// abortRecoverySpans ends every unclaimed recovery span (global restart
// supersedes the local protocol).
func (r *Runtime) abortRecoverySpans(reason string) {
	r.mu.Lock()
	spans := make([]*obs.Span, 0, len(r.recSpans))
	for _, sp := range r.recSpans {
		spans = append(spans, sp)
	}
	r.recSpans = make(map[types.TaskID]*obs.Span)
	r.mu.Unlock()
	for _, sp := range spans {
		sp.SetAttr("aborted", reason)
		sp.End()
	}
}

// recoveryWorker serializes recovery handling.
func (r *Runtime) recoveryWorker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case id := <-r.recoverCh:
			if r.cfg.Mode == ModeGlobal {
				// Drain concurrently detected failures: one restart
				// covers them all.
				drained := true
				for drained {
					select {
					case <-r.recoverCh:
					default:
						drained = false
					}
				}
				r.globalRestart("failure")
			} else {
				r.restartGate.RLock()
				reason := r.localRecover(id)
				r.restartGate.RUnlock()
				if reason != "" {
					// Escalations release the gate first: globalRestart
					// takes its write side.
					r.globalRestart(reason)
				}
			}
		}
	}
}

// DebugString summarizes runtime state for diagnostics: per-task
// lifecycle, pending recoveries, and checkpoint progress.
func (r *Runtime) DebugString() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "latest completed checkpoint: %d\n", r.snaps.LatestCompleted())
	for _, id := range r.graph.AllTaskIDs() {
		t := r.tasks[id]
		state := "missing"
		if t != nil {
			switch taskState(t.state.Load()) {
			case stateCreated:
				state = "created"
			case stateRunning:
				state = "running"
			case stateRecovering:
				state = "recovering"
			case stateFinished:
				state = "finished"
			case stateCrashed:
				state = "crashed"
			}
		}
		flags := ""
		if r.failedSet[id] {
			flags += " failed"
		}
		if r.recovering[id] {
			flags += " guided-replay"
		}
		if r.finished[id] {
			flags += " eos"
		}
		fmt.Fprintf(&b, "  %v: %s%s\n", id, state, flags)
	}
	for up, reqs := range r.pendingReplay {
		fmt.Fprintf(&b, "  pending replay requests for %v: %d\n", up, len(reqs))
	}
	return b.String()
}
