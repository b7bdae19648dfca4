package job

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"clonos/internal/audit"
	"clonos/internal/buffer"
	"clonos/internal/causal"
	"clonos/internal/checkpoint"
	"clonos/internal/faultinject"
	"clonos/internal/inflight"
	"clonos/internal/netstack"
	"clonos/internal/obs"
	"clonos/internal/operator"
	"clonos/internal/services"
	"clonos/internal/statestore"
	"clonos/internal/timers"
	"clonos/internal/types"
)

// taskState tracks a task's lifecycle.
type taskState int32

const (
	stateCreated taskState = iota
	stateRunning
	stateRecovering
	stateFinished
	stateCrashed
)

// Task is one parallel instance of a vertex: the main-thread loop, which
// also fires its processing-time timers, input gate, output channels,
// state, and the causal subsystem.
//
// The snapcov analyzer verifies that every checked state field below
// round-trips through the pair named here (or is explicitly declared
// scratch with a reason).
//
//clonos:state mainthread snapshot=buildSnapshot restore=restore
type Task struct {
	id     types.TaskID
	vertex *Vertex
	env    *Runtime
	// buildErr is why newTask could not build the task whole (no spill
	// directory for an in-flight log). Such a task never runs: Start
	// returns the error, start() fails a task built later.
	buildErr error

	inIDs   []types.ChannelID
	inPorts []int
	gate    *netstack.Gate
	desers  []*netstack.Deserializer

	outEdges []*taskOutEdge
	allOut   []*outChannel
	logPool  *buffer.Pool

	store    *statestore.Store
	timerSvc *timers.Service //clonos:mainthread
	causal   *causal.Manager // nil unless Clonos exactly-once
	// audit is the job's armed auditor, nil unless Config.Audit is set
	// AND the guarantee is exactly-once (the stream invariants are only
	// sound when replay is byte-deterministic). Hook sites nil-check this
	// handle so the disarmed hot path costs one predictable branch.
	audit *audit.Auditor
	// markerFromSource flags input channels fed directly by a source
	// vertex, the only channels whose latency-marker stamps are monotone
	// (fan-in merges legitimately interleave stamps). Set only when audit
	// is armed.
	markerFromSource []bool
	svcs             *services.Services
	chn              *chain
	srcCtx           *opContext

	// mailbox carries the coordinator's checkpoint triggers to a source
	// task, whose main loop logs each as an RPC determinant.
	mailbox chan types.CheckpointID
	abort   chan struct{}
	crashed atomic.Bool
	state   atomic.Int32
	// done closes when the main thread has exited: nothing of this
	// incarnation produces output any more.
	done chan struct{}
	// park wakes an idle main loop at the age bound of its unflushed
	// output, or after the lost-wake-up safety net (see parkFor).
	park *time.Timer

	// Main-thread execution state (no locking: main loop only). The
	// line-annotated fields publish atomic shadows below for off-thread
	// readers; the mainthread analyzer enforces the split.
	epoch types.EpochID
	// offset restarts at 0 on restore: the durable source position lives
	// in the keyed state store and guided replay re-polls from the epoch
	// boundary, so the live counter is never persisted in the snapshot.
	//clonos:ephemeral restore resets to 0; durable source position lives in the keyed state store
	offset  uint64  //clonos:mainthread
	curWm   int64   //clonos:mainthread
	chanWms []int64 //clonos:mainthread
	// wmMin is the running minimum over chanWms, maintained incrementally
	// so each watermark element costs O(1) instead of a full channel scan
	// (rescans happen only when the minimum channel itself advances).
	wmMin    int64
	aligning bool
	//clonos:ephemeral alignment scratch; no alignment is in progress across a snapshot/restore boundary
	alignCp      types.CheckpointID //clonos:mainthread
	barriersSeen []bool
	barriersLeft int
	eosSeen      []bool
	eosLeft      int
	rebalanceCtr *statestore.KeyedState
	replay       *replayCursor
	// pendingBatch holds source elements polled but not yet emitted; a
	// mid-batch snapshot persists them as SourceBacklog so restore
	// re-emits them instead of skipping to the post-batch offsets.
	pendingBatch []types.Element //clonos:mainthread
	sourceDone   bool
	// sinceMarker counts source records since the last latency marker.
	// Reset to 0 at every epoch roll so the count-based marker cadence is
	// deterministic per epoch and guided replay re-emits markers at the
	// identical stream positions.
	//clonos:ephemeral reset to 0 at every epoch roll; marker cadence restarts at the restored epoch boundary
	sinceMarker int //clonos:mainthread
	recordsIn   atomic.Uint64
	recordsOut  atomic.Uint64
	// alignStart is when the pending alignment's first barrier arrived.
	// Wall-clock is safe here: the stopwatch only feeds stall detection
	// and metrics, never replayed state or encoded bytes.
	//clonos:ephemeral alignment stopwatch for stall detection and metrics; never snapshotted or replayed
	alignStart time.Time //clonos:mainthread
	// blockStart records when each input channel was blocked for the
	// pending alignment (zero = not blocked). Main thread only.
	blockStart []time.Time
	// Output cuts (see cutAtIdle). delivered[i] is whether input i handed
	// the main loop a buffer since the last cut; outSince is when the loop
	// first saw output waiting in a partial buffer since then (zero: none).
	//clonos:ephemeral cut bookkeeping; the cuts themselves are BUFFERSIZE determinants
	delivered []bool //clonos:mainthread
	//clonos:ephemeral wall-clock age of unflushed output; only decides when to cut, and every cut is logged
	outSince time.Time //clonos:mainthread

	// Unaligned-checkpoint capture state (main thread only). While
	// capturing, pendingSnap holds the already-built snapshot of
	// checkpoint captureCp, and capChans logs every pre-barrier message
	// still consumed on channels whose barrier has not arrived; when the
	// last pending channel's barrier (or EOS) is decoded, sealCapture
	// encodes the log into the snapshot and only then acks — so a
	// completed checkpoint always covers its logged in-flight input.
	capturing   bool
	captureCp   types.CheckpointID
	capChans    []capChannel
	capLeft     int
	pendingSnap *checkpoint.TaskSnapshot
	// restoredInFlight is the decoded in-flight section of a restored
	// unaligned snapshot; preloadInFlight injects it into the input path
	// at the top of run(), before any live or replayed input is consumed.
	restoredInFlight []statestore.InFlightChannel

	// Shadows of main-thread progress state, stored atomically so the
	// stall watchdog and callback gauges can read them off-thread.
	wmShadow      atomic.Int64
	chanWmShadow  []atomic.Int64
	offsetShadow  atomic.Uint64
	alignStartNs  atomic.Int64 // 0 = no alignment pending
	alignCpShadow atomic.Int64
	// replayPosShadow/replayTotalShadow publish guided-replay progress
	// (determinants consumed vs. recovered) for the progress gauges.
	replayPosShadow   atomic.Int64
	replayTotalShadow atomic.Int64

	lastErr atomic.Value
	// fullSnapshotNext forces the next snapshot to be full (first one of
	// an incarnation); later ones may be incremental (§6.4).
	fullSnapshotNext bool

	// metrics are the task's registry handles, shared across incarnations
	// of the same logical task (get-or-create by vertex/subtask labels).
	metrics *taskMetrics
	// recSpan is the recovery span this incarnation must finish (nil for
	// fresh tasks); the main thread marks replay-done/caught-up on it.
	recSpan atomic.Pointer[obs.Span]
}

// capChannel is the per-input capture state of one unaligned checkpoint:
// done flips when the channel's barrier arrives (nothing further belongs
// to the checkpoint), prefix is the deserializer's undecoded tail at
// snapshot time, and msgs are the pre-barrier messages consumed between
// the snapshot and the barrier.
type capChannel struct {
	done   bool
	prefix []byte
	msgs   []statestore.InFlightMessage
}

// taskOutEdge groups an edge's channels for partitioning.
type taskOutEdge struct {
	edge  *Edge
	chans []*outChannel
}

// replayCursor walks the recovered main-thread determinant log.
type replayCursor struct {
	dets []causal.Determinant
	pos  int
}

func (rc *replayCursor) hasNext() bool { return rc != nil && rc.pos < len(rc.dets) }
func (rc *replayCursor) peek() causal.Determinant {
	return rc.dets[rc.pos]
}

// window returns the determinants within n positions of the cursor, for
// diagnostics.
func (rc *replayCursor) window(n int) []causal.Determinant {
	lo := rc.pos - n
	if lo < 0 {
		lo = 0
	}
	hi := rc.pos + n
	if hi > len(rc.dets) {
		hi = len(rc.dets)
	}
	return rc.dets[lo:hi]
}

// newTask builds a task instance (running or standby) without touching
// the network; attachNetwork and start complete activation. Runs before
// the main thread exists, so it is single-threaded by construction.
//
//clonos:mainthread
func newTask(env *Runtime, vertex *Vertex, subtask int32) *Task {
	cfg := env.cfg
	t := &Task{
		id:               types.TaskID{Vertex: vertex.ID, Subtask: subtask},
		vertex:           vertex,
		env:              env,
		mailbox:          make(chan types.CheckpointID, mailboxSize),
		abort:            make(chan struct{}),
		done:             make(chan struct{}),
		store:            statestore.NewStore(),
		epoch:            1,
		curWm:            math.MinInt64,
		fullSnapshotNext: true,
	}
	t.rebalanceCtr = t.store.Keyed("__rebalance")
	t.timerSvc = timers.NewService(nil)

	logging := cfg.Mode == ModeClonos && cfg.Guarantee != AtMostOnce
	if logging {
		t.logPool = buffer.NewPool(cfg.LogPoolBuffers, cfg.BufferSize)
	}
	if cfg.Mode == ModeClonos && cfg.Guarantee == ExactlyOnce {
		t.causal = causal.NewManager(t.id, cfg.effectiveDSD(env.graph))
	}

	t.metrics = newTaskMetrics(env.obs, vertex.Name, subtask)
	if t.logPool != nil {
		t.logPool.Instrument(poolWaitCounters(env.obs, vertex.Name, subtask, "inflight-log"))
		t.logPool.InstrumentStall(poolStallHistogram(env.obs, vertex.Name, subtask, "inflight-log"))
	}
	if t.causal != nil {
		t.causal.Instrument(causalMetrics(env.obs, vertex.Name, subtask))
	}
	if len(vertex.OutEdges) == 0 {
		t.metrics.latency = latencyHistogram(env.obs, vertex.Name, subtask)
	}

	var logger services.Logger
	if t.causal != nil {
		logger = t.causal
	} else {
		logger = noopLogger{}
	}
	svcCfg := services.Config{
		TimestampGranularityMs: timestampGranularityMs,
		World:                  cfg.World,
	}
	if cfg.ServiceSeed != 0 {
		// Derive a per-task deterministic seed stream: mixing the vertex
		// and subtask into the job seed gives every task (and each of its
		// incarnations) the same distinct stream on every run.
		svcCfg.SeedSource = services.SeededSource(cfg.ServiceSeed ^
			(int64(vertex.ID)<<32 | int64(subtask) + 1))
	}
	t.svcs = services.New(svcCfg, logger, t, t.armRefresh)

	outWaits, outWaitNs := poolWaitCounters(env.obs, vertex.Name, subtask, "output")
	outStall := poolStallHistogram(env.obs, vertex.Name, subtask, "output")
	for _, e := range vertex.OutEdges {
		oe := &taskOutEdge{edge: e}
		for to := int32(0); to < int32(e.To.Parallelism); to++ {
			chID := channelID(e, subtask, to)
			outPool := buffer.NewPool(cfg.ChannelBuffers, cfg.BufferSize)
			outPool.Instrument(outWaits, outWaitNs)
			outPool.InstrumentStall(outStall)
			var log *inflight.Log
			if logging {
				var err error
				if log, err = inflight.NewLog(chID, t.logPool, cfg.InFlight); err != nil {
					t.buildErr = err
				} else {
					log.Instrument(t.metrics.iflight)
					log.StartEpoch(1)
				}
			}
			oc := newOutChannel(t, chID, outPool, log)
			oe.chans = append(oe.chans, oc)
			t.allOut = append(t.allOut, oc)
		}
		t.outEdges = append(t.outEdges, oe)
	}

	t.inIDs, t.inPorts = inChannels(vertex, subtask)
	if cfg.Audit != nil && cfg.Guarantee == ExactlyOnce {
		t.audit = cfg.Audit
		t.markerFromSource = make([]bool, len(t.inIDs))
		for i, id := range t.inIDs {
			t.markerFromSource[i] = env.graph.Edges[id.Edge].From.Source != nil
		}
	}
	t.chanWms = make([]int64, len(t.inIDs))
	for i := range t.chanWms {
		t.chanWms[i] = math.MinInt64
	}
	t.recomputeWmMin()
	t.eosSeen = make([]bool, len(t.inIDs))
	t.eosLeft = len(t.inIDs)
	t.barriersSeen = make([]bool, len(t.inIDs))
	t.blockStart = make([]time.Time, len(t.inIDs))
	t.delivered = make([]bool, len(t.inIDs))
	t.wmShadow.Store(math.MinInt64)
	t.chanWmShadow = make([]atomic.Int64, len(t.inIDs))
	for i := range t.chanWmShadow {
		t.chanWmShadow[i].Store(math.MinInt64)
	}

	t.chn = newChain(t)
	t.srcCtx = t.chn.sourceContext()
	if t.causal != nil {
		t.causal.StartEpochMain(1)
	}
	return t
}

// armRefresh registers the Timestamp service's cache-refresh timer. The
// service calls it from operator code, on the main thread.
//
//clonos:mainthread
func (t *Task) armRefresh(when int64) {
	t.timerSvc.RegisterProc(timers.Timer{HandlerID: tsRefreshHandler, When: when})
}

// attachNetwork creates the input gate, replacing any previous (broken)
// endpoints — the network-reconfiguration step of recovery (§6.2).
// accepting=false creates the endpoints closed until the recovery
// protocol's replay requests open them.
func (t *Task) attachNetwork(accepting bool) {
	if len(t.inIDs) > 0 {
		t.gate = netstack.NewGate(t.env.net, t.inIDs, t.env.cfg.EndpointCredit, accepting)
		t.gate.Instrument(t.metrics.ep)
		t.desers = nil
		for i, id := range t.inIDs {
			e := t.env.graph.Edges[id.Edge]
			t.desers = append(t.desers, netstack.NewDeserializer(e.CodecOrDefault()))
			if t.causal != nil {
				// Ingest piggybacked determinant deltas on arrival (the
				// causal log manager sits at the network layer, Fig. 3):
				// a recovering upstream's determinant request then covers
				// every buffer this task has received, including those
				// still queued ahead of the main thread.
				t.gate.Endpoint(i).AddOnAccept(func(m *netstack.Message) {
					if err := t.causal.Ingest(m.Delta); err != nil {
						t.fail(err)
					}
				})
			}
			if t.audit != nil {
				// Channel-stream auditor tap: record/verify every accepted
				// buffer's seq, epoch, and payload hash at the same point
				// recovery's LastPushed dedup contract is defined.
				chID := id
				t.gate.Endpoint(i).AddOnAccept(func(m *netstack.Message) {
					t.audit.OnDeliver(t.id, chID, m.Seq, m.Epoch, m.Data)
				})
			}
		}
		if t.crashed.Load() {
			// The task died before (or while) reconfiguring. A dead task
			// must never leave open endpoints behind: crash() already broke
			// the previous gate, so break this one too, or surviving
			// upstreams would park replayed sends on queues nobody drains —
			// and stay parked even after the next recovery replaces the
			// endpoints again.
			for i := 0; i < t.gate.NumChannels(); i++ {
				t.gate.Endpoint(i).Break()
			}
		}
	}
}

// restore loads a checkpoint into the task (standby activation or global
// rollback restart). Runs before the incarnation's main thread starts.
//
//clonos:mainthread
func (t *Task) restore(snap *checkpoint.TaskSnapshot) error {
	if err := t.store.Restore(snap.State); err != nil {
		return err
	}
	timerSvc := timers.NewService(nil)
	if err := timerSvc.Restore(snap.Timers); err != nil {
		return err
	}
	t.timerSvc = timerSvc
	t.rebalanceCtr = t.store.Keyed("__rebalance")
	t.epoch = snap.Checkpoint + 1
	t.offset = 0
	t.fullSnapshotNext = true
	// Seed watermark merging exactly as the predecessor left it at the
	// epoch boundary — see the TaskSnapshot field docs for why guided
	// re-execution diverges without this.
	t.curWm = snap.CurWm
	t.wmShadow.Store(snap.CurWm)
	t.offsetShadow.Store(0)
	for i, id := range t.inIDs {
		if wm, ok := snap.ChanWms[id]; ok {
			t.chanWms[i] = wm
			t.chanWmShadow[i].Store(wm)
		}
	}
	t.recomputeWmMin()
	if t.causal != nil {
		t.causal.SeedForRecovery(snap.MainLogBase)
		t.causal.StartEpochMain(t.epoch)
	}
	for _, oc := range t.allOut {
		next := snap.NextSeq[oc.id]
		if next == 0 {
			next = 1
		}
		oc.restore(next, t.epoch)
	}
	if len(snap.InFlight) > 0 {
		chans, err := statestore.DecodeInFlight(snap.InFlight)
		if err != nil {
			return err
		}
		t.restoredInFlight = chans
	}
	if len(snap.SourceBacklog) > 0 {
		// The predecessor snapshotted mid-batch: its source offsets
		// already cover these elements, so re-emit them before polling
		// again (see TaskSnapshot.SourceBacklog).
		t.pendingBatch = append([]types.Element(nil), snap.SourceBacklog...)
	}
	if a := t.audit; a != nil && snap.Fingerprint != 0 {
		// State attestation: the restored state must reproduce the digest
		// recorded over the predecessor's live state at snapshot time. The
		// timer bytes are re-encoded from the restored service (the set is
		// sorted, so the encoding round-trips deterministically).
		fp, err := audit.Fingerprint(t.store, t.timerSvc.Snapshot(), t.chanWms, t.curWm)
		if err != nil {
			return err
		}
		if !a.CheckFingerprint(t.id, snap.Checkpoint, snap.Fingerprint, fp) {
			return fmt.Errorf("job: %v: restored state fingerprint %016x does not match checkpoint %d's recorded %016x",
				t.id, fp, snap.Checkpoint, snap.Fingerprint)
		}
		t.env.recordEvent(EventAuditFingerprint, t.id, fmt.Sprintf("cp=%d fp=%016x verified", snap.Checkpoint, fp))
	}
	return nil
}

// setRecovery installs the recovered determinants as the cursor of
// causally guided replay.
func (t *Task) setRecovery(ex causal.Extracted) {
	if len(ex.Main) > 0 {
		t.replay = &replayCursor{dets: ex.Main}
	}
	t.replayTotalShadow.Store(int64(len(ex.Main)))
	t.replayPosShadow.Store(0)
}

// start launches the task's main thread.
func (t *Task) start() {
	if t.buildErr != nil {
		t.fail(t.buildErr)
	}
	if t.crashed.Load() {
		// The task died before launch (a fault injected mid-recovery):
		// nothing may run, but done must still close so shutdown does
		// not hang waiting for a main thread that never existed.
		close(t.done)
		return
	}
	t.registerGauges()
	t.state.Store(int32(stateRunning))
	go t.run()
}

// Replaying implements services.Replayer.
func (t *Task) Replaying() bool { return t.replay.hasNext() }

// Next implements services.Replayer: services consume TS/RNG/SERVICE
// determinants inline during guided replay (on the main thread).
//
//clonos:mainthread
func (t *Task) Next(kind causal.Kind) (causal.Determinant, error) {
	if !t.replay.hasNext() {
		return causal.Determinant{}, fmt.Errorf("task %v: determinant log exhausted", t.id)
	}
	d := t.replay.peek()
	if d.Kind != kind {
		return causal.Determinant{}, fmt.Errorf("task %v: replay wants %v, log has %v (pos %d/%d, offset %d, context %v)",
			t.id, kind, d.Kind, t.replay.pos, len(t.replay.dets), t.offset, t.replay.window(3))
	}
	t.replay.pos++
	return d, nil
}

// TriggerCheckpoint delivers the coordinator's RPC (sources only).
func (t *Task) TriggerCheckpoint(cp types.CheckpointID) {
	select {
	case t.mailbox <- cp:
	case <-t.abort:
	}
}

// NotifyCheckpointComplete truncates logs covered by a completed
// checkpoint (§4.3); safe off the main thread.
func (t *Task) NotifyCheckpointComplete(cp types.CheckpointID) {
	if t.causal != nil {
		t.causal.Truncate(cp)
	}
	for _, oc := range t.allOut {
		if oc.iflog != nil {
			oc.iflog.Truncate(cp)
		}
	}
	for _, op := range t.vertex.Operators {
		if aware, ok := op.(operator.CheckpointAware); ok {
			aware.OnCheckpointComplete(uint64(cp))
		}
	}
}

// crash simulates a task failure: the main loop aborts without flushing,
// pools close to unblock stuck threads, input endpoints break so senders
// observe a dead connection. All volatile state is lost with the object.
// Every death passes through here; the last step wakes the liveness
// loop, which declares it on its own goroutine (callers may hold r.mu).
func (t *Task) crash() {
	if !t.crashed.CompareAndSwap(false, true) {
		return
	}
	if sp := t.recSpan.Swap(nil); sp != nil {
		sp.SetAttr("aborted", "crashed")
		sp.End()
	}
	t.state.Store(int32(stateCrashed))
	close(t.abort)
	if t.logPool != nil {
		t.logPool.Close()
	}
	for _, oc := range t.allOut {
		oc.outPool.Close()
	}
	if t.gate != nil {
		for i := 0; i < t.gate.NumChannels(); i++ {
			t.gate.Endpoint(i).Break()
		}
	}
	// Release deserializer-held payload references: a crashed receiver
	// must not strand surviving senders' buffers (their log pools would
	// otherwise starve waiting for recycles that never come).
	for _, d := range t.desers {
		d.Close()
	}
	select {
	case t.env.crashWake <- struct{}{}:
	default: // a wake-up is pending already; one pass declares every death
	}
}

// shutdown stops a task cleanly (job teardown), reusing the crash path.
func (t *Task) shutdown() {
	t.crash()
	<-t.done
	for _, oc := range t.allOut {
		oc.close()
	}
}

// fail reports an internal error and crashes the task; the liveness loop
// then drives recovery exactly as for an injected failure.
func (t *Task) fail(err error) {
	if t.crashed.Load() {
		return // a dead task's threads unwind over closed pools: consequences of the crash, not errors
	}
	t.lastErr.Store(err)
	t.env.reportTaskError(t.id, err)
	t.crash()
}

// crashPoint fires a named fault-injection crash point: a no-op unless an
// injector is armed and one of its kills matches (point, task). On a
// match the task crashes right here and the caller must unwind without
// executing the step the point guards.
func (t *Task) crashPoint(point string) bool {
	fi := t.env.cfg.Faults
	if fi == nil || !fi.Hit(point, t.id.String()) {
		return false
	}
	t.env.recordEvent(EventFaultInjected, t.id, point)
	t.crash()
	return true
}

// idlePark is how long an idle main loop parks with no output waiting: a
// lost-wake-up safety net, not a polling interval — every input arrival
// wakes the loop on its own, and a pending timer caps the park at its
// deadline.
const idlePark = 100 * time.Millisecond

// cutAtIdle runs when the main loop has drained every input queue and is
// about to park; it returns how long the loop may park. Output waiting in
// partial buffers is cut — dispatched early, a nondeterministic
// BUFFERSIZE determinant — if every input that can deliver has delivered
// since the last cut: one round of upstream buffers is in and has been
// processed (DESIGN.md "Buffer cuts"). Until then the loop parks instead,
// so a task with n inputs sends one buffer per round rather than one per
// input buffer (which would multiply the buffer count by the fan-in at
// every hop) — but never past the age bound, which covers an input gone
// silent.
//
//clonos:mainthread
func (t *Task) cutAtIdle() time.Duration {
	if !t.noteOutput() {
		return idlePark
	}
	wait := t.env.cfg.BufferTimeout - time.Since(t.outSince)
	if wait > 0 && !t.allDelivered() {
		return wait
	}
	t.cutOutputs()
	return idlePark
}

// cutIfStale cuts output that has waited Config.BufferTimeout in partial
// buffers: the bound for a task that never goes idle. It is checked after
// every input element (a source after every polled batch), so neither a
// trickle beside a busy stream nor the output of a slow operator waits
// for the end of a long input buffer. Each cut also carries the task's
// determinants downstream (DESIGN.md "Buffer cuts"); checking every
// eighth element instead brought the pinned double-failure schedule's
// audit reports back (14 of 200 runs against 0 of 240). During guided
// replay the log, not the clock, says where to cut (replayCuts).
//
//clonos:mainthread
func (t *Task) cutIfStale() {
	if t.replay.hasNext() {
		t.replayCuts()
	} else if t.noteOutput() && time.Since(t.outSince) >= t.env.cfg.BufferTimeout {
		t.cutOutputs()
	}
}

// errReplayDiverged names a recovering task whose re-execution dispatched
// a buffer its predecessor's log does not record.
var errReplayDiverged = errors.New("guided replay diverged from the determinant log")

// replayCuts takes the predecessor's early cuts at an element boundary of
// guided replay. A BUFFERSIZE at the head of the log whose channel holds
// exactly that many pending bytes is one: any later write to the channel
// could only grow the buffer past the logged size, and no other dispatch
// may come first. Live cuts wait until the log is exhausted.
//
//clonos:mainthread
func (t *Task) replayCuts() {
	for t.replay.hasNext() && !t.crashed.Load() {
		d := t.replay.peek()
		if d.Kind != causal.KindBufferSize {
			return
		}
		oc := t.outChannelByID(d.Output)
		if oc == nil || int64(oc.writer.PendingBytes()) != d.Value {
			return
		}
		if err := oc.writer.Flush(); err != nil {
			t.fail(err)
			return
		}
	}
}

// replayDispatch consumes, during guided replay, the BUFFERSIZE that a
// buffer dispatched on channel id must find at the head of the log: every
// buffer is logged where the main thread dispatched it, so re-execution
// reaches the same entry at the same point, or it has diverged.
//
//clonos:mainthread
func (t *Task) replayDispatch(id types.ChannelID, size int) error {
	if !t.replay.hasNext() {
		return nil
	}
	want := causal.Determinant{Kind: causal.KindBufferSize, Output: id, Value: int64(size)}
	if d := t.replay.peek(); !d.Equal(want) {
		return fmt.Errorf("task %v: %w: dispatched %v, log has %v (pos %d/%d, offset %d, context %v)",
			t.id, errReplayDiverged, want, d, t.replay.pos, len(t.replay.dets), t.offset, t.replay.window(3))
	}
	t.replay.pos++
	return nil
}

// noteOutput reports whether output may be waiting in a partial buffer,
// stamping outSince the first time the loop sees some after a cut.
//
//clonos:mainthread
func (t *Task) noteOutput() bool {
	if !t.outSince.IsZero() {
		return true
	}
	for _, oc := range t.allOut {
		if oc.writer.PendingBytes() > 0 {
			t.outSince = time.Now()
			return true
		}
	}
	return false
}

// allDelivered reports whether every input that can deliver — neither
// finished nor gated for a barrier alignment — has delivered since the
// last cut. A source has no inputs: its idle is the end of its data.
//
//clonos:mainthread
func (t *Task) allDelivered() bool {
	for i, ok := range t.delivered {
		if !ok && !t.eosSeen[i] && !(t.aligning && t.barriersSeen[i]) {
			return false
		}
	}
	return true
}

// cutOutputs dispatches every output channel's partial buffer and starts
// the next round. dispatch logs each cut as a BUFFERSIZE determinant in
// the task's log, where guided replay finds it again (replayCuts).
//
//clonos:mainthread
func (t *Task) cutOutputs() {
	for _, oc := range t.allOut {
		if err := oc.writer.Flush(); err != nil {
			t.fail(err)
			return
		}
	}
	clear(t.delivered)
	t.outSince = time.Time{}
}

// parkFor arms the task's park timer for d and returns its channel. The
// loops call unpark after every park, whichever case woke them.
func (t *Task) parkFor(d time.Duration) <-chan time.Time {
	if t.park == nil {
		t.park = time.NewTimer(d)
	} else {
		t.park.Reset(d)
	}
	return t.park.C
}

// unpark stops the park timer and drains a firing that raced another
// wake-up, so the next parkFor starts from a clean channel.
func (t *Task) unpark() {
	if !t.park.Stop() {
		select {
		case <-t.park.C:
		default:
		}
	}
}

// run is the main thread.
func (t *Task) run() {
	defer close(t.done)
	if err := t.chn.open(); err != nil {
		t.fail(err)
		return
	}
	if t.vertex.Source != nil {
		if err := t.vertex.Source.Open(t.srcCtx); err != nil {
			t.fail(err)
			return
		}
	}
	t.preloadInFlight()
	if t.crashed.Load() {
		return
	}
	if t.replay.hasNext() {
		t.state.Store(int32(stateRecovering))
		if t.crashPoint(faultinject.PointReplayStart) {
			return
		}
		t.runReplay()
		if t.crashed.Load() {
			return
		}
		t.replayPosShadow.Store(int64(t.replay.pos))
		t.replay = nil
		if t.crashPoint(faultinject.PointReplayDone) {
			return
		}
		t.recSpan.Load().Mark("replay-done")
		t.state.Store(int32(stateRunning))
		t.env.onTaskLive(t.id)
	} else if t.env.cfg.Mode == ModeClonos {
		t.env.onTaskLive(t.id)
	}
	if t.vertex.Source != nil {
		// A recovered source has no input backlog: replay done means
		// caught up.
		t.finishRecoverySpan()
	}
	if t.vertex.Source != nil {
		t.runSourceLive()
	} else {
		t.runLive()
	}
}

// finishRecoverySpan ends this incarnation's recovery span, if any: the
// task has processed its input backlog (or reached end-of-stream) and is
// fully caught up. Cheap when no recovery is pending (one atomic load).
func (t *Task) finishRecoverySpan() {
	if t.recSpan.Load() == nil {
		return
	}
	sp := t.recSpan.Swap(nil)
	if sp == nil {
		return
	}
	sp.Mark("caught-up")
	rec := sp.End()
	t.env.recordEvent(EventCaughtUp, t.id, "")
	t.env.observeRecovery(rec)
}

// loopTick arms the task/loop crash point at the top of both task loops.
// Factored out so PointTaskLoop has a single non-test reference (the
// crashpoint analyzer enforces exactly one) and #occurrence schedules
// count iterations uniformly. Reports true when the task was crashed.
func (t *Task) loopTick() bool {
	return t.crashPoint(faultinject.PointTaskLoop)
}

// completeAlignment runs once the final barrier of an alignment is in
// (or EOS stood in for it): observe the alignment latency, notify the
// runtime, arm the align/complete crash point, then snapshot and reopen
// the gate. Shared by handleBarrier and eosCompletesAlignment so
// PointAlignComplete names exactly one protocol location.
//
//clonos:mainthread
func (t *Task) completeAlignment(cp types.CheckpointID) {
	t.metrics.align.ObserveSince(t.alignStart)
	t.env.onAlignmentComplete(cp, t.id)
	if t.crashPoint(faultinject.PointAlignComplete) {
		return
	}
	t.snapshot(cp)
	t.releaseAlignment()
}

// runLive is the normal-operation loop of a non-source task.
//
//clonos:mainthread
func (t *Task) runLive() {
	for !t.crashed.Load() {
		if t.loopTick() {
			return
		}
		if t.alignmentLeft() <= 0 {
			// Stuck behind a slow barrier: convert. The gated channels'
			// post-barrier input (epoch cp+1) flows again at once.
			t.beginUnalignedCapture(t.alignCp)
			if t.crashed.Load() {
				return
			}
		}
		if t.fireDueTimers() {
			return
		}
		if idx, m, ok := t.gate.TryNext(); ok {
			t.delivered[idx] = true
			t.handleBuffer(idx, m)
			if t.eosLeft == 0 {
				t.finishTask()
				return
			}
			continue
		}
		// Input queues drained: a recovering task is now caught up, unless
		// an upstream still owes it replayed input.
		if t.recSpan.Load() != nil && !t.gate.Replaying() {
			t.finishRecoverySpan()
		}
		wait := min(t.cutAtIdle(), t.alignmentLeft())
		if when, ok := t.timerSvc.NextProc(); ok {
			wait = min(wait, time.Until(time.UnixMilli(when)))
		}
		park := t.parkFor(wait)
		select {
		case <-t.gate.Ready():
		case <-t.abort:
			return
		case <-park:
		}
		t.unpark()
	}
}

// runReplay re-executes the recovered epoch guided by the determinant log
// (§5.2): ORDER determinants drive buffer consumption, TIMER/RPC
// determinants re-fire asynchronous events at identical offsets, services
// replay TS/RNG/SERVICE results inline, and each dispatch consumes its
// BUFFERSIZE (replayDispatch, replayCuts). It runs until the log is
// exhausted: every buffer the predecessor dispatched is in it, a source's
// past its last other determinant too.
//
//clonos:mainthread
func (t *Task) runReplay() {
	for t.replay.hasNext() && !t.crashed.Load() {
		t.replayPosShadow.Store(int64(t.replay.pos))
		if t.crashPoint(faultinject.PointReplayStep) {
			return
		}
		if t.replayCuts(); !t.replay.hasNext() || t.crashed.Load() {
			return
		}
		d := t.replay.peek()
		switch d.Kind {
		case causal.KindEpoch:
			// Structural marker: re-appended by restore/snapshot, not
			// by the cursor.
			t.replay.pos++
		case causal.KindOrder:
			t.replay.pos++
			m, err := t.gate.NextFrom(int(d.Channel), t.abort)
			if err != nil {
				return
			}
			t.handleBuffer(int(d.Channel), m)
			if t.eosLeft == 0 {
				t.finishTask()
				return
			}
		case causal.KindTimer:
			if t.vertex.Source != nil && t.offset < d.Offset {
				// The timer fired after more source elements: emit them
				// first so the firing lands at the identical offset.
				if !t.emitNextSourceElement(true) {
					return
				}
				continue
			}
			t.replay.pos++
			if d.Offset != t.offset {
				t.fail(fmt.Errorf("task %v: timer determinant at offset %d replayed at %d", t.id, d.Offset, t.offset))
				return
			}
			tm := timers.Timer{HandlerID: d.Handler, Key: d.Key, When: d.When}
			t.timerSvc.TakeProc(tm)
			// Re-log what is replayed, as every other kind does: this
			// log must continue the predecessor's at the same indices,
			// or a second failure in the epoch finds replicas shifted.
			t.causal.AppendTimer(d.Handler, d.Key, d.When, d.Offset)
			t.chn.onProcTimer(tm)
		case causal.KindRPC:
			if t.vertex.Source == nil {
				t.fail(fmt.Errorf("task %v: RPC determinant on non-source", t.id))
				return
			}
			if t.offset < d.Offset {
				if !t.emitNextSourceElement(true) {
					return
				}
				continue
			}
			t.replay.pos++
			if t.causal != nil {
				t.causal.AppendRPC(d.Epoch, d.Offset)
			}
			t.snapshot(d.Epoch)
		case causal.KindTimestamp:
			if t.vertex.Source == nil {
				t.fail(fmt.Errorf("task %v: bare timestamp determinant on non-source at replay head", t.id))
				return
			}
			// A latency-marker stamp: re-emitting source elements reaches
			// the count-based marker cadence, which consumes this
			// determinant inline via Next(KindTimestamp).
			if !t.emitNextSourceElement(true) {
				return
			}
		case causal.KindBufferSize:
			// Not an early cut here: a source's records log nothing, so it
			// re-emits them until the buffer fills or the cut is due.
			if t.vertex.Source == nil {
				t.fail(fmt.Errorf("task %v: %w: %v at replay head between input buffers", t.id, errReplayDiverged, d))
				return
			}
			if !t.emitNextSourceElement(true) {
				return
			}
		default:
			t.fail(fmt.Errorf("task %v: unexpected determinant %v at replay head", t.id, d))
			return
		}
	}
}

// handleBuffer processes one whole input buffer (the ORDER unit).
//
//clonos:mainthread
func (t *Task) handleBuffer(idx int, m *netstack.Message) {
	t.metrics.buffersIn.Inc()
	defer t.metrics.process.ObserveSince(time.Now())
	if t.causal != nil {
		// m's determinant delta is in the replica store already: ingested
		// when the endpoint accepted m, or by preloadInFlight.
		t.causal.AppendOrder(int32(idx))
	}
	t.offset++
	t.offsetShadow.Store(t.offset)
	if t.capturing && t.captureMessage(idx, m) {
		m.Release()
		return
	}
	d := t.desers[idx]
	if m.StreamReset {
		// A divergent sender incarnation: its byte stream does not
		// continue the predecessor's, so drop any partial record.
		d.Reset()
	}
	// The deserializer takes ownership of m (and the payload-buffer
	// reference it carries) — no copy; the message is released once its
	// bytes are fully consumed.
	d.Push(m)
	for !t.crashed.Load() {
		e, ok, err := d.Next()
		if err != nil {
			t.fail(err)
			return
		}
		if !ok {
			return
		}
		t.handleElement(idx, e)
		t.cutIfStale()
	}
}

//clonos:mainthread
func (t *Task) handleElement(idx int, e types.Element) {
	switch e.Kind {
	case types.KindRecord:
		t.recordsIn.Add(1)
		t.metrics.recordsIn.Inc()
		t.chn.processInput(t.inPorts[idx], e)
	case types.KindWatermark:
		if e.Timestamp > t.chanWms[idx] {
			t.raiseChanWm(idx, e.Timestamp)
			t.maybeAdvanceWatermark()
		} else if t.audit != nil && e.Timestamp < t.chanWms[idx] {
			// The silent-ignore above is correct for equal re-announcements;
			// a strictly lower watermark means the channel's event-time
			// regressed — under exactly-once replay that never happens.
			t.audit.OnWatermark(t.id, t.inIDs[idx], t.chanWms[idx], e.Timestamp)
		}
	case types.KindBarrier:
		t.handleBarrier(idx, e.Checkpoint)
	case types.KindLatencyMarker:
		if t.audit != nil && t.markerFromSource[idx] {
			t.audit.OnMarker(t.id, t.inIDs[idx], e.Timestamp)
		}
		t.handleLatencyMarker(e)
	case types.KindEndOfStream:
		if !t.eosSeen[idx] {
			t.eosSeen[idx] = true
			t.eosLeft--
			t.eosCompletesAlignment(idx)
			if t.crashed.Load() {
				return
			}
			t.raiseChanWm(idx, math.MaxInt64)
			if t.eosLeft > 0 {
				t.maybeAdvanceWatermark()
			} else {
				t.advanceWatermark(math.MaxInt64)
			}
		}
	}
}

// eosCompletesAlignment treats end-of-stream as a channel's final
// barrier. Alignment start copies eosSeen into barriersSeen for channels
// that already finished, but an EOS can also land MID-alignment: the
// upstream drained its input and exited between the coordinator's
// trigger and the barrier reaching this channel, so the barrier the
// alignment is waiting for will never come. Without this the task waits
// forever with its aligned channels gated — a wedge the fault sweep hits
// when a crash schedule delays a checkpoint into the end of a bounded
// input (pinned in TestCrashScheduleRegressions).
//
//clonos:mainthread
func (t *Task) eosCompletesAlignment(idx int) {
	if t.capturing {
		// End-of-stream also stands in for a pending capture channel's
		// barrier: the finished upstream will never send one, and the EOS
		// message itself was captured, so a restored task re-finishes the
		// channel identically.
		t.completeCaptureChannel(idx)
		return
	}
	if !t.aligning || t.barriersSeen[idx] {
		return
	}
	t.barriersSeen[idx] = true
	t.barriersLeft--
	if t.barriersLeft > 0 {
		return
	}
	t.completeAlignment(t.alignCp)
}

// handleLatencyMarker forwards a source-stamped latency probe downstream
// like a watermark; at sinks (no output channels) it observes arrival
// minus stamp as the live end-to-end latency. Markers are not records:
// they bypass the chain and the record counters.
//
//clonos:mainthread
func (t *Task) handleLatencyMarker(e types.Element) {
	if len(t.allOut) == 0 {
		lat := float64(time.Now().UnixMilli()-e.Timestamp) / 1e3
		if lat < 0 {
			lat = 0
		}
		t.metrics.latency.Observe(lat)
		return
	}
	t.broadcastElement(e)
}

// maybeEmitLatencyMarker emits a latency probe every latencyMarkerEvery
// source records. The cadence is count-based — deterministic under guided
// replay — and the wall-clock stamp is logged as a TIMESTAMP determinant,
// so a recovered incarnation re-emits byte-identical markers and the
// output byte stream (with its BUFFERSIZE determinants) stays aligned.
//
//clonos:mainthread
func (t *Task) maybeEmitLatencyMarker() {
	if t.crashed.Load() {
		return
	}
	t.sinceMarker++
	if t.sinceMarker < latencyMarkerEvery {
		return
	}
	t.sinceMarker = 0
	var ms int64
	if t.causal != nil && t.Replaying() {
		d, err := t.Next(causal.KindTimestamp)
		if err != nil {
			t.fail(err)
			return
		}
		ms = d.Value
	} else {
		ms = time.Now().UnixMilli()
	}
	if t.causal != nil {
		t.causal.AppendTimestamp(ms) // replayed stamps are re-logged too
	}
	t.broadcastElement(types.LatencyMarker(ms))
}

// raiseChanWm records a channel watermark advance, keeping the running
// minimum current. Only when the raised channel sat at the minimum can
// the minimum itself change, so the full rescan is amortized away.
//
//clonos:mainthread
func (t *Task) raiseChanWm(idx int, wm int64) {
	old := t.chanWms[idx]
	t.chanWms[idx] = wm
	t.chanWmShadow[idx].Store(wm)
	if old <= t.wmMin {
		t.recomputeWmMin()
	}
}

// recomputeWmMin rescans chanWms; MaxInt64 when the task has no inputs.
//
//clonos:mainthread
func (t *Task) recomputeWmMin() {
	min := int64(math.MaxInt64)
	for _, wm := range t.chanWms {
		if wm < min {
			min = wm
		}
	}
	t.wmMin = min
}

//clonos:mainthread
func (t *Task) maybeAdvanceWatermark() {
	if t.wmMin > t.curWm && t.wmMin != math.MaxInt64 {
		t.advanceWatermark(t.wmMin)
	}
}

// advanceWatermark fires due event timers deterministically, notifies the
// chain, and forwards the watermark downstream.
//
//clonos:mainthread
func (t *Task) advanceWatermark(wm int64) {
	t.curWm = wm
	t.wmShadow.Store(wm)
	for {
		due := t.timerSvc.AdvanceWatermark(wm)
		if len(due) == 0 {
			break
		}
		for _, tm := range due {
			t.chn.onEventTimer(tm)
			if t.crashed.Load() {
				return
			}
		}
	}
	t.chn.onWatermark(wm)
	t.broadcastElement(types.Watermark(wm))
}

// handleBarrier performs checkpoint alignment: each barrier blocks its
// channel, and when barriers arrived on all channels the task snapshots
// and unblocks. An alignment older than Config.AlignmentBudget converts
// instead (see beginUnalignedCapture): the task snapshots at once and the
// remaining channels keep flowing, their pre-barrier input logged into
// the snapshot until their barriers catch up. A budget of 0 converts at
// the first barrier, so no channel is ever blocked.
//
//clonos:mainthread
func (t *Task) handleBarrier(idx int, cp types.CheckpointID) {
	// Capture bookkeeping must run BEFORE the stale-barrier guard: an
	// unaligned snapshot already rolled the epoch to captureCp+1, so the
	// pending channels' barriers for captureCp arrive "stale" by design —
	// they are exactly the capture-completion signal.
	if t.capturing {
		switch {
		case cp == t.captureCp:
			t.completeCaptureChannel(idx)
			return
		case cp > t.captureCp:
			// A newer checkpoint's barrier outran a pending channel's
			// barrier for the captured one: the coordinator aborted the
			// captured checkpoint, so drop the half-built capture and
			// align on the newer barrier below.
			t.abandonCapture(cp)
		default:
			return // stale barrier from a replayed stream, already covered
		}
	}
	if cp < t.epoch {
		return // stale barrier from a replayed stream, already covered
	}
	t.env.onBarrier(cp, t.id)
	if t.crashPoint(faultinject.PointAlignStart) {
		return
	}
	if len(t.inIDs) == 1 {
		t.snapshot(cp)
		return
	}
	// A barrier of a newer checkpoint supersedes a pending alignment:
	// the older checkpoint was aborted (its barriers may be lost with a
	// failed task), so release the blocked channels and align on the
	// newer one. The abandoned alignment must NOT feed the align
	// histogram — it never completed — but the blocked-channel time was
	// genuine backpressure and is recorded by releaseAlignment.
	if t.aligning && cp > t.alignCp {
		t.env.recordEvent(EventAlignSuperseded, t.id,
			fmt.Sprintf("cp %d superseded by cp %d", t.alignCp, cp))
		t.releaseAlignment()
	}
	if !t.aligning {
		t.aligning = true
		t.alignCp = cp
		t.alignStart = time.Now()
		t.alignStartNs.Store(t.alignStart.UnixNano())
		t.alignCpShadow.Store(int64(cp))
		for i := range t.barriersSeen {
			t.barriersSeen[i] = t.eosSeen[i] // finished channels need no barrier
		}
		t.barriersLeft = 0
		for _, seen := range t.barriersSeen {
			if !seen {
				t.barriersLeft++
			}
		}
	}
	if cp != t.alignCp || t.barriersSeen[idx] {
		return
	}
	t.barriersSeen[idx] = true
	t.barriersLeft--
	if t.barriersLeft > 0 {
		if t.alignmentLeft() <= 0 {
			t.beginUnalignedCapture(cp)
			return
		}
		t.gate.Block(idx)
		t.blockStart[idx] = time.Now()
		t.crashPoint(faultinject.PointAlignBlocked)
		return
	}
	t.completeAlignment(cp)
}

// alignmentLeft is how long the pending alignment may still gate its
// channels before it converts to an unaligned checkpoint; idlePark when
// no alignment is pending. The loop parks no longer than this, so an
// idle task converts on time.
//
//clonos:mainthread
func (t *Task) alignmentLeft() time.Duration {
	if !t.aligning {
		return idlePark
	}
	return t.env.cfg.AlignmentBudget - time.Since(t.alignStart)
}

// releaseAlignment ends a pending alignment (completed or superseded):
// it folds each channel's genuine blocked time into the blocked-channel
// histogram, clears the watchdog shadows, and reopens the gate.
func (t *Task) releaseAlignment() {
	for i := range t.blockStart {
		if !t.blockStart[i].IsZero() {
			t.metrics.alignBlocked.ObserveSince(t.blockStart[i])
			t.blockStart[i] = time.Time{}
		}
	}
	t.aligning = false
	t.alignStartNs.Store(0)
	t.alignCpShadow.Store(0)
	t.gate.UnblockAll()
}

// beginUnalignedCapture switches the pending alignment of checkpoint cp
// into unaligned capture: snapshot NOW, then log — instead of gate — the
// pre-barrier input still in flight on the not-yet-barriered channels.
// Entered from handleBarrier or runLive, whichever first finds the
// alignment past its budget (alignmentLeft). The snapshot broadcasts the
// barrier and rolls the epoch exactly as an aligned one does, and each
// channel's capture ends precisely when that sender's own barrier is
// decoded — so the captured log ends at the sender's epoch boundary and
// recovery's replay protocol (resume at the first seq of epoch cp+1)
// needs no changes.
//
//clonos:mainthread
func (t *Task) beginUnalignedCapture(cp types.CheckpointID) {
	// The alignment ends here, not at barrier-complete: observe its
	// (near-zero, or budget-long on conversion) duration before capture.
	t.metrics.align.ObserveSince(t.alignStart)
	t.env.onUnalignedSnapshot(cp, t.id)
	if t.crashPoint(faultinject.PointUnalignedSnapshot) {
		return
	}
	t.capChans = make([]capChannel, len(t.inIDs))
	t.capLeft = 0
	for i := range t.capChans {
		if t.barriersSeen[i] {
			// Barriered (or finished) channels have nothing in flight for
			// cp; anything queued behind their barrier is epoch cp+1.
			t.capChans[i].done = true
			continue
		}
		t.capLeft++
		t.capChans[i].prefix = t.desers[i].PendingTail()
	}
	snap := t.buildSnapshot(cp)
	if snap == nil {
		t.capChans = nil
		return
	}
	t.capturing = true
	t.captureCp = cp
	t.pendingSnap = snap
	t.releaseAlignment()
	if t.capLeft == 0 {
		t.sealCapture()
	}
}

// captureMessage logs one consumed message into the pending unaligned
// capture. It copies the payload and determinant delta (the originals are
// released once the deserializer drains them) and reports whether a crash
// point consumed the task.
//
//clonos:mainthread
func (t *Task) captureMessage(idx int, m *netstack.Message) bool {
	c := &t.capChans[idx]
	if c.done || m.Epoch > t.captureCp {
		return false
	}
	if t.crashPoint(faultinject.PointUnalignedCapture) {
		return true
	}
	c.msgs = append(c.msgs, statestore.InFlightMessage{
		Seq:   m.Seq,
		Epoch: m.Epoch,
		Data:  append([]byte(nil), m.Data...),
		Delta: append([]byte(nil), m.Delta...),
	})
	return false
}

// completeCaptureChannel ends one channel's capture: its barrier (or EOS)
// for the captured checkpoint was decoded, so everything the checkpoint
// covers on this channel is now logged. Seals once no channel is pending.
//
//clonos:mainthread
func (t *Task) completeCaptureChannel(idx int) {
	c := &t.capChans[idx]
	if c.done {
		return
	}
	c.done = true
	t.capLeft--
	if t.capLeft == 0 {
		t.sealCapture()
	}
}

// sealCapture finishes an unaligned checkpoint: encode the captured
// in-flight log into the held snapshot and only then hand it to the
// runtime. The deferred ack is the correctness hinge — checkpoint
// completion (which truncates in-flight and causal logs up to cp)
// implies every pre-barrier message was consumed AND captured, so
// nothing the truncation drops is lost. A crash before sealing simply
// restores from the previous checkpoint, whose logs are still intact.
//
//clonos:mainthread
func (t *Task) sealCapture() {
	if t.crashPoint(faultinject.PointUnalignedSeal) {
		return
	}
	snap := t.pendingSnap
	t.capturing = false
	t.pendingSnap = nil
	chans := make([]statestore.InFlightChannel, 0, len(t.capChans))
	for i := range t.capChans {
		c := &t.capChans[i]
		if len(c.msgs) == 0 && len(c.prefix) == 0 {
			continue
		}
		chans = append(chans, statestore.InFlightChannel{
			Channel: t.inIDs[i],
			Prefix:  c.prefix,
			Msgs:    c.msgs,
		})
	}
	t.capChans = nil
	if len(chans) > 0 {
		snap.InFlight = statestore.EncodeInFlight(chans)
		t.metrics.inflightLogged.Add(uint64(len(snap.InFlight)))
	}
	t.env.onSnapshot(snap)
}

// abandonCapture drops an unaligned capture whose checkpoint was
// superseded by a newer barrier: the coordinator aborted it, and a
// half-captured snapshot must never be acked (restoring it would lose
// the uncaptured remainder of the logged channels). The snapshot side
// effects (epoch roll, barrier broadcast) already happened and stand, as
// with any aligned snapshot whose checkpoint later aborts.
//
//clonos:mainthread
func (t *Task) abandonCapture(newCp types.CheckpointID) {
	t.env.recordEvent(EventAlignSuperseded, t.id,
		fmt.Sprintf("unaligned capture of cp %d superseded by cp %d", t.captureCp, newCp))
	t.capturing = false
	t.pendingSnap = nil
	t.capChans = nil
	t.capLeft = 0
}

// preloadInFlight injects a restored unaligned snapshot's logged input
// ahead of live traffic: each captured channel's deserializer is seeded
// with the partial-element prefix and its endpoint is preloaded with the
// captured messages. Preloaded messages bypass the accept path — the audit
// plane's delivery records for them were truncated with the checkpoint,
// so re-running OnDeliver would raise false seq-continuity violations —
// which makes this the one other place that ingests determinant deltas:
// every received buffer's delta enters the replica store exactly once,
// before anything can depend on the buffer, either here or in the
// endpoint's accept hook (attachNetwork).
// Runs at the top of run(), where endpoints and deserializers exist in
// both recovery orders (standby activation and global restart) and
// before any determinant-guided or live consumption.
//
//clonos:mainthread
func (t *Task) preloadInFlight() {
	if len(t.restoredInFlight) == 0 {
		return
	}
	chans := t.restoredInFlight
	t.restoredInFlight = nil
	for _, ch := range chans {
		idx := -1
		for i, id := range t.inIDs {
			if id == ch.Channel {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.fail(fmt.Errorf("task %v: restored in-flight log names unknown channel %v", t.id, ch.Channel))
			return
		}
		if t.audit != nil {
			// The preload rewinds this channel to the epoch boundary
			// without passing the endpoint accept path; tell the auditor
			// so its marker floor re-seeds (see Auditor.OnPreload).
			t.audit.OnPreload(t.id, ch.Channel)
		}
		if len(ch.Prefix) > 0 {
			t.desers[idx].Feed(ch.Prefix)
		}
		if len(ch.Msgs) == 0 {
			continue
		}
		if t.causal != nil {
			for _, im := range ch.Msgs {
				if err := t.causal.Ingest(im.Delta); err != nil {
					t.fail(err)
					return
				}
			}
		}
		msgs := make([]*netstack.Message, 0, len(ch.Msgs))
		for _, im := range ch.Msgs {
			m := netstack.NewMessage()
			m.Channel = ch.Channel
			m.Seq = im.Seq
			m.Epoch = im.Epoch
			m.Data = im.Data
			m.Delta = im.Delta
			m.Replayed = true
			msgs = append(msgs, m)
		}
		t.gate.Endpoint(idx).Preload(msgs)
	}
}

// snapshot takes the task's checkpoint: forward the barrier, roll epochs
// on every log, persist state, and ack the coordinator.
//
//clonos:mainthread
func (t *Task) snapshot(cp types.CheckpointID) {
	if snap := t.buildSnapshot(cp); snap != nil {
		t.env.onSnapshot(snap)
	}
}

// buildSnapshot performs the synchronous part of a checkpoint — forward
// the barrier, roll epochs on every log, serialize state — and returns
// the snapshot WITHOUT handing it to the runtime (nil when a crash point
// fired or serialization failed). Aligned checkpoints ack immediately
// via snapshot; unaligned ones hold the snapshot open while the
// in-flight capture completes (see beginUnalignedCapture).
//
//clonos:mainthread
func (t *Task) buildSnapshot(cp types.CheckpointID) *checkpoint.TaskSnapshot {
	if t.crashPoint(faultinject.PointSnapshotPreBarrier) {
		return nil
	}
	syncStart := time.Now()
	// Forward the barrier as the last element of epoch cp on every
	// output channel — the cut that ends the channel's epoch — then roll
	// the channel epochs.
	t.broadcastElement(types.Barrier(cp))
	for _, oc := range t.allOut {
		if err := oc.writer.Flush(); err != nil {
			t.fail(err)
			return nil
		}
		oc.startEpoch(cp + 1)
	}
	clear(t.delivered)
	t.outSince = time.Time{}
	var mainBase uint64
	if t.causal != nil {
		mainBase = t.causal.StartEpochMainAt(cp + 1)
	}
	if t.crashPoint(faultinject.PointSnapshotPreState) {
		return nil
	}
	var stateBytes []byte
	var err error
	stateIsDelta := false
	if t.env.cfg.IncrementalCheckpoints && !t.fullSnapshotNext {
		stateBytes, err = t.store.DeltaSnapshot()
		stateIsDelta = true
	} else {
		stateBytes, err = t.store.Snapshot()
		t.store.ResetDirty()
		t.fullSnapshotNext = false
	}
	if err != nil {
		t.fail(err)
		return nil
	}
	timerBytes := t.timerSvc.Snapshot()
	var fp uint64
	if t.audit != nil {
		// The fingerprint walks the LIVE store, not stateBytes: delta
		// snapshots carry only dirty entries, and the snapshot store
		// mutates State on Put while rebuilding the full image.
		fp, err = audit.Fingerprint(t.store, timerBytes, t.chanWms, t.curWm)
		if err != nil {
			t.fail(err)
			return nil
		}
	}
	snap := &checkpoint.TaskSnapshot{
		Checkpoint:   cp,
		Task:         t.id,
		State:        stateBytes,
		StateIsDelta: stateIsDelta,
		Timers:       timerBytes,
		NextSeq:      make(map[types.ChannelID]uint64, len(t.allOut)),
		MainLogBase:  mainBase,
		ChanWms:      make(map[types.ChannelID]int64, len(t.inIDs)),
		CurWm:        t.curWm,
		Fingerprint:  fp,
	}
	if len(t.pendingBatch) > 0 {
		// A source snapshotting mid-batch: Poll already advanced the
		// offsets over these elements but they have not entered the
		// stream yet — they belong to epoch cp+1 while the offsets place
		// them in epoch cp. Persist them so restore re-emits them
		// instead of skipping straight to the post-batch offsets.
		snap.SourceBacklog = append([]types.Element(nil), t.pendingBatch...)
	}
	for i, id := range t.inIDs {
		snap.ChanWms[id] = t.chanWms[i]
	}
	for _, oc := range t.allOut {
		oc.mu.Lock()
		snap.NextSeq[oc.id] = oc.nextSeq
		oc.mu.Unlock()
	}
	t.epoch = cp + 1
	t.offset = 0
	t.offsetShadow.Store(0)
	t.sinceMarker = 0
	t.svcs.StartEpoch()
	t.metrics.sync.ObserveSince(syncStart)
	t.metrics.snapshots.Inc()
	t.metrics.snapshotBytes.Add(uint64(len(stateBytes) + len(timerBytes)))
	if t.crashPoint(faultinject.PointSnapshotPrePersist) {
		return nil
	}
	return snap
}

// fireDueTimers fires every processing-time timer whose deadline has
// passed, each logged first as a TIMER determinant at the current input
// offset. The loops call it only where guided replay can re-fire a TIMER:
// between input buffers, and a source between elements. Reports true when
// the task crashed.
//
//clonos:mainthread
func (t *Task) fireDueTimers() bool {
	for _, tm := range t.timerSvc.Due() {
		if t.crashPoint(faultinject.PointTimerFiring) {
			return true
		}
		if t.causal != nil {
			t.causal.AppendTimer(tm.HandlerID, tm.Key, tm.When, t.offset)
		}
		if t.chn.onProcTimer(tm); t.crashed.Load() {
			return true
		}
	}
	return false
}

// handleRPC serves the coordinator's checkpoint trigger on a source's
// main thread, logged as an RPC determinant at the current offset.
//
//clonos:mainthread
func (t *Task) handleRPC(cp types.CheckpointID) {
	if t.crashPoint(faultinject.PointCheckpointRPC) {
		return
	}
	if t.causal != nil {
		t.causal.AppendRPC(cp, t.offset)
	}
	t.snapshot(cp)
}

// runSourceLive drives a source vertex: poll the source, emit elements
// one at a time (so RPC/TIMER offsets are exact), and fire due timers and
// serve checkpoint triggers between elements.
//
//clonos:mainthread
func (t *Task) runSourceLive() {
	for !t.crashed.Load() {
		if t.loopTick() || t.fireDueTimers() {
			return
		}
		select {
		case cp := <-t.mailbox:
			t.handleRPC(cp)
			continue
		default:
		}
		if len(t.pendingBatch) == 0 {
			t.cutIfStale() // the next element starts a new batch
		}
		if t.emitNextSourceElement(false) {
			continue
		}
		if t.crashed.Load() {
			return
		}
		if t.sourceDone && len(t.pendingBatch) == 0 {
			t.finishTask()
			return
		}
		// The source has no data right now: it is the end of what it had,
		// so cut. It then polls again a millisecond later.
		t.cutAtIdle()
		park := t.parkFor(time.Millisecond)
		select {
		case cp := <-t.mailbox:
			t.handleRPC(cp)
		case <-t.abort:
			return
		case <-park:
		}
		t.unpark()
	}
}

// emitNextSourceElement emits one element from the source, polling a new
// batch when needed. It reports false when no element is available right
// now. During replay (wait=true) it spins briefly for data that must
// already exist in the replayable source.
//
//clonos:mainthread
func (t *Task) emitNextSourceElement(wait bool) bool {
	for len(t.pendingBatch) == 0 {
		if t.sourceDone {
			return false
		}
		batch, done, err := t.vertex.Source.Poll(t.srcCtx)
		if err != nil {
			t.fail(err)
			return false
		}
		t.pendingBatch = batch
		t.sourceDone = done
		if len(batch) == 0 {
			if !wait {
				return false
			}
			select {
			case <-t.abort:
				return false
			case <-time.After(time.Millisecond):
			}
		}
	}
	if t.crashPoint(faultinject.PointSourceEmit) {
		return false
	}
	e := t.pendingBatch[0]
	t.pendingBatch = t.pendingBatch[1:]
	t.offset++
	t.offsetShadow.Store(t.offset)
	switch e.Kind {
	case types.KindRecord:
		t.recordsIn.Add(1)
		t.metrics.recordsIn.Inc()
		t.chn.processInput(0, e)
		t.maybeEmitLatencyMarker()
	case types.KindWatermark:
		if e.Timestamp > t.curWm {
			t.advanceWatermark(e.Timestamp)
		}
	}
	return true
}

// finishTask completes a finite job: flush windows, close the chain, and
// propagate end-of-stream.
//
//clonos:mainthread
func (t *Task) finishTask() {
	// Fire pending operator processing-time timers so bounded inputs
	// flush their last processing-time windows. The pending set and the
	// drain order are deterministic at this point, so a recovered task
	// reaching EOS drains identically. Service-internal timers
	// (timestamp refresh) are left alone.
	for round := 0; round < 64; round++ {
		due := t.timerSvc.DrainProc(func(tm timers.Timer) bool { return tm.HandlerID >= 0 })
		if len(due) == 0 {
			break
		}
		for _, tm := range due {
			if t.causal != nil {
				t.causal.AppendTimer(tm.HandlerID, tm.Key, tm.When, t.offset)
			}
			t.chn.onProcTimer(tm)
			if t.crashed.Load() {
				return
			}
		}
	}
	if err := t.chn.close(); err != nil {
		t.env.reportTaskError(t.id, err)
	}
	if t.vertex.Source != nil {
		_ = t.vertex.Source.Close(t.srcCtx)
	}
	t.broadcastElement(types.EndOfStream())
	for _, oc := range t.allOut {
		if err := oc.writer.Flush(); err != nil {
			t.fail(err)
			break
		}
	}
	t.finishRecoverySpan()
	t.state.Store(int32(stateFinished))
	t.env.onTaskFinished(t.id)
}

// broadcastElement writes an element to every output channel.
func (t *Task) broadcastElement(e types.Element) {
	for _, oc := range t.allOut {
		if err := oc.writer.WriteElement(e); err != nil {
			t.fail(err)
			return
		}
	}
}

// emitOutput routes one record across every output edge.
func (t *Task) emitOutput(key uint64, ts int64, v any) {
	t.recordsOut.Add(1)
	t.metrics.recordsOut.Inc()
	for _, oe := range t.outEdges {
		var targets []*outChannel
		outKey := key
		switch oe.edge.Partitioner {
		case PartitionForward:
			targets = oe.chans[t.id.Subtask : t.id.Subtask+1]
		case PartitionHash:
			if oe.edge.KeyOf != nil {
				outKey = oe.edge.KeyOf(v)
			}
			targets = oe.chans[outKey%uint64(len(oe.chans)) : outKey%uint64(len(oe.chans))+1]
		case PartitionRebalance:
			ctr, _ := t.rebalanceCtr.Get(uint64(oe.edge.ID)).(uint64)
			t.rebalanceCtr.Put(uint64(oe.edge.ID), ctr+1)
			targets = oe.chans[ctr%uint64(len(oe.chans)) : ctr%uint64(len(oe.chans))+1]
		case PartitionBroadcast:
			targets = oe.chans
		}
		for _, oc := range targets {
			if err := oc.writer.WriteElement(types.Record(outKey, ts, v)); err != nil {
				t.fail(err)
				return
			}
		}
	}
}

// noopLogger satisfies services.Logger when causal logging is disabled.
type noopLogger struct{}

func (noopLogger) AppendTimestamp(int64)        {}
func (noopLogger) AppendRNG(int64)              {}
func (noopLogger) AppendService(uint16, []byte) {}
