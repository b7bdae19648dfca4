package job

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"clonos/internal/causal"
	"clonos/internal/checkpoint"
	"clonos/internal/faultinject"
	"clonos/internal/obs"
	"clonos/internal/operator"
	"clonos/internal/types"
)

// testAlterDeterminants, when set, rewrites the determinants the next
// replacement is about to replay, once — the divergence-injection hook
// the replay tests use to prove a log that re-execution cannot follow
// fails the task. Never set outside tests.
var testAlterDeterminants atomic.Pointer[func([]causal.Determinant)]

// ExtractDeterminants serves a recovering task's determinant-log request
// (§2.2 step 3) from this task's replicated store. Thread-safe.
func (t *Task) ExtractDeterminants(origin types.TaskID, fromEpoch types.EpochID) (causal.Extracted, bool) {
	if t.causal == nil {
		return causal.Extracted{}, false
	}
	return t.causal.Replicas().Extract(origin, fromEpoch)
}

// outChannelByID locates one of the task's output channels.
func (t *Task) outChannelByID(id types.ChannelID) *outChannel {
	for _, oc := range t.allOut {
		if oc.id == id {
			return oc
		}
	}
	return nil
}

// localRecover runs the Clonos recovery protocol (§2.2) for one failed
// task:
//
//  1. activate the standby (or build a fresh replacement) with the latest
//     completed checkpoint,
//  2. retrieve the predecessor's determinant log from surviving tasks
//     within DSD hops downstream,
//  3. reconfigure the network (fresh input endpoints),
//  4. configure sender-side deduplication from downstream endpoints,
//  5. request in-flight replay from every upstream, and
//  6. start causally guided re-execution.
//
// If determinants are needed but unavailable (an orphan per §5.3), it
// returns a non-empty reason and the caller escalates to a global
// rollback. The caller holds the runtime's restartGate read lock, so a
// concurrent global restart cannot interleave with the steps below.
func (r *Runtime) localRecover(failed types.TaskID) (escalate string) {
	r.mu.Lock()
	if r.stopped || r.restarting || !r.failedSet[failed] {
		// Stale queue entry: a global restart already replaced this task.
		r.mu.Unlock()
		if sp := r.takeRecoverySpan(failed); sp != nil {
			sp.SetAttr("aborted", "stale")
			sp.End()
		}
		return ""
	}
	vertex := r.graph.Vertices[failed.Vertex]
	old := r.tasks[failed]
	if err, _ := old.lastErr.Load().(error); errors.Is(err, errReplayDiverged) {
		// Re-execution left the predecessor's log: a replacement guided
		// by the same log would fail the same way. Roll back globally.
		r.mu.Unlock()
		if sp := r.takeRecoverySpan(failed); sp != nil {
			sp.SetAttr("aborted", "replay-diverged")
			sp.End()
		}
		return "replay-diverged"
	}
	// Step 1: standby activation (preloaded state in HA mode).
	var t *Task
	var snap *checkpoint.TaskSnapshot
	if r.cfg.Standby {
		t = r.standbys[failed]
		delete(r.standbys, failed)
		snap = r.standbySnap[failed]
	}
	if t == nil {
		t = newTask(r, vertex, failed.Subtask)
	}
	// The coordinator paused (and aborted any in-flight checkpoint)
	// before this recovery was enqueued, so LatestCompleted is stable
	// here. A checkpoint may have *completed* between the failure and
	// its detection — its truncations already ran — so recovery MUST
	// restore from the latest completed checkpoint, not from a standby
	// snapshot that predates it (whose epoch's logs may be gone).
	cp := r.snaps.LatestCompleted()
	if cp > 0 && (snap == nil || snap.Checkpoint != cp) {
		if fresh, ok := r.snaps.Get(cp, failed); ok {
			snap = fresh
		}
	}
	r.mu.Unlock()

	// The liveness loop opened a span for this failure; mark the
	// protocol's phase boundaries on it as the steps below complete.
	sp := r.takeRecoverySpan(failed)

	// The dead incarnation's out-channels are volatile state that nothing
	// reads again — replay is served from the replacement's in-flight log
	// — so close them here; each one owns a spiller thread that otherwise
	// outlives every recovery.
	for _, oc := range old.allOut {
		oc.close()
	}
	// Fault-injection windows: each crashPoint below may kill the
	// replacement between two named protocol phases. The protocol keeps
	// executing — the job manager does not die with a standby — and the
	// liveness sweep declares the dead replacement once it is installed,
	// driving a fresh recovery. The steps are harmless on a crashed task.
	t.crashPoint(faultinject.PointRecoveryPreActivate)
	err := t.buildErr // a replacement that was not built whole is as unusable as one that cannot restore
	if err == nil && snap != nil {
		err = t.restore(snap)
	}
	if err != nil {
		r.reportTaskError(failed, err)
		// The half-activated replacement is abandoned — the global
		// restart that this escalation triggers builds a fresh
		// incarnation — so reap it like the dead one above: its
		// out-channels each own a spiller thread that nothing else
		// will ever close.
		t.crash()
		for _, oc := range t.allOut {
			oc.close()
		}
		sp.SetAttr("aborted", "activation-failed")
		sp.End()
		return "activation-failed"
	}
	sp.Mark("standby-activated")
	t.crashPoint(faultinject.PointRecoveryActivated)

	// Step 4 (part of step 2's reconnection): sender-side dedup per
	// §5.2 — downstream survivors report how far they got. This runs
	// BEFORE determinant extraction, and each surviving endpoint is
	// first rebound to the replacement's connection generation: the
	// crashed predecessor may still have one in-flight send per channel
	// (possibly parked on the credit limit since before the crash), and
	// a stale buffer slipping in after the dedup floor is sampled — or
	// after its determinants were extracted — would leave the receiver
	// with a byte prefix the replacement cannot reproduce, silently
	// desynchronizing the element stream. Rebind fences the predecessor
	// off; sampling then extracting guarantees every deduplicated seq's
	// BUFFERSIZE determinant is covered by the extraction below.
	for _, oc := range t.allOut {
		ep := r.net.Endpoint(oc.id)
		if ep == nil || ep.Broken() {
			continue // downstream recovering too; it will request replay
		}
		lp := ep.Rebind(oc.gen)
		switch r.cfg.Guarantee {
		case ExactlyOnce:
			oc.setDedup(lp)
		default:
			// Divergent replay cannot reproduce identical buffers;
			// renumber past the receiver's view (duplicates possible —
			// at-least-once; or fresh data only — at-most-once).
			oc.forceNextSeq(lp + 1)
		}
		t.crashPoint(faultinject.PointRecoveryRebind)
	}
	t.crashPoint(faultinject.PointRecoveryDedupSampled)

	// Recovery starts at the break, so the dead incarnation's main thread
	// may still be mid-element, mid-snapshot, or in a send (parked on a
	// credit, or inside the receiver's accept hooks, which ingest its
	// determinants even though the fence rejects it). The fence released
	// a parked send; wait the thread out before reading what it may still
	// write — survivors' replicas, a sink's output, the snapshot store —
	// or writing there ourselves.
	<-old.done

	// Step 3: retrieve the determinant log from tasks within DSD hops.
	guided := false
	if t.causal != nil {
		merged := causal.NewStore()
		// §5.5: sink operators piggybacked their determinants onto the
		// external output system; retrieve them from there — a sink has
		// no downstream tasks to ask.
		for _, op := range vertex.Operators {
			rec, ok := op.(operator.ExternalRecoverable)
			if !ok {
				continue
			}
			for _, blob := range rec.RecoverDeterminants(failed.String()) {
				if err := merged.IngestDelta(blob); err != nil {
					r.reportTaskError(failed, err)
				}
			}
		}
		dsd := t.causal.DSD()
		for _, did := range r.graph.Downstream(failed, dsd) {
			r.mu.Lock()
			holder := r.tasks[did]
			holderFailed := r.failedSet[did]
			r.mu.Unlock()
			if holder == nil || holderFailed || holder.crashed.Load() {
				continue
			}
			ex, ok := holder.ExtractDeterminants(failed, t.epoch)
			if !ok {
				continue
			}
			merged.Ingest(failed, 1, ex.MainStart, ex.Main)
		}
		if ex, ok := merged.Extract(failed, t.epoch); ok {
			if f := testAlterDeterminants.Swap(nil); f != nil {
				(*f)(ex.Main)
			}
			t.setRecovery(ex)
			guided = true
		} else if r.dependantsExist(t, failed) {
			// Orphans: surviving (or concurrently recovering) tasks may
			// depend on this epoch's lost events but nobody retains the
			// determinants (DSD < D with consecutive failures, §5.3
			// case 2) — fall back to a full rollback.
			r.recordEvent(EventOrphanFallback, failed, "")
			sp.SetAttr("aborted", "orphan")
			sp.End()
			return "orphan"
		}
	}
	sp.Mark("determinants-retrieved")
	t.crashPoint(faultinject.PointRecoveryDeterminants)

	// Step 2: network reconfiguration — fresh endpoints replace broken
	// ones, created closed: stale direct sends are rejected until the
	// replay request opens each endpoint at the expected first seq.
	t.attachNetwork(false)
	sp.Mark("network-reconfigured")
	t.crashPoint(faultinject.PointRecoveryNetwork)

	r.mu.Lock()
	r.tasks[failed] = t
	delete(r.failedSet, failed)
	if guided {
		r.recovering[failed] = true
	}
	// Re-deploy a fresh standby for the next failure.
	if r.cfg.Standby {
		r.standbys[failed] = newTask(r, vertex, failed.Subtask)
	}
	pending := r.pendingReplay[failed]
	delete(r.pendingReplay, failed)
	r.mu.Unlock()

	r.recordEvent(EventStandbyActivated, failed, "")
	if sp != nil {
		t.recSpan.Store(sp) // before start: the main thread finishes it
	}
	t.crashPoint(faultinject.PointRecoveryPreStart)
	t.start()

	// Steps 4-5: request in-flight replay from upstreams (or plain
	// reconnection for at-most-once gap recovery).
	for _, chID := range t.inIDs {
		r.routeUpstream(chID, t.epoch)
	}
	t.crashPoint(faultinject.PointRecoveryServeReplay)
	// Serve replay requests that were waiting for this task.
	for _, req := range pending {
		if oc := t.outChannelByID(req.channel); oc != nil {
			r.serveReplay(oc, req.fromEpoch, req.afterSeq)
		}
	}
	// Downstream tasks that are themselves recovering issued (or will
	// issue) replay requests that may have reached this task's crashed
	// predecessor; re-serve them proactively — unless the predecessor
	// delivered part of the replay: that connection continues at the
	// dedup floor, and re-anchoring it at the epoch's first seq would
	// ask for buffers the floor suppresses (and wedge the channel).
	for _, oc := range t.allOut {
		did := types.TaskID{Vertex: r.graph.Edges[oc.id.Edge].To.ID, Subtask: oc.id.To}
		r.mu.Lock()
		needs := r.recovering[did] || r.failedSet[did]
		r.mu.Unlock()
		if ep := r.net.Endpoint(oc.id); ep != nil && !ep.Broken() && ep.LastPushed() > 0 {
			continue
		}
		if needs && r.cfg.Guarantee != AtMostOnce {
			r.serveReplay(oc, t.epoch, 0)
		}
	}
	if !guided {
		// Nothing to replay causally: the task is live immediately.
		r.onTaskLive(failed)
	}
	return ""
}

// routeUpstream delivers a replay (or reconnect) request for one input
// channel to the current owner of its upstream side, deferring it when
// that task is itself awaiting recovery.
func (r *Runtime) routeUpstream(chID types.ChannelID, fromEpoch types.EpochID) {
	up := types.TaskID{Vertex: r.graph.Edges[chID.Edge].From.ID, Subtask: chID.From}
	r.mu.Lock()
	upTask := r.tasks[up]
	upFailed := r.failedSet[up]
	if upTask != nil && upTask.crashed.Load() {
		// Crashed but not yet detected: defer until its recovery.
		upFailed = true
	}
	if upFailed || upTask == nil {
		r.pendingReplay[up] = append(r.pendingReplay[up], replayRequest{channel: chID, fromEpoch: fromEpoch})
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	oc := upTask.outChannelByID(chID)
	if oc == nil {
		return
	}
	if r.cfg.Guarantee == AtMostOnce || r.cfg.Mode != ModeClonos {
		// Gap recovery: no replay, just reconnect and accept fresh data.
		oc.resumeDirect(0)
		if ep := r.net.Endpoint(chID); ep != nil {
			ep.AcceptFrom(0)
		}
		oc.wakeReplay()
		return
	}
	r.serveReplay(oc, fromEpoch, 0)
}

// serveReplay arms an in-flight replay on an upstream channel and opens
// the receiving endpoint at the replay's first seq — in that order, so a
// stale direct send racing the request can never mis-anchor the fresh
// connection.
func (r *Runtime) serveReplay(oc *outChannel, fromEpoch types.EpochID, afterSeq uint64) {
	ep := r.net.Endpoint(oc.id)
	if ep != nil {
		ep.ExpectReplay()
	}
	start, err := oc.PrepareReplay(fromEpoch, afterSeq)
	if err != nil {
		// Unserviceable replay (e.g. the epoch was truncated): the only
		// consistent way forward is a full rollback.
		r.reportTaskError(oc.task.id, err)
		go r.globalRestart("unserviceable-replay")
		return
	}
	if ep != nil {
		ep.AcceptFrom(start)
	}
	// Wake a replay loop parked on a previously rejected push: the
	// endpoint is open now (wake AFTER AcceptFrom, so a retry provoked by
	// this signal observes the accepting endpoint).
	oc.wakeReplay()
}

// dependantsExist reports whether recovering the task divergently (no
// determinants) could orphan someone (§5.3): some surviving process
// depends — directly or through a chain of concurrently failed tasks —
// on this epoch's lost events. A surviving downstream endpoint that
// consumed buffers of the current epoch is a direct dependant; a failed
// downstream is checked transitively using its checkpointed per-channel
// epoch-start sequence numbers.
func (r *Runtime) dependantsExist(t *Task, failed types.TaskID) bool {
	return r.epochConsumed(failed, make(map[types.TaskID]bool))
}

// epochConsumed reports whether any surviving task received output of the
// current epoch from id, following chains of failed tasks.
func (r *Runtime) epochConsumed(id types.TaskID, visited map[types.TaskID]bool) bool {
	if visited[id] {
		return false
	}
	visited[id] = true
	v := r.graph.Vertices[id.Vertex]
	var snap *checkpoint.TaskSnapshot
	if cp := r.snaps.LatestCompleted(); cp > 0 {
		snap, _ = r.snaps.Get(cp, id)
	}
	for _, e := range v.OutEdges {
		for to := int32(0); to < int32(e.To.Parallelism); to++ {
			ch := channelID(e, id.Subtask, to)
			start := uint64(1)
			if snap != nil {
				if s, ok := snap.NextSeq[ch]; ok && s > 0 {
					start = s
				}
			}
			did := types.TaskID{Vertex: e.To.ID, Subtask: to}
			r.mu.Lock()
			dt := r.tasks[did]
			downGone := r.failedSet[did] || r.recovering[did] || (dt != nil && dt.crashed.Load())
			r.mu.Unlock()
			if downGone {
				// The direct consumer is gone too; anyone observing its
				// epoch output observed (transitively) ours.
				if r.epochConsumed(did, visited) {
					return true
				}
				continue
			}
			ep := r.net.Endpoint(ch)
			if ep != nil && !ep.Broken() && ep.LastPushed() >= start {
				return true
			}
		}
	}
	return false
}

// globalRestart is the baseline recovery (and Clonos' §5.3 fallback):
// tear down every task and restart the whole topology from the latest
// completed checkpoint. It holds the restartGate write lock for its
// duration, so it serializes against in-flight local recoveries (which
// hold the read side) — in particular the asynchronous escalation from
// an unserviceable replay cannot tear down a task that localRecover is
// concurrently installing.
func (r *Runtime) globalRestart(reason string) {
	r.restartGate.Lock()
	defer r.restartGate.Unlock()
	r.mu.Lock()
	if r.stopped || r.restarting {
		r.mu.Unlock()
		return
	}
	r.restarting = true
	oldTasks := make([]*Task, 0, len(r.tasks))
	for _, t := range r.tasks {
		oldTasks = append(oldTasks, t)
	}
	oldStandbys := make([]*Task, 0, len(r.standbys))
	for _, t := range r.standbys {
		oldStandbys = append(oldStandbys, t)
	}
	r.mu.Unlock()

	r.obs.Counter("clonos_global_restarts_total", "Full-topology rollback restarts.", obs.Labels{"reason": reason}).Inc()
	rsp := r.tracer.StartSpan("global-restart", map[string]string{"reason": reason})
	defer rsp.End()
	r.abortRecoverySpans("global-restart")

	r.recordEvent(EventGlobalRestart, types.TaskID{}, reason)
	r.coord.Pause()
	r.coord.Reset()
	for _, t := range oldTasks {
		t.shutdown()
	}
	for _, t := range oldStandbys {
		for _, oc := range t.allOut {
			oc.close()
		}
	}
	// Re-execution after a global rollback is not byte-guided (fresh
	// nondeterminism), so the predecessor streams stop being the audit
	// reference; detected violations stay counted.
	r.cfg.Audit.Reset()

	cp := r.snaps.LatestCompleted()
	r.mu.Lock()
	r.tasks = make(map[types.TaskID]*Task)
	r.standbys = make(map[types.TaskID]*Task)
	r.failedSet = make(map[types.TaskID]bool)
	r.recovering = make(map[types.TaskID]bool)
	r.pendingReplay = make(map[types.TaskID][]replayRequest)
	r.mu.Unlock()

	// The settle pause between tearing the old tasks down and deploying
	// the rebuilt topology: the simulated scheduler/deployment delay of a
	// full restart, in which lingering sends from the torn-down
	// incarnations drain.
	time.Sleep(r.cfg.HeartbeatTimeout / 2)

	var fresh []*Task
	r.mu.Lock()
	if r.stopped {
		// Stop found the topology torn down (possibly during the pause
		// above) and will deploy nothing; neither may we, or the rebuilt
		// tasks outlive the runtime.
		r.mu.Unlock()
		return
	}
	for _, v := range r.graph.Vertices {
		for s := int32(0); s < int32(v.Parallelism); s++ {
			t := newTask(r, v, s)
			r.tasks[t.id] = t
			fresh = append(fresh, t)
		}
	}
	for _, t := range fresh {
		t.attachNetwork(true)
	}
	if r.cfg.Mode == ModeClonos && r.cfg.Standby {
		for id := range r.tasks {
			r.standbys[id] = newTask(r, r.graph.Vertices[id.Vertex], id.Subtask)
		}
	}
	r.mu.Unlock()

	for _, t := range fresh {
		if cp > 0 {
			if snap, ok := r.snaps.Get(cp, t.id); ok {
				if err := t.restore(snap); err != nil {
					r.reportTaskError(t.id, fmt.Errorf("global restore: %w", err))
				}
			}
		}
		t.start()
		// A rebuilt task dying right after deployment: no declaration can
		// happen while restarting, so the liveness sweep after it must
		// notice and drive another full restart.
		t.crashPoint(faultinject.PointGlobalRebuilt)
	}
	// One step against declareCrashed: a rebuilt task that is already
	// dead is declared (and checkpointing paused) after this resume.
	r.pauseGate.Lock()
	r.mu.Lock()
	r.restarting = false
	r.mu.Unlock()
	r.coord.Resume()
	r.pauseGate.Unlock()
}
