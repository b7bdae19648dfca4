package job

import (
	"fmt"
	"math"
	"time"

	"clonos/internal/types"
)

// The stall watchdog turns "the job went quiet" — the failure class
// behind both byte-stream divergences root-caused in PR 1 — into an
// explicit signal. It periodically compares every running task's
// watermark/offset shadows and any pending barrier alignment against a
// deadline (Config.StallDeadline), and watches checkpoint completion
// globally. Each stall fires one tracer event when first detected
// (re-armed by progress) and is counted in the clonos_stalled_tasks
// gauge while it persists. The scan runs on the liveness loop's goroutine
// (Runtime.liveness) but only observes and reports: a task is declared
// failed when it crashes, never because it is slow, blocked or quiet.

// stallState is the watchdog's last observation of one task.
type stallState struct {
	wm       int64
	offset   uint64
	since    time.Time
	reported bool
	// alignCp is the newest checkpoint whose stuck alignment was already
	// reported for this task (one event per stuck epoch).
	alignCp int64
}

// watchdogState carries watchdog memory across scans.
type watchdogState struct {
	tasks    map[types.TaskID]*stallState
	lastCp   types.CheckpointID
	lastCpAt time.Time
	cpDone   bool
}

func newWatchdogState(now time.Time) *watchdogState {
	return &watchdogState{tasks: make(map[types.TaskID]*stallState), lastCpAt: now}
}

// scanStalls performs one watchdog pass at time now and returns how many
// tasks are currently stalled (stuck input progress or stuck alignment).
// Split out from the liveness loop so tests can drive it directly.
func (r *Runtime) scanStalls(ws *watchdogState, now time.Time) int {
	deadline := r.cfg.StallDeadline
	r.mu.Lock()
	type watched struct {
		id   types.TaskID
		task *Task
	}
	live := make([]watched, 0, len(r.tasks))
	activeTasks := 0
	quiesced := r.restarting
	for id, t := range r.tasks {
		if !r.finished[id] {
			activeTasks++
		}
		if r.finished[id] || r.failedSet[id] {
			continue
		}
		switch taskState(t.state.Load()) {
		case stateRunning, stateRecovering:
			live = append(live, watched{id, t})
		}
	}
	if len(r.failedSet) > 0 || len(r.recovering) > 0 {
		// Recovery in flight: checkpointing is legitimately paused.
		quiesced = true
	}
	r.mu.Unlock()

	stalled := 0
	seen := make(map[types.TaskID]bool, len(live))
	for _, w := range live {
		seen[w.id] = true
		wm := w.task.wmShadow.Load()
		off := w.task.offsetShadow.Load()
		st := ws.tasks[w.id]
		if st == nil || st.wm != wm || st.offset != off {
			alignCp := int64(0)
			if st != nil {
				alignCp = st.alignCp
			}
			ws.tasks[w.id] = &stallState{wm: wm, offset: off, since: now, alignCp: alignCp}
			st = ws.tasks[w.id]
		}
		taskStuck := wm != math.MaxInt64 && now.Sub(st.since) > deadline
		if taskStuck {
			stalled++
			if !st.reported {
				st.reported = true
				r.recordEvent(EventTaskStall, w.id,
					fmt.Sprintf("no progress for %s (wm=%d offset=%d)", now.Sub(st.since).Round(time.Millisecond), wm, off))
			}
		}
		if ns := w.task.alignStartNs.Load(); ns != 0 {
			age := now.Sub(time.Unix(0, ns))
			cp := w.task.alignCpShadow.Load()
			if age > deadline {
				if !taskStuck {
					stalled++
				}
				if st.alignCp < cp {
					st.alignCp = cp
					r.recordEvent(EventAlignmentStall, w.id,
						fmt.Sprintf("alignment for cp %d pending for %s", cp, age.Round(time.Millisecond)))
				}
			}
		}
	}
	for id := range ws.tasks {
		if !seen[id] {
			delete(ws.tasks, id)
		}
	}

	// Epoch progress: checkpoint completion must keep advancing while the
	// job is active and no recovery explains the pause. The deadline adds
	// two checkpoint intervals so a freshly started or just-resumed job
	// has time to produce its next epoch.
	cp := r.snaps.LatestCompleted()
	if cp != ws.lastCp {
		ws.lastCp = cp
		ws.lastCpAt = now
		ws.cpDone = false
	}
	cpDeadline := deadline + 2*r.cfg.CheckpointInterval
	if !quiesced && activeTasks > 0 && !ws.cpDone && now.Sub(ws.lastCpAt) > cpDeadline {
		ws.cpDone = true
		r.recordEvent(EventEpochStall, types.TaskID{},
			fmt.Sprintf("no checkpoint completed since cp %d (%s)", cp, now.Sub(ws.lastCpAt).Round(time.Millisecond)))
	}
	return stalled
}
