package job

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"clonos/internal/audit"
	"clonos/internal/faultinject"
	"clonos/internal/kafkasim"
	"clonos/internal/obs"
)

// scheduleFlag replays one crash schedule by hand:
//
//	go test ./internal/job -run TestCrashSchedule -args -schedule='kill=task/loop@v2[0]#60;kill=recovery/rebind@v2[0]'
//
// The schedule string is exactly what a failing sweep subtest logs, so a
// sweep failure shrinks to a one-line reproducer.
var scheduleFlag = flag.String("schedule", "", "crash schedule to replay in TestCrashSchedule")

// faultUnaligned reports whether the whole sweep is forced through
// unaligned checkpointing (CLONOS_FAULT_UNALIGNED=1, the CI fault-sweep
// job's second leg). Schedules whose points require gated alignment are
// skipped in that leg — see alignedOnlySchedule.
func faultUnaligned() bool { return os.Getenv("CLONOS_FAULT_UNALIGNED") == "1" }

// alignedOnlySchedule reports whether sched names a crash point that is
// structurally unreachable when unaligned checkpointing is armed: with no
// channel ever gated, the blocked-alignment window does not exist, and
// multi-input alignments convert to capture before their last barrier.
func alignedOnlySchedule(sched faultinject.Schedule) bool {
	for _, k := range sched.Kills {
		if k.Point == faultinject.PointAlignBlocked || k.Point == faultinject.PointAlignComplete {
			return true
		}
	}
	return false
}

// crashVerdict is the outcome of one schedule-driven run.
type crashVerdict struct {
	finished bool
	wedged   bool
	fired    []faultinject.Fired
	unfired  []faultinject.Kill
}

// waitOutcome waits for the job to finish, detecting wedges through the
// stall watchdog rather than a bare wall-clock deadline: the run is
// declared wedged when the most recent runtime event is a watchdog stall
// and nothing else has been recorded for several stall deadlines — i.e.
// the watchdog saw progress die and it never came back. The hard backstop
// only catches wedges the watchdog structurally cannot see (e.g. every
// watched task finished while recovery hangs).
func waitOutcome(r *Runtime, backstop time.Duration) (finished, wedged bool) {
	grace := 3 * r.cfg.StallDeadline
	hard := time.NewTimer(backstop)
	defer hard.Stop()
	for {
		ch := r.progressCh()
		evs := r.Events()
		if len(evs) > 0 {
			last := evs[len(evs)-1]
			switch last.Kind {
			case EventTaskStall, EventAlignmentStall, EventEpochStall:
				if time.Since(last.Time) > grace {
					// A run that finished while its last stall aged out is
					// finished, not wedged.
					select {
					case <-r.allDone:
						return true, false
					default:
						return false, true
					}
				}
			}
		}
		poll := time.NewTimer(r.cfg.StallDeadline)
		select {
		case <-r.allDone:
			poll.Stop()
			return true, false
		case <-hard.C:
			poll.Stop()
			return false, true
		case <-ch: // new event or checkpoint: re-evaluate
		case <-poll.C: // no events: re-age the last stall
		}
		poll.Stop()
	}
}

// artifactDir is where failing schedules park their flight-recorder
// traces; kept outside the repo tree.
func artifactDir() string {
	return filepath.Join(os.TempDir(), "clonos-fault-artifacts")
}

func sanitizeSchedule(s string) string {
	repl := strings.NewReplacer("/", "_", "@", "-", "#", ".", "->", "~", ";", "+", "kill=", "", "[", "", "]", "", "*", "any")
	return repl.Replace(s)
}

// writeFailureArtifact persists the schedule and the flight-recorder
// JSONL for a failing run and logs the one-line reproduction command.
// For wedges, stacks holds an all-goroutine dump captured while the job
// was still stuck — the parked goroutine is usually the whole diagnosis.
func writeFailureArtifact(t *testing.T, sched faultinject.Schedule, trace, stacks []byte) {
	t.Helper()
	dir := artifactDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("cannot create artifact dir: %v", err)
		return
	}
	base := filepath.Join(dir, sanitizeSchedule(sched.String()))
	if err := os.WriteFile(base+".schedule", []byte(sched.String()+"\n"), 0o644); err != nil {
		t.Logf("cannot write schedule artifact: %v", err)
	}
	if err := os.WriteFile(base+".jsonl", trace, 0o644); err != nil {
		t.Logf("cannot write trace artifact: %v", err)
	}
	if len(stacks) > 0 {
		if err := os.WriteFile(base+".stacks", stacks, 0o644); err != nil {
			t.Logf("cannot write stacks artifact: %v", err)
		}
	}
	t.Logf("failure artifacts: %s.{schedule,jsonl}", base)
	t.Logf("replay: go test ./internal/job -run TestCrashSchedule -args -schedule='%s'", sched.String())
}

// runCrashSchedule executes one schedule against a pipeline chosen by the
// schedule's point kinds (timer points need processing-time timers,
// global points need ModeGlobal) and asserts the exactly-once oracle:
// the job finishes, no task reports an error, and the sink holds exactly
// the expected aggregate. On violation it writes the failure artifact.
func runCrashSchedule(t *testing.T, sched faultinject.Schedule) crashVerdict {
	t.Helper()
	return runCrashScheduleMode(t, sched, false)
}

// runCrashScheduleMode is runCrashSchedule with an explicit unaligned
// override, for pinned regressions whose bug only exists under unaligned
// checkpoints regardless of the sweep leg's env gate.
func runCrashScheduleMode(t *testing.T, sched faultinject.Schedule, forceUnaligned bool) crashVerdict {
	t.Helper()
	const (
		n    = 2500
		keys = 7
	)
	inj := faultinject.New(sched)
	var trace bytes.Buffer
	rec := obs.NewRecorder(&trace, obs.RecorderConfig{})

	mode := ModeClonos
	if sched.HasKind(faultinject.KindGlobal) {
		mode = ModeGlobal
	}
	cfg := quickConfig(mode)
	cfg.DSD = 0 // full determinant replication: overlapping failures stay locally recoverable
	cfg.StallDeadline = time.Second
	cfg.ServiceSeed = 42 // deterministic nondeterminants: replays hit the run the schedule saw
	cfg.Faults = inj
	cfg.TraceSink = rec
	unaligned := forceUnaligned || faultUnaligned() || sched.HasKind(faultinject.KindUnaligned)
	if unaligned {
		// Schedules that target the unaligned crash points arm the mode
		// they exercise; the env gate forces every schedule through it.
		// A budget of 0 converts every alignment at its first barrier.
		cfg.AlignmentBudget = 0
		// Small frames keep the ORDER unit fine-grained under the slow
		// pipeline's backpressure: on the pinned double failure a run
		// captures about 70 messages at 256 bytes against 40 at the
		// default 8KiB, at the same run time.
		cfg.BufferSize = 256
	}
	// The audit plane runs armed across the whole sweep: every schedule
	// doubles as a false-positive pin — a passing crash schedule must
	// produce zero violations.
	aud := audit.New()
	cfg.Audit = aud

	timerRun := sched.HasKind(faultinject.KindTimer)
	sink := kafkasim.NewSinkTopic(true)
	var topic *kafkasim.Topic
	var g *Graph
	if timerRun {
		topic = kafkasim.NewTopic("in", 1)
		g = procWindowPipeline(topic, sink, 50)
	} else if unaligned {
		// Unaligned runs go through the slow variant so the capture
		// windows the schedule crashes in open onto a genuine backlog
		// (in-flight buffers to log), matching the matrix's
		// sustained-backpressure load rather than a drained queue.
		topic = kafkasim.NewTopic("in", 2)
		g = slowDeepPipeline(topic, sink, 2, 600*time.Microsecond)
	} else {
		topic = kafkasim.NewTopic("in", 2)
		g = deepPipeline(topic, sink, 2)
	}
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	gen := kafkasim.NewGenerator(topic, 5000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i) % keys, Ts: i, Value: i}, i < n
	})
	gen.Start()

	finished, wedged := waitOutcome(r, 75*time.Second)
	gen.Stop()
	errs := r.Errors()
	var sums map[uint64]int64
	var total int64
	if finished {
		if timerRun {
			for _, rec := range sink.All() {
				total += rec.Value.(int64)
			}
		} else {
			sums = finalSums(sink)
		}
	}
	debug := ""
	var stacks []byte
	if !finished {
		debug = r.DebugString()
		stacks = make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
	}
	r.Stop()
	rec.Close()

	v := crashVerdict{finished: finished, wedged: wedged, fired: inj.Fired(), unfired: inj.Unfired()}
	failed := false
	if !finished {
		failed = true
		if wedged {
			t.Errorf("job wedged (watchdog saw progress stop and never resume); errors: %v\n%s", errs, debug)
		} else {
			t.Errorf("job did not finish before backstop; errors: %v\n%s", errs, debug)
		}
	} else {
		for _, e := range errs {
			failed = true
			t.Errorf("task error: %v", e)
		}
		if timerRun {
			if total != n {
				failed = true
				t.Errorf("window counts sum to %d, want %d (exactly-once violated)", total, n)
			}
		} else {
			want := expectedDeepSums(n, keys)
			for k, w := range want {
				if sums[k] != w {
					failed = true
					t.Errorf("key %d: sum %d, want %d (exactly-once violated)", k, sums[k], w)
				}
			}
			for k := range sums {
				if _, ok := want[k]; !ok {
					failed = true
					t.Errorf("unexpected key %d in sink", k)
				}
			}
		}
	}
	if n := aud.Total(); n != 0 {
		failed = true
		t.Errorf("audit plane detected %d violation(s) on this schedule: %v", n, aud.ByInvariant())
	}
	if failed {
		writeFailureArtifact(t, sched, trace.Bytes(), stacks)
	} else if len(v.unfired) > 0 {
		// Not a failure — the run finished correctly — but a sweep
		// coverage diagnostic: the schedule named a point this run never
		// reached (e.g. the job finished before the occurrence matched).
		t.Logf("unfired kills (point not reached): %v", v.unfired)
	}
	return v
}

// sweepPlan is the curated victim set for the deterministic sweep over
// the deep pipeline (src p=2 -> map p=2 -> keyed-reduce p=2 -> sink p=1):
// direct points fire on the stateful middle stage, alignment on its
// second subtask, source points on the second source partition, and the
// recovery windows re-kill the recovering middle task. The timer point
// routes to the processing-time window pipeline (vertex 1 = the window).
func sweepPlan() faultinject.SweepPlan {
	return faultinject.SweepPlan{
		Victims:   []string{"v2[0]"},
		Source:    "v0[1]",
		Align:     "v2[1]",
		Timer:     "v1[0]",
		Recovery:  "v2[0]",
		PrimeSkip: 60,
		StepSkip:  2,
	}
}

// TestFaultSweep enumerates every registered crash point — including the
// second-failure-during-recovery windows — and runs each schedule to the
// exactly-once oracle. A failing subtest logs its schedule string and
// flight-recorder artifact; the schedule replays via TestCrashSchedule.
func TestFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is long; skipped in -short")
	}
	schedules := faultinject.Sweep(sweepPlan())
	if len(schedules) < 20 {
		t.Fatalf("sweep enumerates %d schedules, want >= 20", len(schedules))
	}
	firedPoints := make(map[string]bool)
	for _, sched := range schedules {
		sched := sched
		if faultUnaligned() && alignedOnlySchedule(sched) {
			continue
		}
		t.Run(sanitizeSchedule(sched.String()), func(t *testing.T) {
			v := runCrashSchedule(t, sched)
			for _, f := range v.fired {
				firedPoints[f.Kill.Point] = true
			}
		})
	}
	// The sweep only proves something if the points actually fired: every
	// registered point must have gone off in at least one schedule.
	for _, p := range faultinject.Points() {
		if faultUnaligned() &&
			(p.Name == faultinject.PointAlignBlocked || p.Name == faultinject.PointAlignComplete) {
			continue // unreachable with every schedule forced unaligned
		}
		if !firedPoints[p.Name] {
			t.Errorf("crash point %q never fired in any sweep schedule", p.Name)
		}
	}
}

// TestFaultFuzz runs a handful of seeded pseudo-random schedules. The
// generator is deterministic (same seed, byte-identical schedules —
// asserted in the faultinject unit tests), so a failure here is as
// replayable as a sweep failure.
func TestFaultFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fault fuzz is long; skipped in -short")
	}
	plan := sweepPlan()
	plan.Victims = []string{"v1[0]", "v2[0]", "v3[0]"}
	for _, sched := range faultinject.Fuzz(1, 6, plan) {
		sched := sched
		t.Run(sanitizeSchedule(sched.String()), func(t *testing.T) {
			runCrashSchedule(t, sched)
		})
	}
}

// TestCrashSchedule replays a schedule passed via -args -schedule=...;
// it is the reproduction entry point printed by failing sweep subtests.
func TestCrashSchedule(t *testing.T) {
	if *scheduleFlag == "" {
		t.Skip("no -schedule given")
	}
	sched, err := faultinject.Parse(*scheduleFlag)
	if err != nil {
		t.Fatalf("bad -schedule: %v", err)
	}
	v := runCrashSchedule(t, sched)
	t.Logf("finished=%v wedged=%v fired=%v unfired=%v", v.finished, v.wedged, v.fired, v.unfired)
}

// TestCrashScheduleRegressions pins schedules that once exposed real
// bugs, so the fixes cannot silently regress. Each entry documents the
// bug its schedule reproduced.
func TestCrashScheduleRegressions(t *testing.T) {
	if testing.Short() {
		t.Skip("regression schedules are long; skipped in -short")
	}
	regressions := []struct {
		name     string
		schedule string
		// unaligned forces unaligned checkpoints: the pinned bug only
		// exists on the unaligned path, so the pin must not depend on the
		// sweep leg's env gate to arm it.
		unaligned bool
		bug       string
	}{
		{
			name:     "crash-before-first-checkpoint-loses-pre-barrier-buffers",
			schedule: "kill=task/loop@v2[0]",
			bug: "outChannels started at epoch 0 instead of 1, so buffers " +
				"dispatched before the first barrier carried epoch-0 labels; " +
				"a replay request for epoch 1 (failure before the first " +
				"completed checkpoint) skipped the whole pre-barrier prefix " +
				"via FirstSeqOfEpoch and the replacement silently lost it",
		},
		{
			name:     "replacement-dies-before-attach",
			schedule: "kill=task/loop@v2[0]#60;kill=recovery/network-reconfigured@v2[0]",
			bug: "a replacement crashing after its fresh endpoints were installed " +
				"but before it started left those endpoints open; surviving upstream " +
				"pushers parked forever on the abandoned flow-control conds",
		},
		{
			name:     "replacement-dies-before-start",
			schedule: "kill=task/loop@v2[0]#60;kill=recovery/pre-start@v2[0]",
			bug: "start() on an already-crashed replacement launched threads for a " +
				"dead task and leaked its timer thread; shutdown then hung on done",
		},
		{
			name:     "upstream-dies-serving-replay",
			schedule: "kill=task/loop@v2[0]#60;kill=channel/serve-replay@*",
			bug: "two bugs. (1) the replay-retry path busy-waited on a 2ms sleep " +
				"with no abort: a gen-fenced dead incarnation's server spun forever " +
				"instead of parking on the retry signal and exiting via task abort. " +
				"(2) when the upstream had already FINISHED before dying mid-replay, " +
				"the failure detector skipped it (finished tasks were exempt), so " +
				"the half-served replay was orphaned forever and the recovering " +
				"downstream wedged waiting for data no one would ever re-send",
		},
		{
			name:      "global-restart-skips-mid-batch-source-backlog",
			schedule:  "kill=task/loop@v2[0]#60;kill=global/post-rebuild@v2[0]",
			unaligned: true, // needs the backpressured pipeline: the batch is drained otherwise
			bug: "KafkaSource.Poll advances its offsets for the whole polled " +
				"batch, but the task emits the batch one element at a time and " +
				"services checkpoint triggers in between: a barrier arriving " +
				"mid-batch snapshotted offsets already past the unemitted tail, " +
				"which then flowed in the NEXT epoch. A restore from that " +
				"checkpoint resumed at the post-batch offsets and silently " +
				"skipped the tail — up to BatchMax records lost per source " +
				"subtask per restart. Latent until the backpressured sweep: " +
				"with a drained queue the batch is empty whenever a trigger " +
				"arrives. Fixed by persisting the unemitted tail in the " +
				"snapshot (TaskSnapshot.SourceBacklog) and re-emitting it on " +
				"restore before polling again",
		},
		{
			name:      "unaligned-preload-replays-stale-latency-markers",
			schedule:  "kill=task/loop@v2[0]#60;kill=channel/serve-replay@*",
			unaligned: true,
			bug: "only under unaligned checkpoints: restore preloads captured " +
				"in-flight buffers straight into the gate, bypassing the " +
				"endpoint accept path — so the audit plane's OnDeliver rewind " +
				"detection never saw the channel rewind, and marker stamps " +
				"inside the preloaded window tripped a false " +
				"latency-marker-reorder violation against the pre-crash floor. " +
				"Fixed by notifying the auditor at preload (OnPreload) so the " +
				"marker floor re-seeds exactly as for a re-delivered seq",
		},
		{
			name:     "second-kill-delays-checkpoint-into-end-of-input",
			schedule: "kill=task/loop@v2[0]#20;kill=task/loop@v2[0]#31",
			bug: "an EOS arriving on a channel MID-alignment set eosSeen but never " +
				"completed the pending alignment: the double recovery delayed the " +
				"checkpoint into the end of the bounded input, a source exited " +
				"between the coordinator's trigger and its barrier, and the " +
				"downstream waited forever for a barrier that would never come " +
				"with its other channels gated",
		},
	}
	for _, reg := range regressions {
		reg := reg
		t.Run(reg.name, func(t *testing.T) {
			sched, err := faultinject.Parse(reg.schedule)
			if err != nil {
				t.Fatalf("bad pinned schedule: %v", err)
			}
			if v := runCrashScheduleMode(t, sched, reg.unaligned); !v.finished {
				t.Logf("regressed bug: %s", reg.bug)
			}
		})
	}
}
