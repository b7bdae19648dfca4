// Package faultinject turns chaos testing into a reproducible bug-hunting
// tool: a registry of named crash points instrumented across the protocol
// layers (task main loop, barrier alignment, the snapshot-persist→ack
// window, the local-recovery step sequence, in-flight replay) and a
// deterministic schedule driver that crashes chosen victims at exactly
// those points.
//
// A crash point is a zero-cost no-op unless an Injector is armed: the
// engine calls Hit(point, task) at each point, and the injector fires the
// armed kills whose (point, victim, occurrence) match. Because firing is
// keyed to execution structure — "the 3rd time task v2[0] reaches
// replay/step" — rather than wall-clock time, a schedule string replays
// the same failure pattern on every run, and a failing chaos run shrinks
// to a one-line reproducer.
//
// Point names deliberately mirror the obs tracer's recovery-span mark
// vocabulary (standby-activated, determinants-retrieved,
// network-reconfigured, replay-done) so flight-recorder traces and crash
// schedules describe the same protocol timeline.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Crash-point names. Each constant is referenced from exactly the code
// location it names; Points() lists them all for sweep enumeration.
const (
	// Task main loop and mailbox.
	PointTaskLoop      = "task/loop"           // top of the main-thread loop
	PointTimerFiring   = "task/timer-firing"   // a due processing-time timer firing, before the TIMER determinant is logged
	PointCheckpointRPC = "task/checkpoint-rpc" // checkpoint-trigger RPC delivery, before the RPC determinant is logged
	PointSourceEmit    = "source/emit"         // before emitting one source element

	// Barrier alignment (task.handleBarrier).
	PointAlignStart    = "align/start"    // a barrier arrived, before any channel blocks
	PointAlignBlocked  = "align/blocked"  // a channel was just blocked for alignment
	PointAlignComplete = "align/complete" // all barriers in, before the snapshot

	// Unaligned checkpointing (task.beginUnalignedCapture / captureMessage
	// / sealCapture): the overload-tolerant path snapshots on the first
	// barrier and logs pre-barrier input instead of gating channels, so
	// these windows bracket a snapshot that is visible but not yet sealed.
	PointUnalignedSnapshot = "unaligned/snapshot" // first barrier arrived, before the immediate snapshot
	PointUnalignedCapture  = "unaligned/capture"  // one pre-barrier message was just logged into the capture
	PointUnalignedSeal     = "unaligned/seal"     // every pending barrier drained, before the sealed snapshot persists

	// Snapshot and the persist→ack window (task.snapshot / Runtime.onSnapshot).
	PointSnapshotPreBarrier = "snapshot/pre-barrier"        // before the barrier is forwarded downstream
	PointSnapshotPreState   = "snapshot/pre-state"          // barrier forwarded and epochs rolled, before state capture
	PointSnapshotPrePersist = "snapshot/pre-persist"        // snapshot built, before it reaches the store
	PointPersistAckWindow   = "snapshot/persist-ack-window" // snapshot persisted, before the coordinator ack

	// Causally guided replay (task.runReplay).
	PointReplayStart = "replay/start" // determinant cursor installed, before the first replayed step
	PointReplayStep  = "replay/step"  // before consuming one determinant (use #skip to land mid-replay)
	PointReplayDone  = "replay/done"  // log exhausted, before the replay-done mark

	// Local-recovery protocol windows (Runtime.localRecover): the victim
	// here is the recovering task, so these model a standby/replacement
	// dying between named recovery phases — the §5 "failures during
	// recovery" cases.
	PointRecoveryPreActivate  = "recovery/pre-activate"           // before checkpoint restore
	PointRecoveryActivated    = "recovery/standby-activated"      // restored, before endpoint rebind
	PointRecoveryRebind       = "recovery/rebind"                 // after rebinding one downstream endpoint (use #skip for middles)
	PointRecoveryDedupSampled = "recovery/dedup-sampled"          // all dedup floors sampled, before determinant extraction
	PointRecoveryDeterminants = "recovery/determinants-retrieved" // determinants merged, before network reconfiguration
	PointRecoveryNetwork      = "recovery/network-reconfigured"   // fresh endpoints installed, before the task is registered
	PointRecoveryPreStart     = "recovery/pre-start"              // registered, before threads launch
	PointRecoveryServeReplay  = "recovery/pre-serve-replay"       // running, before deferred replay requests are served

	// In-flight replay serving (outChannel.replayLoop): the victim is the
	// task serving a downstream recovery, crashing mid-retransmission.
	PointServeReplayEntry = "channel/serve-replay"

	// Global rollback (Runtime.globalRestart): a rebuilt task crashes
	// immediately after the full-topology restart deployed it.
	PointGlobalRebuilt = "global/post-rebuild"
)

// PointKind classifies how a crash point is reached, which the sweep uses
// to decide whether a schedule needs a priming failure first.
type PointKind int

const (
	// KindDirect points fire during normal operation on any task.
	KindDirect PointKind = iota
	// KindSource points fire only on source tasks.
	KindSource
	// KindAlign points fire only on tasks with two or more input channels.
	KindAlign
	// KindUnaligned points fire only on multi-input tasks running with
	// unaligned checkpoints armed; the sweep driver arms the mode when a
	// schedule carries this kind.
	KindUnaligned
	// KindTimer points fire only on tasks with processing-time timers.
	KindTimer
	// KindRecovery points fire while a task is being recovered, so a
	// schedule must prime them with an earlier kill of the same victim.
	KindRecovery
	// KindServe points fire on a task serving an in-flight replay to a
	// recovering downstream; primed by killing the downstream.
	KindServe
	// KindGlobal points fire during a global rollback restart.
	KindGlobal
)

// PointInfo describes one registered crash point.
type PointInfo struct {
	Name string
	Kind PointKind
}

// points is the canonical registry, in sweep order.
var points = []PointInfo{
	{PointTaskLoop, KindDirect},
	{PointTimerFiring, KindTimer},
	{PointCheckpointRPC, KindSource},
	{PointSourceEmit, KindSource},
	{PointAlignStart, KindAlign},
	{PointAlignBlocked, KindAlign},
	{PointAlignComplete, KindAlign},
	{PointUnalignedSnapshot, KindUnaligned},
	{PointUnalignedCapture, KindUnaligned},
	{PointUnalignedSeal, KindUnaligned},
	{PointSnapshotPreBarrier, KindDirect},
	{PointSnapshotPreState, KindDirect},
	{PointSnapshotPrePersist, KindDirect},
	{PointPersistAckWindow, KindDirect},
	{PointReplayStart, KindRecovery},
	{PointReplayStep, KindRecovery},
	{PointReplayDone, KindRecovery},
	{PointRecoveryPreActivate, KindRecovery},
	{PointRecoveryActivated, KindRecovery},
	{PointRecoveryRebind, KindRecovery},
	{PointRecoveryDedupSampled, KindRecovery},
	{PointRecoveryDeterminants, KindRecovery},
	{PointRecoveryNetwork, KindRecovery},
	{PointRecoveryPreStart, KindRecovery},
	{PointRecoveryServeReplay, KindRecovery},
	{PointServeReplayEntry, KindServe},
	{PointGlobalRebuilt, KindGlobal},
}

var pointSet = func() map[string]PointInfo {
	m := make(map[string]PointInfo, len(points))
	for _, p := range points {
		m[p.Name] = p
	}
	return m
}()

// MirroredMarks pairs crash points with the obs tracer mark emitted at
// the same protocol step, so chaos runs line up with recovery-span
// traces: crashing at the point and seeing the mark are two views of one
// protocol location. The crashpoint analyzer (clonos-vet) keeps the pair
// from drifting — the mark string must stay derivable from the point
// name, and must still be emitted somewhere in non-test code.
var MirroredMarks = map[string]string{
	PointRecoveryActivated:    "standby-activated",
	PointRecoveryDeterminants: "determinants-retrieved",
	PointRecoveryNetwork:      "network-reconfigured",
	PointReplayDone:           "replay-done",
}

// Points returns the registered crash points in sweep order.
func Points() []PointInfo { return append([]PointInfo(nil), points...) }

// LookupPoint returns the registry entry for a point name.
func LookupPoint(name string) (PointInfo, bool) {
	p, ok := pointSet[name]
	return p, ok
}

// Kill is one armed crash: when the Skip+1-th matching (Point, Victim)
// hit occurs, Target (the victim itself when empty) is crashed.
type Kill struct {
	Point  string // crash-point name (must be registered)
	Victim string // task whose execution hits the point; "*" matches any
	Target string // task to crash when fired; "" crashes the hitting task
	Skip   int    // matching occurrences to let pass before firing
}

// String renders the kill in schedule grammar: point@victim[#skip][->target].
func (k Kill) String() string {
	var b strings.Builder
	b.WriteString(k.Point)
	b.WriteByte('@')
	b.WriteString(k.Victim)
	if k.Skip > 0 {
		b.WriteByte('#')
		b.WriteString(strconv.Itoa(k.Skip))
	}
	if k.Target != "" {
		b.WriteString("->")
		b.WriteString(k.Target)
	}
	return b.String()
}

// Schedule is an ordered set of kills; order is cosmetic (firing order is
// decided by execution), but String/Parse preserve it so a schedule
// round-trips byte-identically.
type Schedule struct {
	Kills []Kill
}

// String renders the schedule as "kill=...;kill=..." — the replayable
// artifact format accepted by Parse and the -schedule test flag.
func (s Schedule) String() string {
	parts := make([]string, 0, len(s.Kills))
	for _, k := range s.Kills {
		parts = append(parts, "kill="+k.String())
	}
	return strings.Join(parts, ";")
}

// HasKind reports whether any kill targets a point of the given kind —
// the test driver uses this to pick a suitable pipeline and mode.
func (s Schedule) HasKind(kind PointKind) bool {
	for _, k := range s.Kills {
		if p, ok := pointSet[k.Point]; ok && p.Kind == kind {
			return true
		}
	}
	return false
}

// Parse decodes a schedule produced by Schedule.String. Unknown point
// names are rejected so a typo cannot silently become a no-op schedule.
func Parse(in string) (Schedule, error) {
	var s Schedule
	in = strings.TrimSpace(in)
	if in == "" {
		return s, nil
	}
	for _, part := range strings.Split(in, ";") {
		part = strings.TrimSpace(part)
		body, ok := strings.CutPrefix(part, "kill=")
		if !ok {
			return Schedule{}, fmt.Errorf("faultinject: entry %q: want kill=point@victim[#skip][->target]", part)
		}
		var k Kill
		body, k.Target, _ = cutLast(body, "->")
		point, rest, ok := strings.Cut(body, "@")
		if !ok {
			return Schedule{}, fmt.Errorf("faultinject: entry %q: missing @victim", part)
		}
		k.Point = point
		if victim, skip, ok := strings.Cut(rest, "#"); ok {
			n, err := strconv.Atoi(skip)
			if err != nil || n < 0 {
				return Schedule{}, fmt.Errorf("faultinject: entry %q: bad skip %q", part, skip)
			}
			k.Victim, k.Skip = victim, n
		} else {
			k.Victim = rest
		}
		if _, ok := pointSet[k.Point]; !ok {
			return Schedule{}, fmt.Errorf("faultinject: unknown crash point %q", k.Point)
		}
		if k.Victim == "" {
			return Schedule{}, fmt.Errorf("faultinject: entry %q: empty victim", part)
		}
		s.Kills = append(s.Kills, k)
	}
	return s, nil
}

// cutLast splits s at the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}

// Fired records one kill that went off.
type Fired struct {
	Kill   Kill
	Task   string // the task that hit the point
	Target string // the task that was crashed
}

// Injector matches crash-point hits against an armed schedule. Hit is
// called from task main threads and the recovery worker; all methods are
// safe for concurrent use. Each armed kill fires at most once.
type Injector struct {
	mu     sync.Mutex
	kills  []killState
	fired  []Fired
	killFn func(task string)
}

type killState struct {
	k     Kill
	left  int
	fired bool
}

// New builds an injector armed with the schedule.
func New(s Schedule) *Injector {
	in := &Injector{}
	for _, k := range s.Kills {
		in.kills = append(in.kills, killState{k: k, left: k.Skip})
	}
	return in
}

// OnKill installs the callback used to crash a target other than the
// hitting task (the runtime routes it to the task's crash path). It is
// invoked without the injector's lock held.
func (in *Injector) OnKill(fn func(task string)) {
	in.mu.Lock()
	in.killFn = fn
	in.mu.Unlock()
}

// Hit reports a crash point reached by task. It returns true when an
// armed kill fired against the hitting task itself — the caller must then
// crash that task at this exact point. Kills aimed at a different target
// are dispatched through the OnKill callback and return false so the
// hitting task keeps running.
func (in *Injector) Hit(point, task string) bool {
	in.mu.Lock()
	self := false
	var targets []string
	for i := range in.kills {
		ks := &in.kills[i]
		if ks.fired || ks.k.Point != point {
			continue
		}
		if ks.k.Victim != "*" && ks.k.Victim != task {
			continue
		}
		if ks.left > 0 {
			ks.left--
			continue
		}
		ks.fired = true
		target := ks.k.Target
		if target == "" || target == task {
			self = true
			target = task
		} else {
			targets = append(targets, target)
		}
		in.fired = append(in.fired, Fired{Kill: ks.k, Task: task, Target: target})
	}
	fn := in.killFn
	in.mu.Unlock()
	for _, t := range targets {
		if fn != nil {
			fn(t)
		}
	}
	return self
}

// Fired returns the kills that went off, in firing order.
func (in *Injector) Fired() []Fired {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Fired(nil), in.fired...)
}

// Unfired returns armed kills that never went off — a sweep diagnostic:
// the schedule named a point its run never reached.
func (in *Injector) Unfired() []Kill {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []Kill
	for _, ks := range in.kills {
		if !ks.fired {
			out = append(out, ks.k)
		}
	}
	return out
}

// SweepPlan names the victims a sweep enumerates against. Victims are
// task-ID strings as produced by types.TaskID.String (e.g. "v2[0]").
type SweepPlan struct {
	// Victims receive one schedule per direct point each.
	Victims []string
	// Source is the victim for source-only points.
	Source string
	// Align is the victim for alignment points (a task with >= 2 inputs);
	// empty falls back to the first entry of Victims.
	Align string
	// Timer is the victim for the processing-time-timer point; empty
	// skips that point (the swept pipeline has no such timers).
	Timer string
	// Recovery is the victim whose recovery windows are swept: each
	// recovery/replay point gets a schedule that first kills it at
	// task/loop (after PrimeSkip iterations), then fires the window
	// point during the resulting recovery — the second failure landing
	// between named protocol phases.
	Recovery string
	// PrimeSkip is the loop-iteration count let pass before the priming
	// kill, so the victim has produced data (and determinants) first.
	PrimeSkip int
	// StepSkip offsets occurrence-counted points (replay/step,
	// recovery/rebind, channel/serve-replay) into the middle of their
	// loops rather than the first iteration.
	StepSkip int
}

// Sweep deterministically enumerates one schedule per (point, victim):
// direct points against every plan victim, scoped points against their
// designated victim, and recovery-window points as two-kill schedules
// (priming failure, then the second failure inside the recovery). The
// output order is fixed, so a sweep is itself a replayable artifact.
func Sweep(plan SweepPlan) []Schedule {
	prime := func(victim string) Kill {
		return Kill{Point: PointTaskLoop, Victim: victim, Skip: plan.PrimeSkip}
	}
	align := plan.Align
	if align == "" && len(plan.Victims) > 0 {
		align = plan.Victims[0]
	}
	var out []Schedule
	for _, p := range points {
		switch p.Kind {
		case KindDirect:
			for _, v := range plan.Victims {
				out = append(out, Schedule{Kills: []Kill{{Point: p.Name, Victim: v}}})
			}
		case KindSource:
			if plan.Source != "" {
				out = append(out, Schedule{Kills: []Kill{{Point: p.Name, Victim: plan.Source}}})
			}
		case KindAlign:
			if align != "" {
				out = append(out, Schedule{Kills: []Kill{{Point: p.Name, Victim: align}}})
			}
		case KindUnaligned:
			// Same victim shape as alignment points; the schedule runner
			// sets Config.AlignmentBudget to 0 when it sees this kind.
			if align != "" {
				k := Kill{Point: p.Name, Victim: align}
				if p.Name == PointUnalignedCapture {
					// Land mid-capture rather than on the first logged
					// message.
					k.Skip = plan.StepSkip
				}
				out = append(out, Schedule{Kills: []Kill{k}})
			}
		case KindTimer:
			if plan.Timer != "" {
				out = append(out, Schedule{Kills: []Kill{{Point: p.Name, Victim: plan.Timer}}})
			}
		case KindRecovery:
			if plan.Recovery == "" {
				continue
			}
			k := Kill{Point: p.Name, Victim: plan.Recovery}
			if p.Name == PointReplayStep {
				// Mid-loop landing. recovery/rebind deliberately keeps
				// skip 0: its occurrence count is bounded by the victim's
				// output-channel count, which may be 1.
				k.Skip = plan.StepSkip
			}
			out = append(out, Schedule{Kills: []Kill{prime(plan.Recovery), k}})
		case KindServe:
			if plan.Recovery == "" {
				continue
			}
			// Whichever upstream serves the recovering victim's replay
			// crashes mid-retransmission.
			out = append(out, Schedule{Kills: []Kill{prime(plan.Recovery), {Point: p.Name, Victim: "*"}}})
		case KindGlobal:
			if plan.Recovery == "" {
				continue
			}
			out = append(out, Schedule{Kills: []Kill{prime(plan.Recovery), {Point: p.Name, Victim: plan.Recovery}}})
		}
	}
	return out
}

// Fuzz generates n pseudo-random schedules from seed. The same seed
// always produces the byte-identical schedule list; victims are drawn
// from the plan. Roughly a third of the schedules stack a second kill
// into the recovery opened by the first, and a few redirect the kill at
// a different target to exercise overlapping-failure patterns.
func Fuzz(seed int64, n int, plan SweepPlan) []Schedule {
	rng := rand.New(rand.NewSource(seed))
	victims := append([]string(nil), plan.Victims...)
	if plan.Source != "" {
		victims = append(victims, plan.Source)
	}
	sort.Strings(victims)
	if len(victims) == 0 {
		return nil
	}
	var direct []PointInfo
	var windows []PointInfo
	for _, p := range points {
		switch p.Kind {
		case KindDirect:
			direct = append(direct, p)
		case KindRecovery, KindServe:
			windows = append(windows, p)
		}
	}
	out := make([]Schedule, 0, n)
	for i := 0; i < n; i++ {
		var s Schedule
		v := victims[rng.Intn(len(victims))]
		first := Kill{Point: direct[rng.Intn(len(direct))].Name, Victim: v, Skip: rng.Intn(40)}
		s.Kills = append(s.Kills, first)
		if rng.Intn(3) == 0 {
			// Second failure inside the first kill's recovery window.
			w := windows[rng.Intn(len(windows))]
			k := Kill{Point: w.Name, Victim: v}
			if w.Kind == KindServe {
				k.Victim = "*"
			}
			if w.Name == PointReplayStep {
				k.Skip = rng.Intn(8)
			}
			if rng.Intn(4) == 0 {
				// Redirect at a different victim: overlapping failures.
				k.Target = victims[rng.Intn(len(victims))]
			}
			s.Kills = append(s.Kills, k)
		} else if rng.Intn(2) == 0 {
			// Independent concurrent kill of another task.
			s.Kills = append(s.Kills, Kill{Point: PointTaskLoop, Victim: victims[rng.Intn(len(victims))], Skip: rng.Intn(60)})
		}
		out = append(out, s)
	}
	return out
}
