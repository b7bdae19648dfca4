package job

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clonos/internal/audit"
	"clonos/internal/checkpoint"
	"clonos/internal/codec"
	"clonos/internal/faultinject"
	"clonos/internal/kafkasim"
	"clonos/internal/operator"
	"clonos/internal/services"
	"clonos/internal/types"
)

// eventsOf returns the recorded events of one kind for one task, in order.
func eventsOf(r *Runtime, kind EventKind, id types.TaskID) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Kind == kind && ev.Task == id {
			out = append(out, ev)
		}
	}
	return out
}

// awaitNth waits for the n-th (1-based) event of one kind for one task.
func awaitNth(t *testing.T, r *Runtime, kind EventKind, id types.TaskID, n int, timeout time.Duration) Event {
	t.Helper()
	if !r.WaitForEvent(timeout, func(Event) bool { return len(eventsOf(r, kind, id)) >= n }) {
		t.Fatalf("no %s #%d for %v within %v; errors: %v\n%s", kind, n, id, timeout, r.Errors(), r.DebugString())
	}
	return eventsOf(r, kind, id)[n-1]
}

// declaredAfter returns how long after the fault-injected event naming
// point the next failure of id was declared.
func declaredAfter(t *testing.T, r *Runtime, point string, id types.TaskID) time.Duration {
	t.Helper()
	var fault time.Time
	for _, ev := range r.Events() {
		switch {
		case ev.Kind == EventFaultInjected && ev.Info == point:
			fault = ev.Time
		case ev.Kind == EventFailureDetected && ev.Task == id && !fault.IsZero() && !ev.Time.Before(fault):
			return ev.Time.Sub(fault)
		}
	}
	t.Fatalf("no failure of %v declared after crash point %s fired (fired=%v)", id, point, !fault.IsZero())
	return 0
}

func assertNoGlobalRestart(t *testing.T, r *Runtime) {
	t.Helper()
	for _, ev := range r.Events() {
		if ev.Kind == EventGlobalRestart {
			t.Fatalf("unexpected global restart: %+v", ev)
		}
	}
}

// TestCrashDeclaredAtTheBreak proves detection is the crash's own wake-up
// and not a timer: with a heartbeat bound of 10 s (fallback sweep every
// 2.5 s) a killed source, stage task and sink are each declared failed
// within 50 ms of the injection.
func TestCrashDeclaredAtTheBreak(t *testing.T) {
	const n = 6000
	cfg := quickConfig(ModeClonos)
	cfg.HeartbeatTimeout = 10 * time.Second
	cfg.DSD = 0
	sums, r := runDeepFailure(t, cfg, n, 5, func(r *Runtime) {
		for _, victim := range []types.TaskID{{Vertex: 0, Subtask: 1}, {Vertex: 2, Subtask: 0}, {Vertex: 3, Subtask: 0}} {
			if err := r.InjectFailure(victim); err != nil {
				t.Fatal(err)
			}
			detected := awaitNth(t, r, EventFailureDetected, victim, 1, 5*time.Second)
			injected := eventsOf(r, EventFailureInjected, victim)[0]
			if d := detected.Time.Sub(injected.Time); d < 0 || d > 50*time.Millisecond {
				t.Errorf("%v declared %v after the injection, want within 50ms", victim, d)
			}
			awaitNth(t, r, EventCaughtUp, victim, 1, 15*time.Second)
		}
	})
	checkSums(t, sums, expectedDeepSums(n, 5), "break detection")
	assertNoGlobalRestart(t, r)
}

// TestUnactionableWakeupCaughtBySweep covers the crashes whose wake-up
// the liveness loop cannot act on — the task died while a global restart
// was rebuilding the topology, or it is a replacement that died inside
// localRecover before it was installed — and requires the fallback sweep
// to declare them within HeartbeatTimeout.
func TestUnactionableWakeupCaughtBySweep(t *testing.T) {
	const n = 3000
	cases := []struct {
		point  string
		victim types.TaskID
		mode   Mode
	}{
		{faultinject.PointGlobalRebuilt, types.TaskID{Vertex: 1, Subtask: 0}, ModeGlobal},
		{faultinject.PointRecoveryPreActivate, types.TaskID{Vertex: 2, Subtask: 0}, ModeClonos},
		{faultinject.PointRecoveryActivated, types.TaskID{Vertex: 2, Subtask: 0}, ModeClonos},
		{faultinject.PointRecoveryRebind, types.TaskID{Vertex: 2, Subtask: 0}, ModeClonos},
		{faultinject.PointRecoveryDedupSampled, types.TaskID{Vertex: 2, Subtask: 0}, ModeClonos},
		{faultinject.PointRecoveryDeterminants, types.TaskID{Vertex: 2, Subtask: 0}, ModeClonos},
		{faultinject.PointRecoveryNetwork, types.TaskID{Vertex: 2, Subtask: 0}, ModeClonos},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.ReplaceAll(tc.point, "/", "_"), func(t *testing.T) {
			sched, err := faultinject.Parse(fmt.Sprintf("kill=%s@%s", tc.point, tc.victim))
			if err != nil {
				t.Fatal(err)
			}
			inj := faultinject.New(sched)
			cfg := quickConfig(tc.mode)
			cfg.HeartbeatTimeout = 400 * time.Millisecond
			cfg.DSD = 0
			cfg.Faults = inj
			sums, r := runDeepFailure(t, cfg, n, 5, func(r *Runtime) {
				if err := r.InjectFailure(tc.victim); err != nil {
					t.Fatal(err)
				}
			})
			checkSums(t, sums, expectedDeepSums(n, 5), tc.point)
			if len(inj.Fired()) != 1 {
				t.Fatalf("crash point never fired: %v", inj.Unfired())
			}
			if d := declaredAfter(t, r, tc.point, tc.victim); d > cfg.HeartbeatTimeout {
				t.Errorf("dead %v declared %v after %s, want within HeartbeatTimeout %v", tc.victim, d, tc.point, cfg.HeartbeatTimeout)
			}
			if tc.mode == ModeClonos {
				assertNoGlobalRestart(t, r)
			}
		})
	}
}

// park blocks the first caller of pass after arm until release is closed,
// announcing the parked caller on entered.
type park struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newPark() *park {
	return &park{entered: make(chan struct{}), release: make(chan struct{})}
}

func (p *park) arm() { p.armed.Store(true) }

func (p *park) pass() {
	if p.armed.CompareAndSwap(true, false) {
		close(p.entered)
		<-p.release
	}
}

// hookedLinear builds src(1) -> s1(1) -> s2(1) -> sink(1), deepPipeline's
// operators at parallelism one, calling hook for every record on the main
// thread of s2.
func hookedLinear(topic *kafkasim.Topic, sink *kafkasim.SinkTopic, hook func()) *Graph {
	g := NewGraph()
	src := g.AddVertex("src", 1, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 25})
	s1 := g.AddVertex("s1", 1, nil, operator.Map("add1", func(ctx operator.Context, e types.Element) (any, bool, error) {
		return e.Value.(int64) + 1, true, nil
	}))
	s2 := g.AddVertex("s2", 1, nil, operator.KeyedReduce("sum", func(ctx operator.Context, acc any, e types.Element) (any, error) {
		hook()
		s, _ := acc.(statefulValue)
		s.Total += e.Value.(int64)
		return s, nil
	}))
	sinkV := g.AddVertex("sink", 1, nil, operator.NewKafkaSink("sink", sink))
	g.Connect(src, s1, PartitionHash, nil, nil)
	g.Connect(s1, s2, PartitionHash, nil, nil)
	g.Connect(s2, sinkV, PartitionHash, nil, nil)
	return g
}

// lingering is one "the dead incarnation is still busy" run: a job whose
// victim is killed while its main thread sits in a known place, with the
// audit plane armed.
type lingering struct {
	r   *Runtime
	aud *audit.Auditor
}

func startLingering(t *testing.T, cfg Config, n int, keys uint64, rate int, build func(topic *kafkasim.Topic) *Graph) lingering {
	t.Helper()
	aud := audit.New()
	cfg.Audit = aud
	cfg.ServiceSeed = 7
	topic := kafkasim.NewTopic("in", 1)
	r, err := NewRuntime(build(topic), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	gen := kafkasim.NewGenerator(topic, rate, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i) % keys, Ts: i, Value: i}, i < int64(n)
	})
	gen.Start()
	t.Cleanup(gen.Stop)
	if !r.WaitForCheckpoint(1, 30*time.Second) {
		t.Fatalf("no checkpoint: %v", r.Errors())
	}
	return lingering{r: r, aud: aud}
}

// finish waits the job out and checks what every lingering run must end
// with: no task error, no global restart, no audit violation.
func (l lingering) finish(t *testing.T) {
	t.Helper()
	if !l.r.WaitFinished(90 * time.Second) {
		t.Fatalf("job did not finish; errors: %v\n%s", l.r.Errors(), l.r.DebugString())
	}
	for _, e := range l.r.Errors() {
		t.Errorf("task error: %v", e)
	}
	assertNoGlobalRestart(t, l.r)
	if total := l.aud.Total(); total != 0 {
		t.Errorf("%d audit violations: %v", total, l.aud.ByInvariant())
	}
}

// notActivatedWhileParked asserts the recovery of victim holds at the
// fence while the dead incarnation's main thread is parked: the failure
// is declared at once, the standby is not activated.
func notActivatedWhileParked(t *testing.T, r *Runtime, victim types.TaskID) {
	t.Helper()
	awaitNth(t, r, EventFailureDetected, victim, 1, 5*time.Second)
	if r.WaitForEvent(150*time.Millisecond, func(ev Event) bool {
		return ev.Kind == EventStandbyActivated && ev.Task == victim
	}) {
		t.Fatal("replacement activated while the dead incarnation's main thread was still running")
	}
}

// parkedSum is a state value whose encoding — on its edge and in a
// snapshot — can be parked by the test.
type parkedSum struct{ Total int64 }

var snapshotPark atomic.Pointer[park]

type parkedSumCodec struct{}

func (parkedSumCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	if p := snapshotPark.Load(); p != nil {
		p.pass()
	}
	return binary.AppendVarint(dst, v.(parkedSum).Total), nil
}
func (parkedSumCodec) EncodedSize(v any) int { return codec.VarintLen(v.(parkedSum).Total) }
func (parkedSumCodec) Decode(b []byte) (any, error) {
	n, err := codec.Int64Codec{}.Decode(b)
	if err != nil {
		return nil, err
	}
	return parkedSum{Total: n.(int64)}, nil
}

func init() { codec.RegisterType(parkedSum{}, parkedSumCodec{}) }

// TestVictimKilledMidSnapshot kills a task whose main thread is inside
// its state snapshot. The thread goes on to hand the snapshot to the
// store after the crash; recovery must wait for it rather than start the
// replacement next to it.
func TestVictimKilledMidSnapshot(t *testing.T) {
	const (
		n    = 4000
		keys = 5
	)
	p := newPark()
	snapshotPark.Store(p)
	t.Cleanup(func() { snapshotPark.Store(nil) })
	sink := kafkasim.NewSinkTopic(true)
	victim := types.TaskID{Vertex: 1, Subtask: 0}
	l := startLingering(t, quickConfig(ModeClonos), n, keys, 4000, func(topic *kafkasim.Topic) *Graph {
		g := NewGraph()
		src := g.AddVertex("src", 1, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 25})
		// The running sum lives in state as a parkedSum and travels
		// downstream as a plain int64, so only snapshots encode the type.
		sum := g.AddVertex("sum", 1, nil, operator.FlatMap("sum", func(ctx operator.Context, e types.Element, emit func(uint64, int64, any)) error {
			s, _ := ctx.State().Get(e.Key).(parkedSum)
			s.Total += e.Value.(int64)
			ctx.State().Put(e.Key, s)
			emit(e.Key, e.Timestamp, s.Total)
			return nil
		}))
		sinkV := g.AddVertex("sink", 1, nil, operator.NewKafkaSink("sink", sink))
		g.Connect(src, sum, PartitionHash, nil, nil)
		g.Connect(sum, sinkV, PartitionHash, nil, nil)
		return g
	})
	p.arm()
	select {
	case <-p.entered:
	case <-time.After(15 * time.Second):
		t.Fatal("victim never snapshotted")
	}
	if err := l.r.InjectFailure(victim); err != nil {
		t.Fatal(err)
	}
	notActivatedWhileParked(t, l.r, victim)
	close(p.release)
	l.finish(t)
	got := make(map[uint64]int64)
	for _, rec := range sink.All() {
		got[rec.Key] = rec.Value.(int64)
	}
	checkSums(t, got, expectedSums(n, keys), "killed mid-snapshot")
}

// TestVictimKilledParkedOnCredit kills a task whose main thread is parked
// in a send on its downstream's exhausted credit. Only the recovery's own
// Rebind fence releases that send, so the wait for the dead incarnation
// must come after it — and the recovery must complete while the
// downstream is still not consuming.
func TestVictimKilledParkedOnCredit(t *testing.T) {
	const (
		n    = 6000
		keys = 5
	)
	cfg := quickConfig(ModeClonos)
	cfg.BufferSize = 512
	cfg.EndpointCredit = 2
	p := newPark()
	sink := kafkasim.NewSinkTopic(true)
	victim := types.TaskID{Vertex: 1, Subtask: 0}
	l := startLingering(t, cfg, n, keys, 5000, func(topic *kafkasim.Topic) *Graph {
		return hookedLinear(topic, sink, p.pass)
	})
	p.arm()
	select {
	case <-p.entered:
	case <-time.After(15 * time.Second):
		t.Fatal("downstream never parked")
	}
	// With s2 not consuming, its two credits of 512 bytes fill and s1's
	// next send parks within a few flush intervals. Let it, then check
	// that it did.
	time.Sleep(200 * time.Millisecond)
	l.r.mu.Lock()
	ch := l.r.tasks[victim].allOut[0].id
	l.r.mu.Unlock()
	if q := l.r.net.Endpoint(ch).Len(); q < cfg.EndpointCredit {
		t.Fatalf("setup: downstream queue holds %d buffers, want the full credit %d", q, cfg.EndpointCredit)
	}
	if err := l.r.InjectFailure(victim); err != nil {
		t.Fatal(err)
	}
	awaitNth(t, l.r, EventStandbyActivated, victim, 1, 10*time.Second)
	close(p.release)
	l.finish(t)
	checkSums(t, finalSums(sink), expectedDeepSums(n, keys), "killed parked on credit")
}

// TestSinkKilledMidBuffer kills a sink whose main thread is inside a
// record: a nondeterministic external call is already logged, the append
// to the output topic (which carries that determinant, §5.5) is not yet
// made. The dead thread makes the append after the crash; the recovery
// must have waited for it before asking the topic for the determinants.
func TestSinkKilledMidBuffer(t *testing.T) {
	const n = 4000
	world := services.NewExternalWorld()
	cfg := quickConfig(ModeClonos)
	cfg.World = world
	p := newPark()
	sink := kafkasim.NewSinkTopic(true)
	victim := types.TaskID{Vertex: 1, Subtask: 0}
	l := startLingering(t, cfg, n, 4, 4000, func(topic *kafkasim.Topic) *Graph {
		g := NewGraph()
		src := g.AddVertex("src", 1, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 50})
		stamp := operator.NewProcess("stamp", func(ctx operator.Context, _ int, e types.Element) error {
			resp, err := ctx.Services().HTTPGet("audit/log")
			if err != nil {
				return err
			}
			p.pass()
			ctx.Emit(e.Key, e.Timestamp, fmt.Sprintf("%d@%d", e.Value.(int64), binary.BigEndian.Uint64(resp[len(resp)-8:])))
			return nil
		})
		ks := operator.NewKafkaSink("sink", sink)
		ks.ExactlyOnceOutput = true
		sinkV := g.AddVertex("sink", 1, nil, stamp, ks)
		g.Connect(src, sinkV, PartitionHash, nil, nil)
		return g
	})
	p.arm()
	select {
	case <-p.entered:
	case <-time.After(15 * time.Second):
		t.Fatal("sink never parked")
	}
	if err := l.r.InjectFailure(victim); err != nil {
		t.Fatal(err)
	}
	notActivatedWhileParked(t, l.r, victim)
	close(p.release)
	l.finish(t)

	recs := sink.All()
	if len(recs) != n {
		t.Fatalf("published %d records, want %d", len(recs), n)
	}
	seenVal, seenVer := map[int64]bool{}, map[uint64]bool{}
	for _, rec := range recs {
		var v int64
		var ver uint64
		if _, err := fmt.Sscanf(rec.Value.(string), "%d@%d", &v, &ver); err != nil {
			t.Fatalf("bad record %q", rec.Value)
		}
		if seenVal[v] || seenVer[ver] {
			t.Fatalf("record %d or external version %d published twice", v, ver)
		}
		seenVal[v], seenVer[ver] = true, true
	}
	// Every call whose result reached the topic is replayed, not re-issued
	// — including the one the dead thread published after the crash.
	if world.Calls() < n || world.Calls() > n+500 {
		t.Fatalf("external calls = %d for %d records", world.Calls(), n)
	}
}

// TestBlockedOperatorNeverDeclaredFailed: liveness is about crashes, not
// about progress. An operator that blocks its task's main thread for three
// heartbeat bounds is slow, and a slow task must never be declared dead
// (and crashed for good by the recovery that would follow).
func TestBlockedOperatorNeverDeclaredFailed(t *testing.T) {
	const (
		n    = 2000
		keys = 5
	)
	cfg := quickConfig(ModeClonos)
	cfg.HeartbeatTimeout = 100 * time.Millisecond
	var once sync.Once
	block := func() { once.Do(func() { time.Sleep(3 * cfg.HeartbeatTimeout) }) }
	topic := kafkasim.NewTopic("in", 1)
	sink := kafkasim.NewSinkTopic(true)
	fillTopic(topic, n, keys)
	r := runToCompletion(t, hookedLinear(topic, sink, block), cfg, 30*time.Second)
	for _, ev := range r.Events() {
		if ev.Kind == EventFailureDetected {
			t.Fatalf("live task declared failed: %+v", ev)
		}
	}
	for _, e := range r.Errors() {
		t.Errorf("task error: %v", e)
	}
	checkSums(t, finalSums(sink), expectedDeepSums(n, keys), "blocked operator")
}

// TestKillStorm kills a task the moment the previous victim has caught
// up, thirty-odd times, rotating over the source, both stages and the
// sink, with one pair staggered inside a single recovery — no timer
// spaces the failures out any more, so every recovery starts into the
// tail of the previous one. At full DSD all of them must stay local and
// the sink must end with exactly the failure-free multiset. (The audit
// plane is not armed: across the staggered pair a buffer whose only
// receiver died before anything derived from it left that receiver may
// legitimately be re-cut — §5.3, nobody depends on it — which the
// replay-hash invariant would report.)
func TestKillStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("kill storm is long; skipped in -short")
	}
	const (
		keys  = 7
		kills = 32
	)
	cfg := quickConfig(ModeClonos)
	cfg.DSD = 0
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(true)
	g := deepPipeline(topic, sink, 2)
	// A sink has no downstream to hold its determinants; without §5.5's
	// piggybacking on the output its recovery is divergent by design (the
	// interleaving of its two inputs is redrawn), which the idempotent
	// topic absorbs per key but not as an exact multiset.
	g.Vertices[3].Operators[0].(*operator.KafkaSink).ExactlyOnceOutput = true
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	var stop atomic.Bool
	gen := kafkasim.NewGenerator(topic, 5000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i) % keys, Ts: i, Value: i}, !stop.Load()
	})
	gen.Start()
	t.Cleanup(gen.Stop)
	if !r.WaitForCheckpoint(1, 30*time.Second) {
		t.Fatalf("no checkpoint: %v", r.Errors())
	}

	victims := []types.TaskID{
		{Vertex: 0, Subtask: 0}, {Vertex: 1, Subtask: 0}, {Vertex: 2, Subtask: 0}, {Vertex: 3, Subtask: 0},
		{Vertex: 0, Subtask: 1}, {Vertex: 1, Subtask: 1}, {Vertex: 2, Subtask: 1},
	}
	caughtUp := make(map[types.TaskID]int)
	kill := func(id types.TaskID) {
		t.Helper()
		if err := r.InjectFailure(id); err != nil {
			t.Fatal(err)
		}
		caughtUp[id]++
	}
	for k := 0; k < kills; k++ {
		v := victims[k%len(victims)]
		kill(v)
		if k == kills/2 {
			// The staggered pair: the victim's upstream neighbour dies
			// while this recovery is in progress.
			awaitNth(t, r, EventFailureDetected, v, caughtUp[v], 10*time.Second)
			w := victims[(k+len(victims)-1)%len(victims)]
			kill(w)
			awaitNth(t, r, EventCaughtUp, w, caughtUp[w], 30*time.Second)
		}
		awaitNth(t, r, EventCaughtUp, v, caughtUp[v], 30*time.Second)
	}
	stop.Store(true)
	<-gen.Done()
	if !r.WaitFinished(90 * time.Second) {
		t.Fatalf("job did not finish; errors: %v\n%s", r.Errors(), r.DebugString())
	}
	for _, e := range r.Errors() {
		t.Errorf("task error: %v", e)
	}
	assertNoGlobalRestart(t, r)

	// Each key takes one path through the job, so the sink's multiset is
	// the key's running sums, each exactly once.
	n := int(topic.TotalLen())
	type out struct {
		key   uint64
		total int64
	}
	want := make(map[out]int, n)
	running := make(map[uint64]int64)
	for i := 0; i < n; i++ {
		k := uint64(i) % keys
		running[k] += int64(i) + 1
		want[out{k, running[k]}]++
	}
	recs := sink.All()
	if len(recs) != n {
		t.Errorf("sink holds %d records, want %d", len(recs), n)
	}
	for _, rec := range recs {
		want[out{rec.Key, rec.Value.(statefulValue).Total}]--
	}
	bad := 0
	for o, c := range want {
		if c != 0 && bad < 5 {
			t.Errorf("key %d running sum %d: %d missing (negative: extra)", o.key, o.total, c)
			bad++
		}
	}
}

// TestCrashInsideCheckpointCompletion kills a task in the instant between
// the coordinator deciding a checkpoint complete and that completion
// taking effect (marked in the store, logs truncated, standbys fed). The
// recovery must see all of the completion or none: here it waits for it
// and restores the just-completed checkpoint locally, where restoring its
// predecessor under the new truncations would force a global restart.
func TestCrashInsideCheckpointCompletion(t *testing.T) {
	const (
		n    = 4000
		keys = 5
	)
	cfg := quickConfig(ModeClonos)
	aud := audit.New()
	cfg.Audit = aud
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(true)
	r, err := NewRuntime(deepPipeline(topic, sink, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := types.TaskID{Vertex: 2, Subtask: 0}
	const killAt = types.CheckpointID(2)
	r.coord = checkpoint.NewCoordinator(cfg.CheckpointInterval, checkpointTimeout, r.expectedAcks, r.triggerCheckpoint,
		func(cp types.CheckpointID) {
			if cp == killAt {
				if err := r.InjectFailure(victim); err != nil {
					t.Error(err)
				}
				r.WaitForEvent(5*time.Second, func(ev Event) bool {
					return ev.Kind == EventFailureDetected && ev.Task == victim
				})
				// A recovery that does not wait for this callback is
				// running now: give it time to restore the wrong checkpoint.
				time.Sleep(50 * time.Millisecond)
			}
			r.onCheckpointComplete(cp)
		})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	gen := kafkasim.NewGenerator(topic, 5000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i) % keys, Ts: i, Value: i}, i < n
	})
	gen.Start()
	t.Cleanup(gen.Stop)
	if !r.WaitFinished(90 * time.Second) {
		t.Fatalf("job did not finish; errors: %v\n%s", r.Errors(), r.DebugString())
	}
	for _, e := range r.Errors() {
		t.Errorf("task error: %v", e)
	}
	checkSums(t, finalSums(sink), expectedDeepSums(n, keys), "crash inside checkpoint completion")
	assertNoGlobalRestart(t, r)
	if total := aud.Total(); total != 0 {
		t.Errorf("%d audit violations: %v", total, aud.ByInvariant())
	}
	restored := eventsOf(r, EventAuditFingerprint, victim)
	if len(restored) == 0 || !strings.HasPrefix(restored[0].Info, fmt.Sprintf("cp=%d ", killAt)) {
		t.Fatalf("victim restored %v, want the just-completed checkpoint %d", restored, killAt)
	}
}

// TestNodeFailureDeclaresTasksTogether: the tasks of a node die at one
// instant, so one liveness pass must declare all of them before the first
// recovery starts — a recovery may not ask a co-located task that is
// already dead (but not yet declared) for determinants.
func TestNodeFailureDeclaresTasksTogether(t *testing.T) {
	const n = 4000
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(true)
	cfg := quickConfig(ModeClonos)
	cfg.DSD = 0
	cfg.Nodes = 2 // node 0 hosts src[0], sum[0] and the sink: a connected chain
	cfg.StandbyAllocation = AllocAntiAffinity
	r, err := NewRuntime(keySumPipeline(topic, sink, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	gen := kafkasim.NewGenerator(topic, 5000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i) % 5, Ts: i, Value: i}, i < n
	})
	gen.Start()
	t.Cleanup(gen.Stop)
	if !r.WaitForCheckpoint(1, 30*time.Second) {
		t.Fatalf("no checkpoint: %v", r.Errors())
	}
	if err := r.InjectNodeFailure(0); err != nil {
		t.Fatal(err)
	}
	if !r.WaitFinished(90 * time.Second) {
		t.Fatalf("job did not finish; errors: %v", r.Errors())
	}
	for _, e := range r.Errors() {
		t.Errorf("task error: %v", e)
	}
	checkSums(t, finalSums(sink), expectedSums(n, 5), "node failure")
	assertNoGlobalRestart(t, r)
	declared := 0
	for _, ev := range r.Events() {
		switch ev.Kind {
		case EventFailureDetected:
			declared++
		case EventStandbyActivated:
			if declared != 3 {
				t.Fatalf("a recovery activated after %d of the node's 3 tasks were declared", declared)
			}
			return
		}
	}
	t.Fatal("no recovery activated")
}
