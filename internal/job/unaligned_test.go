package job

// Tests for Config.AlignmentBudget, the one checkpoint-alignment knob:
// conversion to unaligned capture under sustained backpressure at budgets
// 0 and 2ms, recovery from a snapshot carrying an in-flight section
// (audit-armed, so any seq/epoch/hash divergence the logged-buffer replay
// introduced would surface), the budget honoured by an idle task, and the
// credit an alignment-blocked channel keeps at the default budget.

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"clonos/internal/audit"
	"clonos/internal/kafkasim"
	"clonos/internal/netstack"
	"clonos/internal/obs"
	"clonos/internal/operator"
	"clonos/internal/types"
)

// slowKeySumPipeline is keySumPipeline with a per-record processing delay
// in the reduce stage, so a fast generator keeps its input queues loaded —
// the sustained-backpressure regime where barrier alignment stalls and
// unaligned capture has genuine in-flight data to log.
func slowKeySumPipeline(topic *kafkasim.Topic, sink *kafkasim.SinkTopic, p int, delay time.Duration) *Graph {
	g := NewGraph()
	src := g.AddVertex("src", p, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 25})
	sum := g.AddVertex("sum", p, nil, operator.KeyedReduce("sum", func(ctx operator.Context, acc any, e types.Element) (any, error) {
		time.Sleep(delay)
		s, _ := acc.(statefulValue)
		s.Total += e.Value.(int64)
		return s, nil
	}))
	sinkV := g.AddVertex("sink", 1, nil, operator.NewKafkaSink("sink", sink))
	g.Connect(src, sum, PartitionHash, nil, nil)
	g.Connect(sum, sinkV, PartitionHash, nil, nil)
	return g
}

// sumCounter folds a per-subtask counter family over a vertex.
func sumCounter(reg *obs.Registry, name, vertex string, p int) uint64 {
	var total uint64
	for s := 0; s < p; s++ {
		total += reg.Counter(name, "", obs.Labels{"vertex": vertex, "subtask": strconv.Itoa(s)}).Value()
	}
	return total
}

// startOverloaded starts the overloaded pipeline at the given alignment
// budget and feeds it n records over keys keys. Small buffers and little
// credit keep a captured checkpoint short: it completes once the pending
// barriers drain through full queues.
func startOverloaded(t *testing.T, budget time.Duration, seed int64, n, keys int64, aud *audit.Auditor) (*Runtime, *kafkasim.SinkTopic) {
	t.Helper()
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(true)
	g := slowKeySumPipeline(topic, sink, 2, 150*time.Microsecond)
	cfg := quickConfig(ModeClonos)
	cfg.AlignmentBudget = budget
	cfg.BufferSize = 1024
	cfg.EndpointCredit = 4
	cfg.ServiceSeed = seed
	cfg.Audit = aud
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)

	gen := kafkasim.NewGenerator(topic, 20000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i % keys), Ts: i, Value: i}, i < n
	})
	gen.Start()
	t.Cleanup(gen.Stop) // runs before r.Stop
	return r, sink
}

// TestUnalignedBackpressureRecovery runs checkBudgetConversion at budget
// 0: every alignment converts at its first barrier.
func TestUnalignedBackpressureRecovery(t *testing.T) {
	checkBudgetConversion(t, 0, 7)
}

// TestAlignmentBudgetConversion runs checkBudgetConversion at a 2ms
// budget: a stuck alignment converts once the budget runs out.
func TestAlignmentBudgetConversion(t *testing.T) {
	checkBudgetConversion(t, 2*time.Millisecond, 11)
}

// checkBudgetConversion drives the overloaded pipeline at the budget,
// waits for checkpoints whose snapshots carry logged in-flight input,
// then kills a reduce task so recovery restores one — the preloaded
// buffers replay into the deserializer before live input resumes. The
// armed audit plane turns any divergence the logged replay could
// introduce (lost/duplicated buffers, reordered seqs, state drift) into a
// failure, and the final sums pin exactly-once end to end.
func checkBudgetConversion(t *testing.T, budget time.Duration, seed int64) {
	// Sized so the overloaded reduce stage stays busy past checkpoint 2:
	// a too-short run finishes first and the reduce tasks drop out of the
	// ack set with no snapshot to inspect.
	const (
		n    = 4000
		keys = 7
	)
	aud := audit.New()
	r, sink := startOverloaded(t, budget, seed, n, keys, aud)

	if !r.WaitForCheckpoint(2, 30*time.Second) {
		t.Fatalf("no checkpoint completed: %v", r.Errors())
	}
	// The completed checkpoint's reduce-task snapshots must exist; under
	// this load at least one carries a logged in-flight section.
	cp := r.LatestCompletedCheckpoint()
	inflight := 0
	for s := int32(0); s < 2; s++ {
		snap, ok := r.snaps.Get(cp, types.TaskID{Vertex: 1, Subtask: s})
		if !ok {
			t.Fatalf("no snapshot for sum[%d] at completed cp %d", s, cp)
		}
		inflight += len(snap.InFlight)
	}
	if inflight == 0 {
		t.Errorf("cp %d: no reduce-task snapshot carries an in-flight section under backpressure", cp)
	}

	victim := types.TaskID{Vertex: 1, Subtask: 0}
	if err := r.InjectFailure(victim); err != nil {
		t.Fatal(err)
	}
	if !r.WaitFinished(90 * time.Second) {
		t.Fatalf("job did not finish after recovery; errors: %v\n%s", r.Errors(), r.DebugString())
	}
	for _, e := range r.Errors() {
		t.Errorf("task error: %v", e)
	}
	checkSums(t, finalSums(sink), expectedSums(n, keys), "after unaligned recovery")
	if v := aud.Total(); v != 0 {
		t.Errorf("audit plane detected %d violation(s) after logged-buffer replay: %v", v, aud.ByInvariant())
	}
	converted := false
	for _, ev := range r.Events() {
		if ev.Kind == EventUnalignedSnapshot {
			converted = true
			break
		}
	}
	if !converted {
		t.Errorf("no alignment converted to unaligned capture at budget %v under overload", budget)
	}
	if b := sumCounter(r.Obs(), "clonos_checkpoint_inflight_logged_bytes_total", "sum", 2); b == 0 {
		t.Error("no in-flight bytes logged by the reduce tasks under backpressure")
	}
}

// TestUnalignedStallBudget is the bench-smoke pin for the overloaded
// scenario at budget 0: checkpoints must complete WITHOUT ever gating an
// input channel, and the alignment time collapses to the first-barrier
// handling cost. An aligned run under this load blocks channels for the
// whole barrier skew; the pinned bound is what conversion buys.
func TestUnalignedStallBudget(t *testing.T) {
	const (
		n    = 4000
		keys = 5
	)
	r, sink := startOverloaded(t, 0, 13, n, keys, nil)

	if !r.WaitForCheckpoint(1, 30*time.Second) {
		t.Fatalf("no checkpoint completed under overload: %v", r.Errors())
	}
	if !r.WaitFinished(60 * time.Second) {
		t.Fatalf("job did not finish; errors: %v", r.Errors())
	}
	checkSums(t, finalSums(sink), expectedSums(n, keys), "overloaded budget-0 run")

	reg := r.Obs()
	for s := 0; s < 2; s++ {
		lbl := obs.Labels{"vertex": "sum", "subtask": strconv.Itoa(s)}
		if c := reg.Histogram("clonos_checkpoint_blocked_channel_seconds", "", obs.DefDurationBuckets, lbl).Count(); c != 0 {
			t.Errorf("sum[%d]: %d channel-blocked observations; budget 0 must never gate a channel", s, c)
		}
		h := reg.Histogram("clonos_checkpoint_align_seconds", "", obs.DefDurationBuckets, lbl)
		if cnt := h.Count(); cnt > 0 {
			// Mean first-barrier-to-snapshot time must stay far below the
			// multi-hundred-ms barrier skew an aligned run pays here.
			if mean := h.Sum() / float64(cnt); mean > 0.05 {
				t.Errorf("sum[%d]: mean alignment stall %.3fs exceeds the 50ms budget-0 bound", s, mean)
			}
		}
	}
}

// TestAlignmentBudgetWhileIdle pins the budget on a task with nothing to
// do: join's channel from fast is gated at credit behind fast's barrier,
// and the barrier on its other channel is stuck behind a record the stuck
// stage never finishes, so nothing wakes join. Its park must end when the
// budget does, not after the idle park, or the alignment converts late.
func TestAlignmentBudgetWhileIdle(t *testing.T) {
	const budget = 20 * time.Millisecond
	topicA := kafkasim.NewTopic("a", 1)
	topicB := kafkasim.NewTopic("b", 1)
	topicB.Append(kafkasim.Record{Key: 1, Ts: 0, Value: int64(0)})
	release := make(chan struct{})
	g := NewGraph()
	fast := g.AddVertex("fast", 1, &operator.KafkaSource{SourceName: "a", Topic: topicA, WatermarkEvery: 25})
	slow := g.AddVertex("slow", 1, &operator.KafkaSource{SourceName: "b", Topic: topicB, WatermarkEvery: 25})
	stuck := g.AddVertex("stuck", 1, nil, operator.Map("stuck", func(ctx operator.Context, e types.Element) (any, bool, error) {
		<-release
		return e.Value, true, nil
	}))
	join := g.AddVertex("join", 1, nil, operator.NewProcess("join", func(operator.Context, int, types.Element) error { return nil }))
	g.Connect(fast, join, PartitionHash, nil, nil)
	g.Connect(slow, stuck, PartitionHash, nil, nil)
	g.Connect(stuck, join, PartitionHash, nil, nil)

	cfg := quickConfig(ModeClonos)
	cfg.AlignmentBudget = budget
	cfg.EndpointCredit = 2
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	defer close(release) // before Stop: the stuck stage must let go
	gen := kafkasim.NewGenerator(topicA, 20000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i), Ts: i, Value: i}, true
	})
	gen.Start()
	defer gen.Stop()

	isJoin := func(ev Event) bool { return ev.Kind == EventUnalignedSnapshot && ev.Task.Vertex == join.ID }
	if !r.WaitForEvent(10*time.Second, isJoin) {
		t.Fatalf("join never converted its alignment: %v", r.Errors())
	}
	h := r.Obs().Histogram("clonos_checkpoint_align_seconds", "", obs.DefDurationBuckets,
		obs.Labels{"vertex": "join", "subtask": "0"})
	if h.Count() == 0 {
		t.Fatal("conversion observed no alignment time")
	}
	if mean := time.Duration(h.Sum() / float64(h.Count()) * float64(time.Second)); mean > 2*budget {
		t.Errorf("idle join converted after %v on average, want within 2x the %v budget", mean, budget)
	}
}

// TestAlignmentKeepsCredit runs the fan-in pipeline under overload with
// two buffers of credit at the default budget: alignments gate channels
// that are at credit, their senders park, and checkpoints still complete
// with exact sums. No endpoint queue may ever hold more than its credit —
// a blocked channel is a slow receiver, not an unbounded buffer.
func TestAlignmentKeepsCredit(t *testing.T) {
	const (
		n      = 6000
		keys   = 5
		credit = 2
	)
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(true)
	g := slowKeySumPipeline(topic, sink, 2, 150*time.Microsecond)
	cfg := quickConfig(ModeClonos)
	cfg.EndpointCredit = credit
	cfg.ServiceSeed = 17
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	r.mu.Lock()
	var eps []*netstack.Endpoint
	for _, task := range r.tasks {
		for _, id := range task.inIDs {
			eps = append(eps, r.net.Endpoint(id))
		}
	}
	r.mu.Unlock()
	stop := make(chan struct{})
	defer close(stop)
	var maxLen, samples atomic.Int64
	go func() {
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for _, ep := range eps {
				if l := int64(ep.Len()); l > maxLen.Load() {
					maxLen.Store(l)
				}
			}
			samples.Add(1)
		}
	}()

	gen := kafkasim.NewGenerator(topic, 20000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i) % keys, Ts: i, Value: i}, i < n
	})
	gen.Start()
	defer gen.Stop()

	if !r.WaitForCheckpoint(3, 30*time.Second) {
		t.Fatalf("fewer than 3 checkpoints completed: %v\n%s", r.Errors(), r.DebugString())
	}
	if !r.WaitFinished(60 * time.Second) {
		t.Fatalf("job did not finish; errors: %v\n%s", r.Errors(), r.DebugString())
	}
	for _, e := range r.Errors() {
		t.Errorf("task error: %v", e)
	}
	checkSums(t, finalSums(sink), expectedSums(n, keys), "aligned run at credit")
	if m := maxLen.Load(); m > credit {
		t.Errorf("an endpoint queue held %d buffers (credit %d, %d samples)", m, credit, samples.Load())
	}
	blocked := uint64(0)
	for s := 0; s < 2; s++ {
		lbl := obs.Labels{"vertex": "sum", "subtask": strconv.Itoa(s)}
		blocked += r.Obs().Histogram("clonos_checkpoint_blocked_channel_seconds", "", obs.DefDurationBuckets, lbl).Count()
	}
	if blocked == 0 {
		t.Error("no channel was gated: the run never exercised an alignment")
	}
	for _, ev := range r.Events() {
		if ev.Kind == EventUnalignedSnapshot {
			t.Errorf("alignment converted at the default budget: %v", ev)
		}
	}
}
