package job

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"clonos/internal/codec"
	"clonos/internal/kafkasim"
	"clonos/internal/operator"
	"clonos/internal/services"
	"clonos/internal/types"
)

// enriched is the output of the nondeterministic enrichment operator.
type enriched struct {
	In      int64
	Version uint64 // external-world version observed for this record
	Stamp   int64  // wall-clock read through the Timestamp service
	Rand    int64  // value from the RNG service
}

// enrichedCodec writes the four fields as varints.
type enrichedCodec struct{}

func (e enriched) fields() [4]int64 { return [4]int64{e.In, int64(e.Version), e.Stamp, e.Rand} }

func (enrichedCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	for _, x := range v.(enriched).fields() {
		dst = binary.AppendVarint(dst, x)
	}
	return dst, nil
}
func (enrichedCodec) EncodedSize(v any) (n int) {
	for _, x := range v.(enriched).fields() {
		n += codec.VarintLen(x)
	}
	return n
}
func (enrichedCodec) Decode(b []byte) (any, error) {
	var f [4]int64
	for i := range f {
		x, w := binary.Varint(b)
		if w <= 0 {
			return nil, codec.ErrShortBuffer
		}
		f[i], b = x, b[w:]
	}
	return enriched{In: f[0], Version: uint64(f[1]), Stamp: f[2], Rand: f[3]}, nil
}

func init() { codec.RegisterType(enriched{}, enrichedCodec{}) }

// nondetPipeline builds source -> enrich (HTTP + timestamp + RNG) -> sink.
// The enrichment is genuinely nondeterministic: plain re-execution would
// observe different external versions, timestamps, and random numbers.
func nondetPipeline(topic *kafkasim.Topic, sink *kafkasim.SinkTopic, world *services.ExternalWorld) *Graph {
	g := NewGraph()
	src := g.AddVertex("src", 1, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 50})
	enrich := g.AddVertex("enrich", 1, nil, operator.Map("enrich", func(ctx operator.Context, e types.Element) (any, bool, error) {
		resp, err := ctx.Services().HTTPGet("svc/price")
		if err != nil {
			return nil, false, err
		}
		version := binary.BigEndian.Uint64(resp[len(resp)-8:])
		ts, err := ctx.Services().CurrentTimeMillis()
		if err != nil {
			return nil, false, err
		}
		rnd, err := ctx.Services().RandomInt63()
		if err != nil {
			return nil, false, err
		}
		return enriched{In: e.Value.(int64), Version: version, Stamp: ts, Rand: rnd}, true, nil
	}))
	sinkV := g.AddVertex("sink", 1, nil, operator.NewKafkaSink("sink", sink))
	g.Connect(src, enrich, PartitionHash, nil, nil)
	g.Connect(enrich, sinkV, PartitionHash, nil, nil)
	return g
}

// TestNondeterministicOperatorExactlyOnce is the paper's headline claim:
// a failed nondeterministic operator recovers locally with exactly-once
// semantics — external calls are not re-issued, and the regenerated
// output is identical to what the predecessor produced.
func TestNondeterministicOperatorExactlyOnce(t *testing.T) {
	const n = 3000
	world := services.NewExternalWorld()
	topic := kafkasim.NewTopic("in", 1)
	sink := kafkasim.NewSinkTopic(true)
	g := nondetPipeline(topic, sink, world)
	cfg := quickConfig(ModeClonos)
	cfg.World = world
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	gen := kafkasim.NewGenerator(topic, 3000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i % 4), Ts: i, Value: i}, i < n
	})
	gen.Start()
	defer gen.Stop()

	if !r.WaitForCheckpoint(1, 30*time.Second) {
		t.Fatalf("no checkpoint: %v", r.Errors())
	}
	if err := r.InjectFailure(types.TaskID{Vertex: 1, Subtask: 0}); err != nil {
		t.Fatal(err)
	}
	if !r.WaitFinished(60 * time.Second) {
		t.Fatalf("job did not finish; errors: %v", r.Errors())
	}
	for _, e := range r.Errors() {
		t.Errorf("task error: %v", e)
	}

	recs := sink.All()
	if len(recs) != n {
		t.Fatalf("sink has %d records, want %d", len(recs), n)
	}
	// Exactly-once external interaction: one call per record, except the
	// bounded tail the failed task processed after its last dispatch —
	// those determinants died unshared (no process depends on them,
	// §5.3), so recovery legitimately re-executes the calls.
	if world.Calls() < n {
		t.Fatalf("external world served %d calls, want >= %d", world.Calls(), n)
	}
	if extra := world.Calls() - n; extra > 500 {
		t.Fatalf("recovery re-issued %d calls; logged responses not replayed", extra)
	}
	// No observed result may be consumed twice.
	seen := make(map[uint64]bool, n)
	for _, rec := range recs {
		v := rec.Value.(enriched).Version
		if v == 0 || v > world.Calls() || seen[v] {
			t.Fatalf("version %d duplicated or out of range", v)
		}
		seen[v] = true
	}
	for _, ev := range r.Events() {
		if ev.Kind == EventGlobalRestart {
			t.Fatalf("unexpected global restart: %+v", ev)
		}
	}
}

// procWindowPipeline: source -> processing-time window count -> sink.
// Processing-time windows are nondeterministic (they depend on the local
// clock); Clonos must still deliver every record's effect exactly once.
func procWindowPipeline(topic *kafkasim.Topic, sink *kafkasim.SinkTopic, sizeMs int64) *Graph {
	g := NewGraph()
	src := g.AddVertex("src", 1, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 50})
	win := g.AddVertex("win", 1, nil, operator.Window("pcount",
		operator.WindowSpec{Kind: operator.TumblingProcessingTime, Size: sizeMs}, operator.Count(), false))
	sinkV := g.AddVertex("sink", 1, nil, operator.NewKafkaSink("sink", sink))
	g.Connect(src, win, PartitionHash, nil, nil)
	g.Connect(win, sinkV, PartitionHash, nil, nil)
	return g
}

func TestProcessingTimeWindowSurvivesFailure(t *testing.T) {
	const n = 3000
	topic := kafkasim.NewTopic("in", 1)
	sink := kafkasim.NewSinkTopic(true)
	g := procWindowPipeline(topic, sink, 50)
	cfg := quickConfig(ModeClonos)
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	gen := kafkasim.NewGenerator(topic, 4000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i % 3), Ts: i, Value: i}, i < n
	})
	gen.Start()
	defer gen.Stop()

	if !r.WaitForCheckpoint(1, 30*time.Second) {
		t.Fatalf("no checkpoint: %v", r.Errors())
	}
	if err := r.InjectFailure(types.TaskID{Vertex: 1, Subtask: 0}); err != nil {
		t.Fatal(err)
	}
	if !r.WaitFinished(60 * time.Second) {
		t.Fatalf("job did not finish; errors: %v", r.Errors())
	}
	for _, e := range r.Errors() {
		t.Errorf("task error: %v", e)
	}
	var total int64
	for _, rec := range sink.All() {
		total += rec.Value.(int64)
	}
	if total != n {
		t.Fatalf("window counts sum to %d, want %d (exactly-once violated)", total, n)
	}
}

// deepPipeline: src(p) -> s1(p) -> s2(p) -> sink(1), keyed sums at both
// middle stages so state correctness is observable end to end.
func deepPipeline(topic *kafkasim.Topic, sink *kafkasim.SinkTopic, p int) *Graph {
	g := NewGraph()
	src := g.AddVertex("src", p, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 25})
	s1 := g.AddVertex("s1", p, nil, operator.Map("add1", func(ctx operator.Context, e types.Element) (any, bool, error) {
		return e.Value.(int64) + 1, true, nil
	}))
	s2 := g.AddVertex("s2", p, nil, operator.KeyedReduce("sum", func(ctx operator.Context, acc any, e types.Element) (any, error) {
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

// slowDeepPipeline is deepPipeline with a per-record processing delay in
// the keyed stage. With the generator outrunning s2's service rate the
// input channels carry a standing backlog, so unaligned capture windows
// opened by the fault sweep log real in-flight buffers instead of
// draining an empty queue. Same oracle as deepPipeline.
func slowDeepPipeline(topic *kafkasim.Topic, sink *kafkasim.SinkTopic, p int, delay time.Duration) *Graph {
	g := NewGraph()
	src := g.AddVertex("src", p, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 25})
	s1 := g.AddVertex("s1", p, nil, operator.Map("add1", func(ctx operator.Context, e types.Element) (any, bool, error) {
		return e.Value.(int64) + 1, true, nil
	}))
	s2 := g.AddVertex("s2", p, nil, operator.KeyedReduce("sum", func(ctx operator.Context, acc any, e types.Element) (any, error) {
		time.Sleep(delay)
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

func expectedDeepSums(n int, keys uint64) map[uint64]int64 {
	out := make(map[uint64]int64)
	for i := 0; i < n; i++ {
		out[uint64(i)%keys] += int64(i) + 1
	}
	return out
}

// runDeepFailure runs the deep pipeline, waits for a checkpoint, applies
// the failure plan, and returns final sums.
func runDeepFailure(t *testing.T, cfg Config, n int, keys uint64, plan func(r *Runtime)) (map[uint64]int64, *Runtime) {
	t.Helper()
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(cfg.Guarantee == ExactlyOnce || cfg.Mode == ModeGlobal)
	g := deepPipeline(topic, sink, 2)
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)

	gen := kafkasim.NewGenerator(topic, 5000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i) % keys, Ts: i, Value: i}, i < int64(n)
	})
	gen.Start()
	t.Cleanup(gen.Stop)

	if !r.WaitForCheckpoint(1, 30*time.Second) {
		t.Fatalf("no checkpoint: %v; goroutines:\n%s", r.Errors(), allStacks())
	}
	plan(r)
	if !r.WaitFinished(90 * time.Second) {
		t.Fatalf("job did not finish; errors: %v events: %v; goroutines:\n%s", r.Errors(), r.Events(), allStacks())
	}
	for _, e := range r.Errors() {
		t.Errorf("task error: %v", e)
	}
	return finalSums(sink), r
}

func TestSourceFailureRecovery(t *testing.T) {
	const n = 4000
	sums, r := runDeepFailure(t, quickConfig(ModeClonos), n, 5, func(r *Runtime) {
		if err := r.InjectFailure(types.TaskID{Vertex: 0, Subtask: 1}); err != nil {
			t.Fatal(err)
		}
	})
	checkSums(t, sums, expectedDeepSums(n, 5), "source failure")
	for _, ev := range r.Events() {
		if ev.Kind == EventGlobalRestart {
			t.Fatalf("unexpected global restart: %+v", ev)
		}
	}
}

func TestSinkFailureRecovery(t *testing.T) {
	const n = 4000
	sums, _ := runDeepFailure(t, quickConfig(ModeClonos), n, 5, func(r *Runtime) {
		if err := r.InjectFailure(types.TaskID{Vertex: 3, Subtask: 0}); err != nil {
			t.Fatal(err)
		}
	})
	checkSums(t, sums, expectedDeepSums(n, 5), "sink failure")
}

func TestStaggeredFailures(t *testing.T) {
	const n = 6000
	cfg := quickConfig(ModeClonos)
	sums, r := runDeepFailure(t, cfg, n, 5, func(r *Runtime) {
		first := types.TaskID{Vertex: 1, Subtask: 0}
		if err := r.InjectFailure(first); err != nil {
			t.Fatal(err)
		}
		// Staggered: the second failure lands inside the first one's
		// recovery — once its standby is activated, i.e. its determinants
		// are retrieved. (At DSD 1 the second victim is their holder: were
		// it to die between declaration and retrieval, that would be the
		// connected-concurrent case, which may legitimately fall back.)
		if !r.WaitForEvent(15*time.Second, func(ev Event) bool {
			return ev.Kind == EventStandbyActivated && ev.Task == first
		}) {
			t.Fatal("first failure never recovered")
		}
		if err := r.InjectFailure(types.TaskID{Vertex: 2, Subtask: 1}); err != nil {
			t.Fatal(err)
		}
	})
	checkSums(t, sums, expectedDeepSums(n, 5), "staggered failures")
	for _, ev := range r.Events() {
		if ev.Kind == EventGlobalRestart {
			t.Fatalf("unexpected global restart: %+v", ev)
		}
	}
}

func TestConcurrentConnectedFailuresFullDSD(t *testing.T) {
	const n = 6000
	cfg := quickConfig(ModeClonos)
	cfg.DSD = 0 // full: determinants survive consecutive failures
	sums, r := runDeepFailure(t, cfg, n, 5, func(r *Runtime) {
		// Connected dataflow: s1[0] feeds s2[0] (hash shuffle). Concurrent
		// means both are down before either is declared.
		r.crashAll([]types.TaskID{{Vertex: 1, Subtask: 0}, {Vertex: 2, Subtask: 0}}, "")
	})
	checkSums(t, sums, expectedDeepSums(n, 5), "concurrent failures")
	for _, ev := range r.Events() {
		if ev.Kind == EventGlobalRestart {
			t.Fatalf("unexpected global restart with full DSD: %+v", ev)
		}
	}
}

func TestConcurrentConnectedFailuresShallowDSDFallsBack(t *testing.T) {
	const n = 6000
	cfg := quickConfig(ModeClonos)
	cfg.DSD = 1 // too shallow for two consecutive failures
	sums, r := runDeepFailure(t, cfg, n, 5, func(r *Runtime) {
		r.crashAll([]types.TaskID{{Vertex: 1, Subtask: 0}, {Vertex: 2, Subtask: 0}}, "")
	})
	// Consistency is preserved by falling back to a global rollback.
	checkSums(t, sums, expectedDeepSums(n, 5), "shallow DSD fallback")
	sawFallback := false
	for _, ev := range r.Events() {
		if ev.Kind == EventGlobalRestart || ev.Kind == EventOrphanFallback {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Log("note: failures resolved without fallback (downstream had not consumed the epoch)")
	}
}

func TestGlobalModeFailureRecovery(t *testing.T) {
	const n = 4000
	sums, r := runDeepFailure(t, quickConfig(ModeGlobal), n, 5, func(r *Runtime) {
		if err := r.InjectFailure(types.TaskID{Vertex: 1, Subtask: 0}); err != nil {
			t.Fatal(err)
		}
	})
	checkSums(t, sums, expectedDeepSums(n, 5), "global rollback")
	sawRestart := false
	for _, ev := range r.Events() {
		if ev.Kind == EventGlobalRestart {
			sawRestart = true
		}
	}
	if !sawRestart {
		t.Fatal("global mode recovered without a global restart")
	}
}

func TestAtLeastOnceAllowsDuplicatesButNoLoss(t *testing.T) {
	const n = 4000
	cfg := quickConfig(ModeClonos)
	cfg.Guarantee = AtLeastOnce
	sums, _ := runDeepFailure(t, cfg, n, 5, func(r *Runtime) {
		if err := r.InjectFailure(types.TaskID{Vertex: 2, Subtask: 0}); err != nil {
			t.Fatal(err)
		}
	})
	want := expectedDeepSums(n, 5)
	for k, w := range want {
		if sums[k] < w {
			t.Errorf("at-least-once lost data: key %d sum %d < %d", k, sums[k], w)
		}
	}
}

func TestAtMostOnceAllowsLossButNoDuplicates(t *testing.T) {
	const n = 4000
	cfg := quickConfig(ModeClonos)
	cfg.Guarantee = AtMostOnce
	sums, _ := runDeepFailure(t, cfg, n, 5, func(r *Runtime) {
		if err := r.InjectFailure(types.TaskID{Vertex: 2, Subtask: 0}); err != nil {
			t.Fatal(err)
		}
	})
	want := expectedDeepSums(n, 5)
	for k, w := range want {
		if sums[k] > w {
			t.Errorf("at-most-once duplicated data: key %d sum %d > %d", k, sums[k], w)
		}
	}
}

func TestFailureBeforeFirstCheckpoint(t *testing.T) {
	const n = 3000
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(true)
	g := keySumPipeline(topic, sink, 2)
	cfg := quickConfig(ModeClonos)
	cfg.CheckpointInterval = 10 * time.Second // effectively never during the run
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	gen := kafkasim.NewGenerator(topic, 4000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i) % 5, Ts: i, Value: i}, i < n
	})
	gen.Start()
	defer gen.Stop()

	time.Sleep(200 * time.Millisecond)
	if err := r.InjectFailure(types.TaskID{Vertex: 1, Subtask: 1}); err != nil {
		t.Fatal(err)
	}
	if !r.WaitFinished(60 * time.Second) {
		t.Fatalf("job did not finish; errors: %v", r.Errors())
	}
	for _, e := range r.Errors() {
		t.Errorf("task error: %v", e)
	}
	checkSums(t, finalSums(sink), expectedSums(n, 5), "failure before first checkpoint")
}

func TestRepeatedFailuresSameTask(t *testing.T) {
	const n = 8000
	cfg := quickConfig(ModeClonos)
	sums, _ := runDeepFailure(t, cfg, n, 5, func(r *Runtime) {
		for round := 0; round < 3; round++ {
			next := r.LatestCompletedCheckpoint() + 1
			if err := r.InjectFailure(types.TaskID{Vertex: 2, Subtask: 0}); err != nil {
				t.Fatal(err)
			}
			// A checkpoint completing after the injection proves the job
			// recovered and made progress; only then inject the next one.
			if !r.WaitForCheckpoint(next, 15*time.Second) {
				t.Fatalf("no checkpoint after failure round %d: %v", round, r.Errors())
			}
		}
	})
	checkSums(t, sums, expectedDeepSums(n, 5), "repeated failures")
}

func TestEventsRecorded(t *testing.T) {
	const n = 2000
	_, r := runDeepFailure(t, quickConfig(ModeClonos), n, 3, func(r *Runtime) {
		if err := r.InjectFailure(types.TaskID{Vertex: 1, Subtask: 0}); err != nil {
			t.Fatal(err)
		}
	})
	var kinds []EventKind
	for _, ev := range r.Events() {
		kinds = append(kinds, ev.Kind)
	}
	for _, want := range []EventKind{EventFailureInjected, EventFailureDetected, EventStandbyActivated, EventCheckpointDone} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("event %s missing from %v", want, kinds)
		}
	}
}

func TestTaskRecordCounts(t *testing.T) {
	const n = 500
	topic := kafkasim.NewTopic("in", 1)
	sink := kafkasim.NewSinkTopic(true)
	fillTopic(topic, n, 3)
	g := buildLinear(topic, sink, 1)
	r := runToCompletion(t, g, quickConfig(ModeClonos), 30*time.Second)
	in, _ := r.TaskRecordCounts(types.VertexID(1))
	if in != n {
		t.Fatalf("map stage consumed %d records, want %d", in, n)
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits

// TestFailureDuringRecovery kills a task, then kills its just-activated
// standby while the standby is still in causally guided replay: the
// liveness loop must declare the second crash (a recovering task is not
// exempt from detection) and recover again, preserving exactly-once.
func TestFailureDuringRecovery(t *testing.T) {
	const n = 6000
	cfg := quickConfig(ModeClonos)
	sums, _ := runDeepFailure(t, cfg, n, 5, func(r *Runtime) {
		victim := types.TaskID{Vertex: 2, Subtask: 0}
		if err := r.InjectFailure(victim); err != nil {
			t.Fatal(err)
		}
		// Wait for the standby to activate, then kill it immediately —
		// with high probability mid-replay.
		if !r.WaitForEvent(15*time.Second, func(ev Event) bool {
			return ev.Kind == EventStandbyActivated && ev.Task == victim
		}) {
			t.Fatal("standby never activated")
		}
		if err := r.InjectFailure(victim); err != nil {
			t.Fatal(err)
		}
	})
	checkSums(t, sums, expectedDeepSums(n, 5), "failure during recovery")
}
