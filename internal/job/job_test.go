package job

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"clonos/internal/codec"
	"clonos/internal/kafkasim"
	"clonos/internal/operator"
	"clonos/internal/types"
)

// fillTopic loads n records with key i%keys and ts = base+i into a topic.
func fillTopic(topic *kafkasim.Topic, n int, keys uint64) {
	base := time.Now().UnixMilli()
	for i := 0; i < n; i++ {
		topic.Append(kafkasim.Record{Key: uint64(i) % keys, Ts: base + int64(i), Value: int64(i)})
	}
	topic.Close()
}

// buildLinear builds source(p) -> double(p) -> sink(1) over a topic.
func buildLinear(topic *kafkasim.Topic, sink *kafkasim.SinkTopic, p int) *Graph {
	g := NewGraph()
	src := g.AddVertex("src", p, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 10})
	double := g.AddVertex("double", p, nil, operator.Map("double", func(ctx operator.Context, e types.Element) (any, bool, error) {
		return e.Value.(int64) * 2, true, nil
	}))
	sinkV := g.AddVertex("sink", 1, nil, operator.NewKafkaSink("sink", sink))
	g.Connect(src, double, PartitionHash, nil, nil)
	g.Connect(double, sinkV, PartitionHash, nil, nil)
	return g
}

func quickConfig(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.CheckpointInterval = 150 * time.Millisecond
	cfg.HeartbeatTimeout = 200 * time.Millisecond
	cfg.LogPoolBuffers = 128
	return cfg
}

func runToCompletion(t *testing.T, g *Graph, cfg Config, timeout time.Duration) *Runtime {
	t.Helper()
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	if !r.WaitFinished(timeout) {
		for _, e := range r.Errors() {
			t.Logf("task error: %v", e)
		}
		t.Fatalf("job did not finish; goroutines:\n%s", allStacks())
	}
	return r
}

// allStacks returns every goroutine's stack: a job test that times out
// reports where each thread waits.
func allStacks() string {
	buf := make([]byte, 4<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

func sumSink(sink *kafkasim.SinkTopic) (count int, sum int64) {
	for _, rec := range sink.All() {
		count++
		sum += rec.Value.(int64)
	}
	return count, sum
}

func TestLinearPipelineCompletes(t *testing.T) {
	const n = 500
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(true)
	fillTopic(topic, n, 7)
	g := buildLinear(topic, sink, 2)
	runToCompletion(t, g, quickConfig(ModeClonos), 30*time.Second)

	count, sum := sumSink(sink)
	if count != n {
		t.Fatalf("sink has %d records, want %d", count, n)
	}
	want := int64(n*(n-1)) / 2 * 2
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestLinearPipelineGlobalMode(t *testing.T) {
	const n = 400
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(true)
	fillTopic(topic, n, 5)
	g := buildLinear(topic, sink, 2)
	runToCompletion(t, g, quickConfig(ModeGlobal), 30*time.Second)
	if count, _ := sumSink(sink); count != n {
		t.Fatalf("sink has %d records, want %d", count, n)
	}
}

func TestCheckpointsComplete(t *testing.T) {
	topic := kafkasim.NewTopic("in", 1)
	sink := kafkasim.NewSinkTopic(true)
	g := buildLinear(topic, sink, 1)
	cfg := quickConfig(ModeClonos)
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// Keep the job alive by trickling data.
	gen := kafkasim.NewGenerator(topic, 2000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i % 3), Ts: time.Now().UnixMilli(), Value: i}, i < 5000
	})
	gen.Start()
	defer gen.Stop()

	if !r.WaitForCheckpoint(3, 10*time.Second) {
		t.Fatalf("only %d checkpoints completed; errors: %v", r.LatestCompletedCheckpoint(), r.Errors())
	}
}

// windowPipeline: source -> tumbling event-time count per key -> sink.
func windowPipeline(topic *kafkasim.Topic, sink *kafkasim.SinkTopic, p int) *Graph {
	g := NewGraph()
	src := g.AddVertex("src", p, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 10})
	win := g.AddVertex("win", p, nil, operator.Window("count", operator.WindowSpec{Kind: operator.TumblingEventTime, Size: 100}, operator.Count(), false))
	sinkV := g.AddVertex("sink", 1, nil, operator.NewKafkaSink("sink", sink))
	g.Connect(src, win, PartitionHash, nil, nil)
	g.Connect(win, sinkV, PartitionHash, nil, nil)
	return g
}

func TestTumblingWindowPipeline(t *testing.T) {
	topic := kafkasim.NewTopic("in", 1)
	sink := kafkasim.NewSinkTopic(true)
	// 10 windows x 100 records with deterministic event times.
	for i := 0; i < 1000; i++ {
		topic.Append(kafkasim.Record{Key: uint64(i % 4), Ts: int64(i), Value: int64(i)})
	}
	topic.Close()
	g := windowPipeline(topic, sink, 2)
	runToCompletion(t, g, quickConfig(ModeClonos), 30*time.Second)

	var total int64
	for _, rec := range sink.All() {
		total += rec.Value.(int64)
	}
	if total != 1000 {
		t.Fatalf("window counts sum to %d, want 1000", total)
	}
}

func TestGraphValidate(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("a", 2, &operator.KafkaSource{SourceName: "s", Topic: kafkasim.NewTopic("x", 1)})
	b := g.AddVertex("b", 3, nil, operator.Map("m", func(ctx operator.Context, e types.Element) (any, bool, error) { return e.Value, true, nil }))
	g.Connect(a, b, PartitionForward, nil, nil)
	if err := g.Validate(); err == nil {
		t.Fatal("forward edge with mismatched parallelism accepted")
	}
}

func TestGraphDepth(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("a", 1, &operator.KafkaSource{SourceName: "s", Topic: kafkasim.NewTopic("x", 1)})
	b := g.AddVertex("b", 1, nil)
	c := g.AddVertex("c", 1, nil)
	g.Connect(a, b, PartitionHash, nil, nil)
	g.Connect(b, c, PartitionHash, nil, nil)
	if d := g.Depth(); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
}

func TestGraphDownstream(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("a", 1, &operator.KafkaSource{SourceName: "s", Topic: kafkasim.NewTopic("x", 1)})
	b := g.AddVertex("b", 2, nil)
	c := g.AddVertex("c", 1, nil)
	g.Connect(a, b, PartitionHash, nil, nil)
	g.Connect(b, c, PartitionHash, nil, nil)
	one := g.Downstream(types.TaskID{Vertex: a.ID}, 1)
	if len(one) != 2 {
		t.Fatalf("1 hop = %v", one)
	}
	two := g.Downstream(types.TaskID{Vertex: a.ID}, 2)
	if len(two) != 3 {
		t.Fatalf("2 hops = %v", two)
	}
}

// statefulValue is a state value used by the failure tests.
type statefulValue struct{ Total int64 }

type statefulValueCodec struct{}

func (statefulValueCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	return binary.AppendVarint(dst, v.(statefulValue).Total), nil
}
func (statefulValueCodec) EncodedSize(v any) int { return codec.VarintLen(v.(statefulValue).Total) }
func (statefulValueCodec) Decode(b []byte) (any, error) {
	n, err := codec.Int64Codec{}.Decode(b)
	if err != nil {
		return nil, err
	}
	return statefulValue{Total: n.(int64)}, nil
}

func init() { codec.RegisterType(statefulValue{}, statefulValueCodec{}) }

// keySumPipeline: source -> keyed running sum -> sink; the sum operator
// holds state that must survive failures exactly-once.
func keySumPipeline(topic *kafkasim.Topic, sink *kafkasim.SinkTopic, p int) *Graph {
	g := NewGraph()
	src := g.AddVertex("src", p, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 25})
	sum := g.AddVertex("sum", p, nil, operator.KeyedReduce("sum", func(ctx operator.Context, acc any, e types.Element) (any, error) {
		s, _ := acc.(statefulValue)
		s.Total += e.Value.(int64)
		return s, nil
	}))
	sinkV := g.AddVertex("sink", 1, nil, operator.NewKafkaSink("sink", sink))
	g.Connect(src, sum, PartitionHash, nil, nil)
	g.Connect(sum, sinkV, PartitionHash, nil, nil)
	return g
}

// finalSums extracts, per key, the last emitted running sum.
func finalSums(sink *kafkasim.SinkTopic) map[uint64]int64 {
	out := make(map[uint64]int64)
	for _, rec := range sink.All() {
		out[rec.Key] = rec.Value.(statefulValue).Total
	}
	return out
}

func expectedSums(n int, keys uint64) map[uint64]int64 {
	out := make(map[uint64]int64)
	for i := 0; i < n; i++ {
		out[uint64(i)%keys] += int64(i)
	}
	return out
}

func checkSums(t *testing.T, got, want map[uint64]int64, context string) {
	t.Helper()
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: key %d sum = %d, want %d", context, k, got[k], w)
		}
	}
}

func TestLocalRecoverySingleFailure(t *testing.T) {
	const n = 4000
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(true)
	g := keySumPipeline(topic, sink, 2)
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
		return kafkasim.Record{Key: uint64(i) % 5, Ts: i, Value: i}, i < n
	})
	gen.Start()
	defer gen.Stop()

	// Let at least one checkpoint complete, then kill a middle task.
	if !r.WaitForCheckpoint(1, 30*time.Second) {
		t.Fatalf("no checkpoint completed: %v", r.Errors())
	}
	victim := types.TaskID{Vertex: 1, Subtask: 0}
	if err := r.InjectFailure(victim); err != nil {
		t.Fatal(err)
	}

	if !r.WaitFinished(60 * time.Second) {
		t.Fatalf("job did not finish after recovery; errors: %v, events: %v", r.Errors(), r.Events())
	}
	for _, e := range r.Errors() {
		t.Errorf("task error: %v", e)
	}
	// Exactly-once: final per-key sums match a failure-free run.
	checkSums(t, finalSums(sink), expectedSums(n, 5), "after local recovery")
	// The recovery must have used the standby path, not a global restart.
	for _, ev := range r.Events() {
		if ev.Kind == EventGlobalRestart {
			t.Fatalf("unexpected global restart: %v", ev)
		}
	}
}
