package job

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clonos/internal/kafkasim"
	"clonos/internal/obs"
	"clonos/internal/operator"
	"clonos/internal/types"
)

// probe is the operator of a sink vertex that records the values reaching
// it in arrival order, and when each arrived.
type probe struct {
	mu      sync.Mutex
	vals    []int64
	at      []time.Time
	arrived chan struct{} // signalled (capacity 1) on every arrival
}

func newProbe() *probe { return &probe{arrived: make(chan struct{}, 1)} }

func (p *probe) op() operator.Operator {
	return operator.Map("probe", func(_ operator.Context, e types.Element) (any, bool, error) {
		p.mu.Lock()
		p.vals = append(p.vals, e.Value.(int64))
		p.at = append(p.at, time.Now())
		p.mu.Unlock()
		select {
		case p.arrived <- struct{}{}:
		default:
		}
		return nil, false, nil
	})
}

// waitFor blocks until n values arrived and returns them with their
// arrival times; it fails the test after timeout.
func (p *probe) waitFor(t *testing.T, n int, timeout time.Duration) ([]int64, []time.Time) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		p.mu.Lock()
		vals, at := append([]int64(nil), p.vals...), append([]time.Time(nil), p.at...)
		p.mu.Unlock()
		if len(vals) >= n {
			return vals, at
		}
		select {
		case <-p.arrived:
		case <-deadline:
			t.Fatalf("%d of %d records reached the sink within %v", len(vals), n, timeout)
		}
	}
}

// cutConfig sets the buffer timeout and puts no checkpoint inside any
// test's horizon, so no barrier cuts a buffer: every cut is an idle cut,
// an age cut, or a full buffer.
func cutConfig(bufferTimeout time.Duration) Config {
	cfg := quickConfig(ModeClonos)
	cfg.BufferTimeout = bufferTimeout
	cfg.CheckpointInterval = time.Hour
	return cfg
}

func startCutJob(t *testing.T, g *Graph, cfg Config) *Runtime {
	t.Helper()
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

// fanInGraph is src(p) -> stage(stageP) -> probe(1), both edges hashed.
// The source emits no watermarks, so a channel carries only the records
// routed to it and a latency marker every 64 records.
func fanInGraph(topic *kafkasim.Topic, p, stageP int, pr *probe) *Graph {
	g := NewGraph()
	src := g.AddVertex("src", p, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 1 << 40})
	stage := g.AddVertex("stage", stageP, nil, operator.Map("id", func(_ operator.Context, e types.Element) (any, bool, error) {
		return e.Value, true, nil
	}))
	sinkV := g.AddVertex("probe", 1, nil, pr.op())
	g.Connect(src, stage, PartitionHash, nil, nil)
	g.Connect(stage, sinkV, PartitionHash, nil, nil)
	return g
}

// TestIdleCutNeedsNoTimeout: with a buffer timeout of an hour and no
// checkpoint barriers, records still reach the sink at once — every task
// cuts its partial output buffers when it runs out of input. (One input
// per task: a fan-in task's last round waits for every input, which is
// TestFanInCutsOncePerRound's and TestBufferTimeoutBoundsSilentInput's
// subject.)
func TestIdleCutNeedsNoTimeout(t *testing.T) {
	const n = 200
	topic := kafkasim.NewTopic("in", 1)
	pr := newProbe()
	startCutJob(t, fanInGraph(topic, 1, 1, pr), cutConfig(time.Hour))
	for i := 0; i < n; i++ {
		topic.Append(kafkasim.Record{Key: uint64(i), Ts: int64(i), Value: int64(i)})
	}
	pr.waitFor(t, n, 10*time.Second)
}

// TestFanInCutsOncePerRound pins the "every input delivered" rule: a
// stage with two inputs, each delivering one buffer per round, sends one
// buffer per round downstream — not one per input buffer, which would
// double the buffer count at every fan-in hop.
func TestFanInCutsOncePerRound(t *testing.T) {
	const rounds = 20
	topic := kafkasim.NewTopic("in", 2)
	pr := newProbe()
	r := startCutJob(t, fanInGraph(topic, 2, 1, pr), cutConfig(time.Hour))
	for k := 0; k < rounds; k++ {
		// Keys 2k and 2k+1 land on partitions 0 and 1: one record for
		// each source subtask.
		topic.Append(kafkasim.Record{Key: uint64(2 * k), Ts: int64(k), Value: int64(2 * k)})
		topic.Append(kafkasim.Record{Key: uint64(2*k + 1), Ts: int64(k), Value: int64(2*k + 1)})
		pr.waitFor(t, 2*(k+1), 10*time.Second)
	}
	in := r.Obs().Counter("clonos_task_buffers_in_total", "", obs.Labels{"vertex": "probe", "subtask": "0"}).Value()
	if in != rounds {
		t.Fatalf("the fan-in stage sent %d buffers in %d rounds, want one per round", in, rounds)
	}
}

// TestBufferTimeoutBoundsSilentInput: a stage whose second input never
// delivers cuts its output at the buffer timeout — not before (it waits
// for the round to complete), and not never.
func TestBufferTimeoutBoundsSilentInput(t *testing.T) {
	const timeout = 300 * time.Millisecond
	topic := kafkasim.NewTopic("in", 2)
	pr := newProbe()
	startCutJob(t, fanInGraph(topic, 2, 1, pr), cutConfig(timeout))
	sent := time.Now()
	topic.Append(kafkasim.Record{Key: 0, Value: int64(7)}) // partition 0: src[1] stays silent
	_, at := pr.waitFor(t, 1, 10*time.Second)
	if took := at[0].Sub(sent); took < timeout {
		t.Fatalf("the record reached the sink %v after it was offered, before the %v buffer timeout: the stage did not wait for its silent input", took, timeout)
	}
}

// TestBufferTimeoutBoundsBusyTask: a source that never runs out of input
// never cuts at idle, so the one record it routes to an otherwise unused
// channel is cut by the age bound while the source is still emitting the
// bulk of its input — not at the end-of-stream flush. (The channel's
// latency markers would fill an 8 KiB buffer about 50 000 records in;
// 64 KiB buffers keep that past the end of the input. The source emits
// about 10 000 records in the first 5 ms on a 2-core box; stage[1] may
// then wait tens of milliseconds for a core.)
func TestBufferTimeoutBoundsBusyTask(t *testing.T) {
	const n = 300_000
	topic := kafkasim.NewTopic("in", 1)
	topic.Append(kafkasim.Record{Key: 1, Value: int64(-1)}) // the only record for stage[1]
	for i := 0; i < n; i++ {
		topic.Append(kafkasim.Record{Key: 0, Value: int64(i)})
	}
	topic.Close()
	cfg := cutConfig(5 * time.Millisecond)
	cfg.BufferSize = 64 << 10
	cfg.Obs = obs.NewRegistry()
	emitted := cfg.Obs.Counter("clonos_task_records_out_total", "", obs.Labels{"vertex": "src", "subtask": "0"})
	var atArrival atomic.Uint64
	g := NewGraph()
	src := g.AddVertex("src", 1, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 1 << 40})
	stage := g.AddVertex("stage", 2, nil, operator.Map("id", func(_ operator.Context, e types.Element) (any, bool, error) {
		if e.Value.(int64) == -1 {
			atArrival.Store(emitted.Value())
		}
		return e.Value, true, nil
	}))
	pr := newProbe()
	g.Connect(src, stage, PartitionHash, nil, nil)
	g.Connect(stage, g.AddVertex("probe", 1, nil, pr.op()), PartitionHash, nil, nil)
	startCutJob(t, g, cfg)
	pr.waitFor(t, n+1, 60*time.Second)
	if got := atArrival.Load(); got > n/2 {
		t.Fatalf("the lone record reached stage[1] when the source had emitted %d of %d records: its buffer was not cut by age", got, n+1)
	} else {
		t.Logf("the lone record reached stage[1] when the source had emitted %d of %d records", got, n+1)
	}
}
