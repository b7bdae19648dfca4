package operator

import (
	"sort"
	"testing"

	"clonos/internal/kafkasim"
	"clonos/internal/services"
	"clonos/internal/statestore"
	"clonos/internal/types"
)

// fakeTimer records a registered timer.
type fakeTimer struct {
	key  uint64
	when int64
}

// fakeCtx implements Context for unit-testing operators in isolation.
type fakeCtx struct {
	store    *statestore.Store
	scope    string
	emitted  []types.Element
	procs    []fakeTimer
	events   []fakeTimer
	svcs     *services.Services
	wm       int64
	delta    []byte
	task     types.TaskID
	subtasks int
}

type nullLogger struct{}

func (nullLogger) AppendTimestamp(int64)        {}
func (nullLogger) AppendRNG(int64)              {}
func (nullLogger) AppendService(uint16, []byte) {}

func newFakeCtx() *fakeCtx {
	return &fakeCtx{
		store:    statestore.NewStore(),
		scope:    "test",
		svcs:     services.New(services.Config{World: services.NewExternalWorld()}, nullLogger{}, nil, nil),
		subtasks: 1,
	}
}

func (c *fakeCtx) Emit(key uint64, ts int64, v any) {
	c.emitted = append(c.emitted, types.Record(key, ts, v))
}
func (c *fakeCtx) State() *statestore.KeyedState { return c.store.Keyed(c.scope + ".state") }
func (c *fakeCtx) NamedState(name string) *statestore.KeyedState {
	return c.store.Keyed(c.scope + "." + name)
}
func (c *fakeCtx) Services() *services.Services { return c.svcs }
func (c *fakeCtx) RegisterProcTimer(key uint64, when int64) {
	c.procs = append(c.procs, fakeTimer{key, when})
}
func (c *fakeCtx) RegisterEventTimer(key uint64, when int64) {
	c.events = append(c.events, fakeTimer{key, when})
}
func (c *fakeCtx) Watermark() int64     { return c.wm }
func (c *fakeCtx) TaskID() types.TaskID { return c.task }
func (c *fakeCtx) NumSubtasks() int     { return c.subtasks }

func rec(key uint64, ts int64, v any) types.Element { return types.Record(key, ts, v) }

func TestMapOperator(t *testing.T) {
	ctx := newFakeCtx()
	op := Map("m", func(_ Context, e types.Element) (any, bool, error) {
		return e.Value.(int64) * 10, true, nil
	})
	if err := op.ProcessRecord(ctx, 0, rec(1, 5, int64(3))); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 1 || ctx.emitted[0].Value.(int64) != 30 || ctx.emitted[0].Timestamp != 5 {
		t.Fatalf("emitted = %v", ctx.emitted)
	}
}

func TestMapDrop(t *testing.T) {
	ctx := newFakeCtx()
	op := Map("m", func(_ Context, e types.Element) (any, bool, error) { return nil, false, nil })
	if err := op.ProcessRecord(ctx, 0, rec(1, 5, int64(3))); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 0 {
		t.Fatal("dropped record emitted")
	}
}

func TestFilterOperator(t *testing.T) {
	ctx := newFakeCtx()
	op := Filter("f", func(_ Context, e types.Element) (bool, error) {
		return e.Value.(int64)%2 == 0, nil
	})
	for i := int64(0); i < 6; i++ {
		if err := op.ProcessRecord(ctx, 0, rec(0, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ctx.emitted) != 3 {
		t.Fatalf("filter kept %d records", len(ctx.emitted))
	}
}

func TestFlatMapOperator(t *testing.T) {
	ctx := newFakeCtx()
	op := FlatMap("fm", func(_ Context, e types.Element, emit func(uint64, int64, any)) error {
		for i := int64(0); i < e.Value.(int64); i++ {
			emit(e.Key, e.Timestamp, i)
		}
		return nil
	})
	if err := op.ProcessRecord(ctx, 0, rec(1, 1, int64(3))); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 3 {
		t.Fatalf("flatmap emitted %d", len(ctx.emitted))
	}
}

func TestKeyedReduce(t *testing.T) {
	ctx := newFakeCtx()
	op := KeyedReduce("r", func(_ Context, acc any, e types.Element) (any, error) {
		s, _ := acc.(int64)
		return s + e.Value.(int64), nil
	})
	inputs := []types.Element{rec(1, 0, int64(2)), rec(2, 0, int64(5)), rec(1, 0, int64(3))}
	for _, e := range inputs {
		if err := op.ProcessRecord(ctx, 0, e); err != nil {
			t.Fatal(err)
		}
	}
	last := ctx.emitted[len(ctx.emitted)-1]
	if last.Key != 1 || last.Value.(int64) != 5 {
		t.Fatalf("last = %v", last)
	}
	if got := ctx.State().Get(2).(int64); got != 5 {
		t.Fatalf("state[2] = %d", got)
	}
}

func TestTumblingEventWindow(t *testing.T) {
	ctx := newFakeCtx()
	op := Window("w", WindowSpec{Kind: TumblingEventTime, Size: 100}, Count(), false)
	for _, ts := range []int64{10, 50, 99, 100, 150} {
		if err := op.ProcessRecord(ctx, 0, rec(7, ts, ts)); err != nil {
			t.Fatal(err)
		}
	}
	// Two windows registered: [0,100) and [100,200).
	if len(ctx.events) != 2 {
		t.Fatalf("registered %d event timers", len(ctx.events))
	}
	if err := op.OnEventTimer(ctx, 7, 99); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 1 || ctx.emitted[0].Value.(int64) != 3 {
		t.Fatalf("window [0,100) = %v", ctx.emitted)
	}
	if err := op.OnEventTimer(ctx, 7, 199); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 2 || ctx.emitted[1].Value.(int64) != 2 {
		t.Fatalf("window [100,200) = %v", ctx.emitted)
	}
	// Re-firing is a no-op.
	if err := op.OnEventTimer(ctx, 7, 99); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 2 {
		t.Fatal("window fired twice")
	}
}

func TestSlidingEventWindow(t *testing.T) {
	ctx := newFakeCtx()
	op := Window("w", WindowSpec{Kind: SlidingEventTime, Size: 100, Slide: 50}, Count(), true)
	if err := op.ProcessRecord(ctx, 0, rec(1, 120, nil)); err != nil {
		t.Fatal(err)
	}
	// ts=120 joins windows starting at 100 and 50.
	if err := op.OnEventTimer(ctx, 1, 149); err != nil { // window [50,150)
		t.Fatal(err)
	}
	if err := op.OnEventTimer(ctx, 1, 199); err != nil { // window [100,200)
		t.Fatal(err)
	}
	if len(ctx.emitted) != 2 {
		t.Fatalf("emitted %d windows", len(ctx.emitted))
	}
	for _, e := range ctx.emitted {
		wr := e.Value.(WindowResult)
		if wr.Value.(int64) != 1 {
			t.Fatalf("window %+v count != 1", wr)
		}
	}
}

func TestSessionWindowMerging(t *testing.T) {
	ctx := newFakeCtx()
	op := Window("w", WindowSpec{Kind: SessionEventTime, Size: 50}, Count(), true)
	// Two bursts: 10,20,30 then 200.
	for _, ts := range []int64{10, 20, 30, 200} {
		if err := op.ProcessRecord(ctx, 0, rec(3, ts, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// First session closes at 30+50=80.
	if err := op.OnEventTimer(ctx, 3, 79); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 1 {
		t.Fatalf("emitted %d", len(ctx.emitted))
	}
	wr := ctx.emitted[0].Value.(WindowResult)
	if wr.Start != 10 || wr.End != 80 || wr.Value.(int64) != 3 {
		t.Fatalf("session = %+v", wr)
	}
	// Stale timer for the merged-away boundary fires harmlessly.
	if err := op.OnEventTimer(ctx, 3, 59); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 1 {
		t.Fatal("stale session timer emitted")
	}
	// Second session.
	if err := op.OnEventTimer(ctx, 3, 249); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 2 || ctx.emitted[1].Value.(WindowResult).Value.(int64) != 1 {
		t.Fatalf("second session = %v", ctx.emitted)
	}
}

func TestProcessingTimeWindow(t *testing.T) {
	ctx := newFakeCtx()
	op := Window("w", WindowSpec{Kind: TumblingProcessingTime, Size: 1000}, Count(), false)
	if err := op.ProcessRecord(ctx, 0, rec(1, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if len(ctx.procs) != 1 {
		t.Fatalf("registered %d proc timers", len(ctx.procs))
	}
	when := ctx.procs[0].when
	if when%1000 != 0 {
		t.Fatalf("proc timer at %d, want window end", when)
	}
	if err := op.OnProcTimer(ctx, 1, when); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 1 || ctx.emitted[0].Value.(int64) != 1 {
		t.Fatalf("emitted = %v", ctx.emitted)
	}
}

func TestAggregates(t *testing.T) {
	sum := SumFloat(func(v any) float64 { return v.(float64) })
	acc := sum.Create()
	acc = sum.Add(acc, rec(0, 0, 2.5))
	acc = sum.Add(acc, rec(0, 0, 1.5))
	if got := sum.Result(acc).(float64); got != 4 {
		t.Fatalf("sum = %v", got)
	}

	avg := AvgFloat(func(v any) float64 { return v.(float64) })
	acc = avg.Create()
	if got := avg.Result(acc).(float64); got != 0 {
		t.Fatalf("avg of empty = %v", got)
	}
	acc = avg.Add(acc, rec(0, 0, 2.0))
	acc = avg.Add(acc, rec(0, 0, 4.0))
	if got := avg.Result(acc).(float64); got != 3 {
		t.Fatalf("avg = %v", got)
	}

	max := MaxBy(func(v any) float64 { return v.(float64) })
	acc = max.Create()
	acc = max.Add(acc, rec(0, 0, 2.0))
	acc = max.Add(acc, rec(0, 0, 9.0))
	acc = max.Add(acc, rec(0, 0, 5.0))
	if got := max.Result(acc).(float64); got != 9 {
		t.Fatalf("max = %v", got)
	}
}

func TestHashJoinBothDirections(t *testing.T) {
	ctx := newFakeCtx()
	op := HashJoin("j", func(l, r any) any { return l.(string) + "-" + r.(string) })
	if err := op.ProcessRecord(ctx, 0, rec(1, 0, "l1")); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 0 {
		t.Fatal("join emitted without a match")
	}
	if err := op.ProcessRecord(ctx, 1, rec(1, 0, "r1")); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 1 || ctx.emitted[0].Value.(string) != "l1-r1" {
		t.Fatalf("join = %v", ctx.emitted)
	}
	// Second left matches the stored right (full history).
	if err := op.ProcessRecord(ctx, 0, rec(1, 0, "l2")); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 2 || ctx.emitted[1].Value.(string) != "l2-r1" {
		t.Fatalf("join = %v", ctx.emitted)
	}
	// Different key: no match.
	if err := op.ProcessRecord(ctx, 1, rec(2, 0, "r2")); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 2 {
		t.Fatal("join matched across keys")
	}
}

func TestWindowJoin(t *testing.T) {
	ctx := newFakeCtx()
	op := WindowJoin("wj", 100, func(l, r any) any { return l.(string) + "+" + r.(string) })
	_ = op.ProcessRecord(ctx, 0, rec(1, 10, "a"))
	_ = op.ProcessRecord(ctx, 1, rec(1, 20, "x"))
	_ = op.ProcessRecord(ctx, 1, rec(1, 30, "y"))
	_ = op.ProcessRecord(ctx, 0, rec(1, 150, "b")) // next window
	if err := op.OnEventTimer(ctx, 1, 99); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ctx.emitted {
		got = append(got, e.Value.(string))
	}
	sort.Strings(got)
	if len(got) != 2 || got[0] != "a+x" || got[1] != "a+y" {
		t.Fatalf("window join = %v", got)
	}
	// Window [100,200) has no right side: nothing emitted.
	if err := op.OnEventTimer(ctx, 1, 199); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted) != 2 {
		t.Fatal("unmatched window emitted")
	}
}

func TestKafkaSourcePollOffsetsAndWatermarks(t *testing.T) {
	topic := kafkasim.NewTopic("t", 2)
	for i := 0; i < 40; i++ {
		topic.Append(kafkasim.Record{Key: uint64(i), Ts: int64(i), Value: int64(i)})
	}
	topic.Close()
	src := &KafkaSource{SourceName: "s", Topic: topic, WatermarkEvery: 5, BatchMax: 100}
	ctx := newFakeCtx()
	ctx.subtasks = 1

	var records, watermarks int
	done := false
	for !done {
		batch, d, err := src.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		done = d
		for _, e := range batch {
			switch e.Kind {
			case types.KindRecord:
				records++
			case types.KindWatermark:
				watermarks++
			}
		}
	}
	if records != 40 {
		t.Fatalf("polled %d records", records)
	}
	if watermarks == 0 {
		t.Fatal("no watermarks emitted")
	}
	// Offsets persisted in state: re-polling returns nothing.
	batch, _, _ := src.Poll(ctx)
	if len(batch) != 0 {
		t.Fatalf("re-poll returned %d elements", len(batch))
	}
}

func TestKafkaSourcePartitionAssignment(t *testing.T) {
	topic := kafkasim.NewTopic("t", 4)
	for i := 0; i < 40; i++ {
		topic.Append(kafkasim.Record{Key: uint64(i), Ts: int64(i), Value: int64(i)})
	}
	topic.Close()
	src := &KafkaSource{SourceName: "s", Topic: topic, BatchMax: 1000}

	ctx0 := newFakeCtx()
	ctx0.subtasks = 2
	ctx0.task = types.TaskID{Subtask: 0}
	ctx1 := newFakeCtx()
	ctx1.subtasks = 2
	ctx1.task = types.TaskID{Subtask: 1}

	b0, _, _ := src.Poll(ctx0)
	b1, _, _ := src.Poll(ctx1)
	n0, n1 := 0, 0
	for _, e := range b0 {
		if e.IsRecord() {
			n0++
		}
	}
	for _, e := range b1 {
		if e.IsRecord() {
			n1++
		}
	}
	if n0+n1 != 40 || n0 == 0 || n1 == 0 {
		t.Fatalf("split = %d + %d", n0, n1)
	}
}

func TestKafkaSourceStateDrivenReplay(t *testing.T) {
	// Restoring the state snapshot must replay the identical sequence.
	topic := kafkasim.NewTopic("t", 1)
	for i := 0; i < 20; i++ {
		topic.Append(kafkasim.Record{Key: uint64(i), Ts: int64(i), Value: int64(i)})
	}
	topic.Close()
	src := &KafkaSource{SourceName: "s", Topic: topic, BatchMax: 5}
	ctx := newFakeCtx()
	first, _, _ := src.Poll(ctx)
	snap, err := ctx.store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	second, _, _ := src.Poll(ctx)

	// Roll back and re-poll: must equal `second`.
	restored := newFakeCtx()
	if err := restored.store.Restore(snap); err != nil {
		t.Fatal(err)
	}
	replayed, _, _ := src.Poll(restored)
	if len(replayed) != len(second) {
		t.Fatalf("replayed %d elements, want %d", len(replayed), len(second))
	}
	for i := range second {
		if second[i].Value != replayed[i].Value {
			t.Fatalf("element %d: %v != %v", i, second[i], replayed[i])
		}
	}
	_ = first
}

func TestKafkaSinkSequencesOutput(t *testing.T) {
	sink := kafkasim.NewSinkTopic(true)
	op := NewKafkaSink("k", sink)
	ctx := newFakeCtx()
	for i := int64(0); i < 3; i++ {
		if err := op.ProcessRecord(ctx, 0, rec(1, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	recs := sink.All()
	if len(recs) != 3 {
		t.Fatalf("sink has %d", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, r.Seq)
		}
	}
	// Seq survives via state: simulate replay after restore.
	snap, _ := ctx.store.Snapshot()
	ctx2 := newFakeCtx()
	_ = ctx2.store.Restore(snap)
	op2 := NewKafkaSink("k", sink)
	_ = op2.ProcessRecord(ctx2, 0, rec(1, 9, int64(9)))
	if last := sink.All()[len(sink.All())-1]; last.Seq != 4 {
		t.Fatalf("restored seq = %d, want 4", last.Seq)
	}
}

// TestKafkaSinkProducerPerSubtask: the sink operator is shared by the
// vertex's subtasks; each must write under its own TaskID string (the
// name recovery asks the topic for), built once, not per record.
func TestKafkaSinkProducerPerSubtask(t *testing.T) {
	sink := kafkasim.NewSinkTopic(false)
	op := NewKafkaSink("k", sink)
	ctxs := make([]*fakeCtx, 3)
	for i := range ctxs {
		ctxs[i] = newFakeCtx()
		ctxs[i].task = types.TaskID{Vertex: 4, Subtask: int32(i)}
		ctxs[i].subtasks = len(ctxs)
	}
	// A context outside the table the first record built (another vertex,
	// a subtask past its parallelism) still gets its own name.
	other := newFakeCtx()
	other.task = types.TaskID{Vertex: 5, Subtask: 7}
	for _, ctx := range append(ctxs, other) {
		if err := op.ProcessRecord(ctx, 0, rec(1, 1, int64(1))); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range sink.All() {
		if want := []string{"v4[0]", "v4[1]", "v4[2]", "v5[7]"}[i]; r.Producer != want {
			t.Errorf("record %d written as producer %q, want %q", i, r.Producer, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = op.producer(ctxs[1]) }); n != 0 {
		t.Errorf("producer name costs %.0f allocations per record, want 0", n)
	}
}

func TestProcessOperatorCallbacks(t *testing.T) {
	var opened, closed bool
	var wmSeen int64
	p := NewProcess("p", func(ctx Context, port int, e types.Element) error {
		ctx.Emit(e.Key, e.Timestamp, e.Value)
		return nil
	})
	p.OnOpen = func(Context) error { opened = true; return nil }
	p.OnClosing = func(Context) error { closed = true; return nil }
	p.OnWM = func(_ Context, wm int64) error { wmSeen = wm; return nil }
	ctx := newFakeCtx()
	if err := p.Open(ctx); err != nil || !opened {
		t.Fatal("open not invoked")
	}
	if err := p.ProcessRecord(ctx, 0, rec(1, 1, "v")); err != nil || len(ctx.emitted) != 1 {
		t.Fatal("record not processed")
	}
	if err := p.OnWatermark(ctx, 42); err != nil || wmSeen != 42 {
		t.Fatal("watermark not seen")
	}
	if err := p.Close(ctx); err != nil || !closed {
		t.Fatal("close not invoked")
	}
}

func (c *fakeCtx) Epoch() uint64 { return 1 }

func (c *fakeCtx) CausalDelta() []byte { return c.delta }

func TestKafkaSinkExactlyOnceOutput(t *testing.T) {
	sink := kafkasim.NewSinkTopic(true)
	op := NewKafkaSink("k", sink)
	op.ExactlyOnceOutput = true
	ctx := newFakeCtx()
	ctx.delta = []byte("blob")
	if err := op.ProcessRecord(ctx, 0, rec(1, 1, int64(1))); err != nil {
		t.Fatal(err)
	}
	blobs := op.RecoverDeterminants(ctx.TaskID().String())
	if len(blobs) != 1 || string(blobs[0]) != "blob" {
		t.Fatalf("blobs = %v", blobs)
	}
	op.OnCheckpointComplete(2) // fakeCtx epoch is 1 -> truncated
	if len(op.RecoverDeterminants(ctx.TaskID().String())) != 0 {
		t.Fatal("truncation did not drop stored deltas")
	}
	// Disabled EOO stores and returns nothing.
	op2 := NewKafkaSink("k2", kafkasim.NewSinkTopic(true))
	if err := op2.ProcessRecord(ctx, 0, rec(1, 1, int64(2))); err != nil {
		t.Fatal(err)
	}
	if got := op2.RecoverDeterminants(ctx.TaskID().String()); got != nil {
		t.Fatalf("disabled EOO returned %v", got)
	}
}
