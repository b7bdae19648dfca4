package job

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clonos/internal/kafkasim"
	"clonos/internal/operator"
	"clonos/internal/types"
)

// errorsNaming returns the reported task errors that contain every one of
// the given substrings.
func errorsNaming(r *Runtime, subs ...string) (out []error) {
next:
	for _, err := range r.Errors() {
		for _, sub := range subs {
			if !strings.Contains(err.Error(), sub) {
				continue next
			}
		}
		out = append(out, err)
	}
	return out
}

// TestStartFailsWithoutSpillDir: a ModeClonos channel whose in-flight log
// cannot be created (its spill directory's parent is missing) must not
// run without the log — the job would learn of it only at the next
// downstream failure, as an unserviceable replay. Start returns the
// error, leaves no thread behind, and a later Stop is a no-op.
func TestStartFailsWithoutSpillDir(t *testing.T) {
	gone := filepath.Join(t.TempDir(), "gone")
	t.Setenv("TMPDIR", gone)
	topic := kafkasim.NewTopic("in", 2)
	r, err := NewRuntime(buildLinear(topic, kafkasim.NewSinkTopic(true), 2), quickConfig(ModeClonos))
	if err != nil {
		t.Fatal(err)
	}
	err = r.Start()
	r.Stop()
	if err == nil {
		t.Fatalf("Start succeeded with TMPDIR=%s; task errors: %v", gone, r.Errors())
	}
	if !strings.Contains(err.Error(), "inflight") {
		t.Fatalf("Start error %q does not name the in-flight log", err)
	}
}

// TestReplacementWithoutSpillDirNeverRuns: the spill directory goes
// missing while the job runs. The standby built during the first recovery
// has no in-flight log; when the second failure activates it, the error
// is reported and the recovery escalates instead of running the task
// without its log. Once the directory is back the job finishes
// exactly-once.
func TestReplacementWithoutSpillDirNeverRuns(t *testing.T) {
	const n = 4000
	good := t.TempDir()
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(true)
	r, err := NewRuntime(keySumPipeline(topic, sink, 2), quickConfig(ModeClonos))
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
	if !r.WaitForCheckpoint(1, 30*time.Second) {
		t.Fatalf("no checkpoint completed: %v", r.Errors())
	}

	victim := types.TaskID{Vertex: 1, Subtask: 0}
	t.Setenv("TMPDIR", filepath.Join(good, "gone"))
	if err := r.InjectFailure(victim); err != nil {
		t.Fatal(err)
	}
	awaitNth(t, r, EventCaughtUp, victim, 1, 30*time.Second) // its next standby was built without a log
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("the first recovery used the standby built at Start and must be clean: %v", errs)
	}
	if err := r.InjectFailure(victim); err != nil {
		t.Fatal(err)
	}
	if !r.WaitForEvent(30*time.Second, func(ev Event) bool { return ev.Kind == EventGlobalRestart }) {
		t.Fatalf("activating a standby without its log did not escalate; errors: %v\n%s", r.Errors(), r.DebugString())
	}
	if len(errorsNaming(r, victim.String(), "inflight")) == 0 {
		t.Fatalf("no reported error names the in-flight log of %v: %v", victim, r.Errors())
	}
	t.Setenv("TMPDIR", good)
	if !r.WaitFinished(60 * time.Second) {
		t.Fatalf("job did not finish once the spill directory was back; errors: %v\n%s", r.Errors(), r.DebugString())
	}
	if other := len(r.Errors()) - len(errorsNaming(r, "inflight")); other != 0 {
		t.Errorf("%d task errors are not about the in-flight log: %v", other, r.Errors())
	}
	checkSums(t, finalSums(sink), expectedSums(n, 5), "after the spill directory came back")
}

// noCodec is a record type nobody registered a codec for.
type noCodec struct{ N int64 }

// TestUnregisteredEdgeTypeFailsTask: a value of an unregistered type
// reaching an Auto edge fails its task (Task.fail → Runtime.Errors) with
// an error naming the type and the remedy.
func TestUnregisteredEdgeTypeFailsTask(t *testing.T) {
	topic := kafkasim.NewTopic("in", 1)
	fillTopic(topic, 100, 4)
	g := NewGraph()
	src := g.AddVertex("src", 1, &operator.KafkaSource{SourceName: "kafka", Topic: topic, WatermarkEvery: 10})
	wrap := g.AddVertex("wrap", 1, nil, operator.Map("wrap", func(ctx operator.Context, e types.Element) (any, bool, error) {
		return noCodec{N: e.Value.(int64)}, true, nil
	}))
	sinkV := g.AddVertex("sink", 1, nil, operator.NewKafkaSink("sink", kafkasim.NewSinkTopic(true)))
	g.Connect(src, wrap, PartitionHash, nil, nil)
	g.Connect(wrap, sinkV, PartitionHash, nil, nil)
	r, err := NewRuntime(g, quickConfig(ModeClonos))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	emitter := types.TaskID{Vertex: wrap.ID, Subtask: 0}
	awaitNth(t, r, EventFailureDetected, emitter, 1, 30*time.Second)
	if len(errorsNaming(r, emitter.String(), "job.noCodec", "clonos.RegisterCodec")) == 0 {
		t.Fatalf("no task error names the type and RegisterCodec: %v", r.Errors())
	}
}
