package job

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"clonos/internal/audit"
	"clonos/internal/causal"
	"clonos/internal/faultinject"
	"clonos/internal/kafkasim"
	"clonos/internal/obs"
)

// runCutReplay runs a deep pipeline with the audit plane armed and the
// kill schedule injected, waits for the job to finish, and
// checks the kill fired, the sink's sums are exactly-once and the auditor
// saw nothing. It returns the runtime for further checks; task errors are
// left to the caller.
func runCutReplay(t *testing.T, g *Graph, cfg Config, sink *kafkasim.SinkTopic, n int, keys uint64, schedule string) *Runtime {
	t.Helper()
	sched, err := faultinject.Parse(schedule)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(sched)
	aud := audit.New()
	cfg.Faults = inj
	cfg.Audit = aud
	cfg.DSD = 0 // full determinant replication
	cfg.ServiceSeed = 42
	cfg.Obs = obs.NewRegistry()
	r, err := NewRuntime(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	if !r.WaitFinished(60 * time.Second) {
		t.Fatalf("job did not finish; errors: %v", r.Errors())
	}
	if len(inj.Fired()) == 0 {
		t.Fatalf("the kill %q never fired", schedule)
	}
	checkSums(t, finalSums(sink), expectedDeepSums(n, keys), schedule)
	if total := aud.Total(); total != 0 {
		t.Errorf("audit plane detected %d violation(s): %v", total, aud.ByInvariant())
	}
	return r
}

// slowStageRun is the deep pipeline with a slow keyed stage (s2) whose
// output is cut by age between the elements of one input buffer: the
// generator outruns s2, so its input buffers arrive full, and each of its
// elements takes longer than a fifth of the buffer timeout. No checkpoint
// is taken, so the killed s2[0]'s replacement replays from the start.
func slowStageRun(t *testing.T, schedule string) *Runtime {
	t.Helper()
	const (
		n    = 3000
		keys = 7
	)
	topic := kafkasim.NewTopic("in", 2)
	sink := kafkasim.NewSinkTopic(true)
	cfg := quickConfig(ModeClonos)
	cfg.CheckpointInterval = time.Hour
	cfg.BufferTimeout = time.Millisecond
	cfg.BufferSize = 1024
	gen := kafkasim.NewGenerator(topic, 20000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i) % keys, Ts: i, Value: i}, i < n
	})
	gen.Start()
	t.Cleanup(gen.Stop)
	return runCutReplay(t, slowDeepPipeline(topic, sink, 2, 250*time.Microsecond), cfg, sink, n, keys, schedule)
}

// buffersIn reads a vertex's received-buffer counter across subtasks.
func buffersIn(r *Runtime, vertex string, subtasks int) uint64 {
	var n uint64
	for s := 0; s < subtasks; s++ {
		n += r.Obs().Counter("clonos_task_buffers_in_total", "", obs.Labels{"vertex": vertex, "subtask": strconv.Itoa(s)}).Value()
	}
	return n
}

// TestReplayCutsBetweenElementsOfOneBuffer: a slow stage whose age bound
// cuts its output between the elements of one input buffer is killed and
// re-executed. Guided replay must take each of those cuts at the element
// boundary where the log puts it — a replay that cut where the input
// buffer ends would dispatch a buffer its predecessor never did and fail
// with a divergence error. Exactly-once at the sink, zero violations.
func TestReplayCutsBetweenElementsOfOneBuffer(t *testing.T) {
	r := slowStageRun(t, "kill=task/loop@v2[0]#12")
	for _, err := range r.Errors() {
		t.Errorf("task error: %v", err)
	}
	// s2 sends many more buffers than it receives: its cuts fall inside
	// input buffers, which is what this replay had to reproduce.
	in, out := buffersIn(r, "s2", 2), buffersIn(r, "sink", 1)
	t.Logf("s2 received %d buffers and the sink %d", in, out)
	if out < 2*in {
		t.Fatalf("s2 received %d buffers and sent %d: its age cuts did not fall between the elements of one input buffer", in, out)
	}
}

// TestReplayDivergenceFailsTask alters one BUFFERSIZE size in the
// determinants a replacement replays. Re-execution cannot produce that
// buffer, so the replacement fails with the named divergence error rather
// than cutting elsewhere and sending it on, and since a replacement
// guided by the same log would fail the same way, the runtime rolls back
// globally; the job still ends exactly-once.
func TestReplayDivergenceFailsTask(t *testing.T) {
	alter := func(dets []causal.Determinant) {
		for i := range dets {
			if dets[i].Kind == causal.KindBufferSize {
				dets[i].Value++
				return
			}
		}
	}
	testAlterDeterminants.Store(&alter)
	t.Cleanup(func() { testAlterDeterminants.Store(nil) })
	r := slowStageRun(t, "kill=task/loop@v2[0]#12")
	diverged := 0
	for _, err := range r.Errors() {
		if !errors.Is(err, errReplayDiverged) {
			t.Errorf("task error: %v", err)
			continue
		}
		diverged++
		t.Logf("the altered replay failed: %v", err)
	}
	if diverged != 1 {
		t.Fatalf("%d divergence errors, want the altered replay's one", diverged)
	}
	restarted := false
	for _, ev := range r.Events() {
		restarted = restarted || ev.Kind == EventGlobalRestart && ev.Info == "replay-diverged"
	}
	if !restarted {
		t.Fatal("the diverged replay did not roll the job back globally")
	}
}

// TestSourceReplaysFullBufferTail kills a source as it takes a checkpoint
// trigger, before logging it. With an unbounded backlog and an age bound
// of an hour the source never cuts early, so everything it sent since its
// last barrier is full buffers, whose BUFFERSIZE entries end its log. The
// replacement must re-emit until that log is exhausted before it serves a
// trigger again: a barrier or a fresh latency-marker stamp inside output
// the receivers already hold would show as a replay-hash mismatch at the
// dedup check.
func TestSourceReplaysFullBufferTail(t *testing.T) {
	const (
		n    = 150_000
		keys = 7
	)
	topic := kafkasim.NewTopic("in", 1)
	for i := 0; i < n; i++ {
		topic.Append(kafkasim.Record{Key: uint64(i) % keys, Ts: int64(i), Value: int64(i)})
	}
	topic.Close()
	sink := kafkasim.NewSinkTopic(true)
	cfg := quickConfig(ModeClonos)
	cfg.CheckpointInterval = 40 * time.Millisecond
	cfg.BufferTimeout = time.Hour
	r := runCutReplay(t, deepPipeline(topic, sink, 1), cfg, sink, n, keys, "kill=task/checkpoint-rpc@v0[0]#2")
	for _, err := range r.Errors() {
		t.Errorf("task error: %v", err)
	}
}
