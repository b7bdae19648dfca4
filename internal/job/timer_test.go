package job

import (
	"strings"
	"testing"
	"time"

	"clonos/internal/kafkasim"
)

// TestProcessingTimeWindowsFlushAtEndOfInput runs a bounded job whose
// processing-time windows are a few milliseconds long, so windows keep
// coming due while the input ends and the last of them come due as the
// end-of-stream arrives. Every record must be counted exactly once. A due
// timer that has left the pending set but has not fired yet is invisible
// to the drain at end-of-stream, and its window is lost.
func TestProcessingTimeWindowsFlushAtEndOfInput(t *testing.T) {
	const n, keys = 3000, 4
	topic := kafkasim.NewTopic("in", 1)
	sink := kafkasim.NewSinkTopic(true)
	gen := kafkasim.NewGenerator(topic, 20000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i % keys), Ts: i, Value: i}, i < n
	})
	gen.Start()
	t.Cleanup(gen.Stop)
	runToCompletion(t, procWindowPipeline(topic, sink, 3), quickConfig(ModeClonos), 60*time.Second)
	counts := map[uint64]int64{}
	for _, rec := range sink.All() {
		counts[rec.Key] += rec.Value.(int64)
	}
	for k := uint64(0); k < keys; k++ {
		if counts[k] != n/keys {
			t.Errorf("key %d: window counts sum to %d, want %d", k, counts[k], n/keys)
		}
	}
}

// TestOneGoroutinePerTask takes the goroutine stacks of a running job
// with processing-time timers pending: each running task has its main
// thread and no other goroutine of its own, and no goroutine but a task's
// main thread runs timer code.
func TestOneGoroutinePerTask(t *testing.T) {
	topic := kafkasim.NewTopic("in", 1)
	sink := kafkasim.NewSinkTopic(true)
	r, err := NewRuntime(procWindowPipeline(topic, sink, 50), quickConfig(ModeClonos))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	gen := kafkasim.NewGenerator(topic, 2000, func(i int64) (kafkasim.Record, bool) {
		return kafkasim.Record{Key: uint64(i % 3), Ts: i, Value: i}, i < 4000
	})
	gen.Start()
	t.Cleanup(gen.Stop)
	if !r.WaitForCheckpoint(1, 30*time.Second) {
		t.Fatalf("no checkpoint: %v", r.Errors())
	}
	r.mu.Lock()
	running := len(r.tasks)
	r.mu.Unlock()
	// A stopped test's main threads may still be returning: retry briefly.
	var mains int
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		mains = 0
		for _, g := range strings.Split(allStacks(), "\n\n") {
			isMain := strings.Contains(g, "clonos/internal/job.(*Task).run(")
			if isMain {
				mains++
			}
			if !isMain && strings.Contains(g, "clonos/internal/timers.") {
				t.Fatalf("a goroutine other than a task main thread runs timer code:\n%s", g)
			}
		}
		if mains == running || time.Now().After(deadline) {
			break
		}
	}
	if mains != running {
		t.Fatalf("%d task main threads for %d running tasks", mains, running)
	}
}
