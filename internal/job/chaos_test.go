package job

import (
	"math/rand"
	"testing"
	"time"

	"clonos/internal/kafkasim"
	"clonos/internal/types"
)

// TestChaosMonkey hammers the deep pipeline with randomized failures —
// random victims at random (sometimes overlapping) times — and checks
// the exactly-once oracle at the end. Any lost replay, double-applied
// buffer, divergent re-execution, or wedged recovery shows up as a wrong
// final sum or a hung job.
func TestChaosMonkey(t *testing.T) {
	const (
		n     = 10000
		keys  = 7
		kills = 6
	)
	for _, seed := range []int64{1, 2} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		topic := kafkasim.NewTopic("in", 2)
		sink := kafkasim.NewSinkTopic(true)
		g := deepPipeline(topic, sink, 2)
		cfg := quickConfig(ModeClonos)
		cfg.DSD = 0 // full: survive any consecutive-failure pattern locally
		r, err := NewRuntime(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}

		gen := kafkasim.NewGenerator(topic, 5000, func(i int64) (kafkasim.Record, bool) {
			return kafkasim.Record{Key: uint64(i) % keys, Ts: i, Value: i}, i < n
		})
		gen.Start()

		if !r.WaitForCheckpoint(1, 30*time.Second) {
			t.Fatalf("seed %d: no checkpoint: %v", seed, r.Errors())
		}

		// Random victims across all vertices (0..3), random gaps drawn
		// against a recovery of some tens of milliseconds: back to back
		// (the next kill races the declaration of the previous one), a
		// few milliseconds apart (inside the recovery in progress), or
		// spaced out past it.
		for k := 0; k < kills; k++ {
			victim := types.TaskID{
				Vertex:  types.VertexID(rng.Intn(4)),
				Subtask: int32(rng.Intn(2)),
			}
			if victim.Vertex == 3 {
				victim.Subtask = 0 // sink parallelism 1
			}
			_ = r.InjectFailure(victim) // may hit an already-dead task: fine
			switch rng.Intn(3) {
			case 1:
				time.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
			case 2:
				time.Sleep(time.Duration(rng.Intn(300)) * time.Millisecond)
			}
		}

		if !r.WaitFinished(120 * time.Second) {
			t.Fatalf("seed %d: job did not finish; errors: %v", seed, r.Errors())
		}
		for _, e := range r.Errors() {
			t.Errorf("seed %d: task error: %v", seed, e)
		}
		checkSums(t, finalSums(sink), expectedDeepSums(n, keys), "chaos")
		gen.Stop()
		r.Stop()
	}
}
