package job

import (
	"testing"

	"clonos/internal/causal"
	"clonos/internal/checkpoint"
	"clonos/internal/kafkasim"
	"clonos/internal/statestore"
	"clonos/internal/types"
)

// undeployedTask builds the "double" task of a linear job on a runtime
// that is never started: the state a standby is in between activation and
// launch. The returned cleanup releases what the task owns.
func undeployedTask(t *testing.T) *Task {
	t.Helper()
	g := buildLinear(kafkasim.NewTopic("in", 1), kafkasim.NewSinkTopic(true), 1)
	r, err := NewRuntime(g, quickConfig(ModeClonos))
	if err != nil {
		t.Fatal(err)
	}
	tk := newTask(r, g.Vertices[1], 0)
	t.Cleanup(func() {
		tk.crash()
		for _, oc := range tk.allOut {
			oc.close()
		}
	})
	return tk
}

// TestPreloadedDeltasAreExtractable pins the ingest-once rule's second
// half. Messages preloaded from an unaligned snapshot bypass the endpoint's
// accept hook, and handleBuffer no longer re-ingests deltas, so
// preloadInFlight itself must put their determinants into the replica
// store — at once: the upstream may die before the main thread has
// consumed a single preloaded buffer, and its recovery asks this task for
// exactly those determinants.
func TestPreloadedDeltasAreExtractable(t *testing.T) {
	tk := undeployedTask(t)
	in := tk.inIDs[0]
	up := types.TaskID{Vertex: tk.env.graph.Edges[in.Edge].From.ID, Subtask: in.From}

	// Two buffers the upstream sent in epoch 2, each with the delta its
	// causal manager piggybacked, captured in flight by checkpoint 1.
	upm := causal.NewManager(up, 1)
	upm.StartEpochMain(2)
	upm.AppendTimestamp(11)
	d1 := upm.DeltaFor(in)
	upm.AppendService(7, []byte("response"))
	upm.AppendTimestamp(22)
	d2 := upm.DeltaFor(in)
	snap := &checkpoint.TaskSnapshot{
		Task:       tk.id,
		Checkpoint: 1,
		InFlight: statestore.EncodeInFlight([]statestore.InFlightChannel{{
			Channel: in,
			Msgs: []statestore.InFlightMessage{
				{Seq: 1, Epoch: 2, Delta: d1},
				{Seq: 2, Epoch: 2, Delta: d2},
			},
		}}),
	}
	if err := tk.restore(snap); err != nil {
		t.Fatal(err)
	}
	tk.attachNetwork(false)
	tk.preloadInFlight()
	if err := tk.lastErr.Load(); err != nil {
		t.Fatal(err)
	}

	// The upstream is killed now: no main thread ever ran here, both
	// buffers are still queued, and its recovery extracts from this task.
	if queued := tk.gate.Endpoint(0).Len(); queued != 2 {
		t.Fatalf("%d preloaded buffers queued, want 2", queued)
	}
	ex, ok := tk.ExtractDeterminants(up, 2)
	if !ok {
		t.Fatal("the preloaded buffers' determinants are not in the replica store")
	}
	want := []causal.Determinant{
		{Kind: causal.KindEpoch, Epoch: 2},
		{Kind: causal.KindTimestamp, Value: 11},
		{Kind: causal.KindService, ServiceID: 7, Payload: []byte("response")},
		{Kind: causal.KindTimestamp, Value: 22},
	}
	if ex.MainStart != 0 || len(ex.Main) != len(want) {
		t.Fatalf("extracted %d determinants from %d, want %d from 0", len(ex.Main), ex.MainStart, len(want))
	}
	for i := range want {
		if !ex.Main[i].Equal(want[i]) {
			t.Fatalf("determinant %d = %v, want %v", i, ex.Main[i], want[i])
		}
	}
}
