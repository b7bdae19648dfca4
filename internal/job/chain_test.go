package job

import (
	"reflect"
	"testing"

	"clonos/internal/statestore"
)

// TestOpContextStateHandles pins the per-record cost and the validity of
// the keyed-state handles an operator context keeps: State and NamedState
// allocate nothing once resolved, create their state only on first use
// (an operator that never asks adds nothing to a snapshot), and after
// Store.Restore — which replaces every KeyedState — hand out the restored
// state, not the one from before.
func TestOpContextStateHandles(t *testing.T) {
	task := &Task{store: statestore.NewStore()}
	ctx := &opContext{task: task, scope: "v.op"}
	if names := task.store.Names(); len(names) != 0 {
		t.Fatalf("a context that never asked for state created %v", names)
	}
	ctx.State().Put(1, int64(10))
	ctx.NamedState("left").Put(2, "l")
	if got, want := task.store.Names(), []string{"v.op.left", "v.op.state"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("state names = %v, want %v", got, want)
	}
	if ctx.State() != task.store.Keyed("v.op.state") || ctx.NamedState("left") != task.store.Keyed("v.op.left") {
		t.Fatal("context handles are not the store's states")
	}
	if n := testing.AllocsPerRun(100, func() { _ = ctx.State() }); n != 0 {
		t.Errorf("State() allocates %.0f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ctx.NamedState("left") }); n != 0 {
		t.Errorf("NamedState() allocates %.0f times per call, want 0", n)
	}

	src := statestore.NewStore()
	src.Keyed("v.op.state").Put(7, int64(70))
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := task.store.Restore(snap); err != nil {
		t.Fatal(err)
	}
	st := ctx.State()
	if st != task.store.Keyed("v.op.state") {
		t.Fatal("State() after Restore is not the restored store's state")
	}
	if got, _ := st.Get(7).(int64); got != 70 || st.Get(1) != nil {
		t.Fatalf("State() after Restore holds [7]=%v [1]=%v, want 70 and nothing", st.Get(7), st.Get(1))
	}
	if got, want := task.store.Names(), []string{"v.op.state"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("state names after Restore = %v, want %v: a handle from before leaked a state in", got, want)
	}
	// What the operator writes through the handle is what the next
	// checkpoint holds.
	st.Put(8, int64(80))
	ctx.NamedState("left").Put(3, "l2")
	snap, err = task.store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	back := statestore.NewStore()
	if err := back.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, _ := back.Keyed("v.op.state").Get(8).(int64); got != 80 {
		t.Fatalf("a Put after Restore did not reach the next snapshot: [8]=%v", back.Keyed("v.op.state").Get(8))
	}
	if got, _ := back.Keyed("v.op.left").Get(3).(string); got != "l2" || back.Keyed("v.op.left").Len() != 1 {
		t.Fatalf("NamedState after Restore: left = %v (len %d), want only [3]=l2", got, back.Keyed("v.op.left").Len())
	}
}
