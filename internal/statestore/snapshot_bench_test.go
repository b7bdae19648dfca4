package statestore_test

// Budget tests for the snapshot encoding (see
// internal/hotbench/snapshot.go for the scenario definitions): the
// checkpoint path must hold its one-allocation profile.

import (
	"testing"

	"clonos/internal/hotbench"
)

func snapshotScenarioByName(t testing.TB, name string) hotbench.SnapshotScenario {
	for _, sc := range hotbench.SnapshotScenarios() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("unknown snapshot scenario %q", name)
	return hotbench.SnapshotScenario{}
}

// TestSnapshotEncodeAllocBudget fences per-entry allocations of the full
// and delta snapshot paths. The encoder sizes its frame, allocates it
// once and fills it, so a full snapshot is one allocation whatever the
// entry count and value size (measured 0.001 per entry at 1024 entries;
// TestSnapshotAllocsConstant pins the exact count). The delta scenario
// includes the Puts that dirty its keys, which rebuild the dirty-set map
// each round (measured ~0.11 per entry).
func TestSnapshotEncodeAllocBudget(t *testing.T) {
	cases := []struct {
		name   string
		budget float64 // max allocs per encoded entry
	}{
		{"snapshot-encode", 0.01},
		{"snapshot-encode-2k", 0.01},
		{"delta-encode", 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := snapshotScenarioByName(t, tc.name)
			op := sc.New()
			if _, err := op(); err != nil { // warm caches and buffers
				t.Fatal(err)
			}
			perRun := testing.AllocsPerRun(10, func() {
				if _, err := op(); err != nil {
					t.Fatal(err)
				}
			})
			perEntry := perRun / float64(sc.Entries)
			t.Logf("%s: %.3f allocs/entry (budget %.2f)", tc.name, perEntry, tc.budget)
			if perEntry > tc.budget {
				t.Errorf("%s: %.3f allocs/entry exceeds budget %.2f — the binary snapshot path regressed",
					tc.name, perEntry, tc.budget)
			}
		})
	}
}
