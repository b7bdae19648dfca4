package netstack_test

// Micro-benchmarks and allocation budgets for the zero-copy hot path:
// the full encode → dispatch → transmit → deserialize → decode loop (see
// internal/hotbench). The budget tests are the regression fence for the
// perf PR that introduced refcounted buffer aliasing: they fail when
// hot-path allocations creep back in or when payload bytes start being
// copied again.

import (
	"testing"

	"clonos/internal/hotbench"
	"clonos/internal/types"
)

func scenarioByName(t testing.TB, name string) hotbench.Scenario {
	for _, sc := range hotbench.Scenarios() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("unknown hotbench scenario %q", name)
	return hotbench.Scenario{}
}

func BenchmarkHotPathRoundTrip(b *testing.B) {
	for _, sc := range hotbench.Scenarios() {
		b.Run(sc.Name, func(b *testing.B) {
			hotbench.Bench(b, sc)
		})
	}
}

// runLoop writes n elements through a warmed loop and flushes.
func runLoop(t testing.TB, loop *hotbench.Loop, n int, elem func(i int) types.Element) {
	for i := 0; i < n; i++ {
		if err := loop.Write(elem(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := loop.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathAllocBudget enforces per-element allocation ceilings over
// the full loop. The budgets are deliberately loose versions of the
// measured steady state (≈1.5 allocs/elem for int64, dominated by the
// decoded value's interface boxing and queue-growth amortization) — far
// below the pre-zero-copy pipeline, which cloned every payload at
// dispatch, copied it again into the deserializer, and built a fresh
// encoder per value. A failure here means a structural regression, not
// noise.
func TestHotPathAllocBudget(t *testing.T) {
	cases := []struct {
		name   string
		sc     hotbench.Scenario
		budget float64 // max allocs per element
	}{
		// int64: decode boxes the value (1 alloc); everything else must
		// amortize to ~zero.
		{"int64", scenarioByName(t, "int64"), 2.0},
		// 512-byte records: decode copies the payload out of the retained
		// buffer (BytesCodec contract) + boxes it. No other per-element
		// cost is acceptable.
		{"bytes512-aligned", scenarioByName(t, "bytes512-aligned"), 2.5},
	}
	const elems = 2000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loop := hotbench.NewLoop(tc.sc.BufSize, tc.sc.PoolBufs, tc.sc.Codec)
			runLoop(t, loop, elems, tc.sc.Element) // warm pools and queues
			perRun := testing.AllocsPerRun(5, func() {
				runLoop(t, loop, elems, tc.sc.Element)
			})
			perElem := perRun / elems
			t.Logf("%s: %.3f allocs/elem (budget %.1f)", tc.name, perElem, tc.budget)
			if perElem > tc.budget {
				t.Errorf("%s: %.3f allocs/elem exceeds budget %.1f — the zero-copy hot path regressed",
					tc.name, perElem, tc.budget)
			}
		})
	}
}

// TestHotPathZeroCopy proves the two full-payload copies of the old
// pipeline (clone-at-dispatch, copy-at-Feed) are gone: with elements
// sized to tile buffers exactly, not a single payload byte may pass
// through sender scratch or receiver reassembly.
func TestHotPathZeroCopy(t *testing.T) {
	sc := scenarioByName(t, "bytes512-aligned")
	loop := hotbench.NewLoop(sc.BufSize, sc.PoolBufs, sc.Codec)
	runLoop(t, loop, 4096, sc.Element)
	if err := loop.Verify(); err != nil {
		t.Fatal(err)
	}
	st := loop.Stats()
	if st.WireBytes == 0 {
		t.Fatal("no bytes crossed the loop")
	}
	if st.ScratchBytes != 0 {
		t.Errorf("sender copied %d of %d bytes through encode scratch; want 0 (direct-encode fast path broken)",
			st.ScratchBytes, st.WireBytes)
	}
	if st.CopiedBytes != 0 {
		t.Errorf("receiver copied %d of %d bytes reassembling elements; want 0 (cursor deserializer broken)",
			st.CopiedBytes, st.WireBytes)
	}
}

// TestHotPathStraddleBounded checks the general case: with elements that
// do NOT tile buffers, only boundary-straddling elements may be copied —
// a small bounded fraction of the stream, not the whole payload as the
// old pipeline copied (twice).
func TestHotPathStraddleBounded(t *testing.T) {
	sc := scenarioByName(t, "int64")
	loop := hotbench.NewLoop(sc.BufSize, sc.PoolBufs, sc.Codec)
	runLoop(t, loop, 200_000, sc.Element)
	if err := loop.Verify(); err != nil {
		t.Fatal(err)
	}
	st := loop.Stats()
	// One straddling element per 32 KiB buffer of ~11-byte elements:
	// well under 1% of the stream may be copied on either side.
	for name, copied := range map[string]uint64{"scratch": st.ScratchBytes, "reassembly": st.CopiedBytes} {
		if frac := float64(copied) / float64(st.WireBytes); frac > 0.01 {
			t.Errorf("%s copied %.2f%% of %d wire bytes; want < 1%% (only boundary straddles may copy)",
				name, 100*frac, st.WireBytes)
		}
	}
}

// TestTypedStructAllocBudget fences the registry on the struct edge:
// NEXMark bid events through the auto codec must stay within a few
// allocations per element (decode rebuilds the Bid and boxes the Event;
// encode must be zero-alloc).
func TestTypedStructAllocBudget(t *testing.T) {
	sc := scenarioByName(t, "typed-struct")
	const elems = 2000
	loop := hotbench.NewLoop(sc.BufSize, sc.PoolBufs, sc.Codec)
	runLoop(t, loop, elems, sc.Element) // warm pools and queues
	perRun := testing.AllocsPerRun(5, func() {
		runLoop(t, loop, elems, sc.Element)
	})
	perElem := perRun / elems
	t.Logf("typed-struct: %.3f allocs/elem (budget 4.0)", perElem)
	if perElem > 4.0 {
		t.Errorf("typed-struct: %.3f allocs/elem exceeds budget 4.0 — the reflection-free struct path regressed",
			perElem)
	}
}
