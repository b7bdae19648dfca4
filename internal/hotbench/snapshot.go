package hotbench

// Snapshot-path benchmarks: where hotbench.Loop drives the per-record
// network hot path, these scenarios drive the per-checkpoint state
// encoding — Store.Snapshot and Store.DeltaSnapshot. Results share the
// Result JSON shape with per-entry normalization (ns_per_elem is
// nanoseconds per state entry).

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"clonos/internal/nexmark"
	"clonos/internal/statestore"
)

// snapshotEntries is the store population of the snapshot scenarios:
// enough keys that per-entry cost dominates fixed overhead.
const snapshotEntries = 1024

// deltaDirty is how many keys each delta-encode iteration re-dirties.
const deltaDirty = 128

// SnapshotScenario is one benchmarked snapshot-path configuration.
type SnapshotScenario struct {
	Name string
	// Entries is how many state entries one op encodes (normalizes
	// per-entry figures).
	Entries int
	// New builds the store and returns the measured op, which reports
	// the encoded byte count.
	New func() func() (int, error)
}

// populatedStore builds a store with snapshotEntries bid values under one
// state name, dirty tracking reset. Each bid carries extraBytes of Extra
// on top of its 17 encoded bytes.
func populatedStore(extraBytes int) *statestore.Store {
	s := statestore.NewStore()
	ks := s.Keyed("bids")
	extra := strings.Repeat("x", extraBytes)
	for i := 0; i < snapshotEntries; i++ {
		ks.Put(uint64(i), nexmark.Bid{
			Auction:  uint64(1000 + i%101),
			Bidder:   uint64(i),
			Price:    int64(100 + 7*i),
			DateTime: int64(1_600_000_000_000 + i),
			Extra:    extra,
		})
	}
	s.ResetDirty()
	return s
}

// fullSnapshot is the measured op of the full-snapshot scenarios.
func fullSnapshot(extraBytes int) func() func() (int, error) {
	return func() func() (int, error) {
		s := populatedStore(extraBytes)
		return func() (int, error) {
			b, err := s.Snapshot()
			return len(b), err
		}
	}
}

// SnapshotScenarios returns the snapshot-path set tracked by
// BENCH_hotpath.json.
func SnapshotScenarios() []SnapshotScenario {
	return []SnapshotScenario{
		// Full snapshot at two value sizes: 17-byte entries, where
		// per-entry work (sort, tag resolve, varints) is the cost, and
		// 2 KiB entries — the benchmark's syn-state regime — where moving
		// the bytes is.
		{Name: "snapshot-encode", Entries: snapshotEntries, New: fullSnapshot(0)},
		{Name: "snapshot-encode-2k", Entries: snapshotEntries, New: fullSnapshot(2048)},
		{
			// Incremental snapshot: each op re-dirties deltaDirty keys and
			// encodes the delta (the Put cost is part of the real delta
			// cycle and is included).
			Name: "delta-encode", Entries: deltaDirty,
			New: func() func() (int, error) {
				s := populatedStore(0)
				ks := s.Keyed("bids")
				return func() (int, error) {
					for i := 0; i < deltaDirty; i++ {
						ks.Put(uint64(i), ks.Get(uint64(i)))
					}
					b, err := s.DeltaSnapshot()
					return len(b), err
				}
			},
		},
	}
}

// MeasureSnapshot runs one snapshot scenario via testing.Benchmark and
// converts it to a per-entry Result.
func MeasureSnapshot(sc SnapshotScenario) Result {
	op := sc.New()
	var lastBytes int
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := op()
			if err != nil {
				// b.Fatal on a testing.Benchmark-driven B has no runner
				// to unwind to; a broken scenario must abort loudly.
				panic(fmt.Sprintf("hotbench: %s: %v", sc.Name, err))
			}
			lastBytes = n
		}
	})
	perEntryNs := float64(r.NsPerOp()) / float64(sc.Entries)
	res := Result{
		Scenario:    sc.Name,
		NsPerElem:   perEntryNs,
		AllocsPerOp: float64(r.AllocsPerOp()) / float64(sc.Entries),
		BytesPerOp:  float64(r.AllocedBytesPerOp()) / float64(sc.Entries),
		WireBytes:   uint64(lastBytes),
	}
	if perEntryNs > 0 {
		res.ElemsPerSec = float64(time.Second) / perEntryNs
		res.MBPerSec = float64(lastBytes) / (float64(r.NsPerOp()) / float64(time.Second)) / (1 << 20)
	}
	return res
}
