package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"clonos/internal/inflight"
	"clonos/internal/metrics"
	"clonos/internal/synthetic"
)

func TestTable1Prints(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Millwheel", "Streamscope", "Timestream", "Rhino", "Clonos"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestFig5SingleQuerySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	opt := DefaultFig5Options()
	opt.Queries = []string{"Q1"}
	opt.Repeats = 1
	opt.Duration = 2 * time.Second
	var buf bytes.Buffer
	rows, err := Fig5(&buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Query != "Q1" {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.Flink <= 0 || r.DSD1 <= 0 || r.DSDFull <= 0 {
		t.Fatalf("zero throughput: %+v", r)
	}
	// A throughput ratio over two 2 s runs is a benchmark, not a test:
	// log it only.
	t.Logf("rel DSD=1 = %.2f, rel DSD=full = %.2f", r.RelDSD1, r.RelDSDFull)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("figure table not printed")
	}
}

func TestFig6SingleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	opt := DefaultFig6Options()
	opt.Duration = 5 * time.Second
	var buf bytes.Buffer
	results, err := Fig6Single(&buf, "Q3", 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	byName := map[string]Fig6Result{}
	for _, r := range results {
		byName[r.System] = r
		for _, e := range r.Run.Errors {
			t.Errorf("%s error: %v", r.System, e)
		}
	}
	// Shape: the baseline performs a global restart, Clonos does not.
	if byName["flink"].Summary.Restarted != true {
		t.Error("flink run did not globally restart")
	}
	if byName["clonos"].Summary.Restarted {
		t.Error("clonos run globally restarted")
	}
	// The failure instant is the runtime's injection event, so a detection
	// that follows the crash within microseconds still lands after it: the
	// summary must see it, and the recovery span it opened.
	if sum := byName["clonos"].Summary; sum.Detection <= 0 || len(sum.Phases) == 0 {
		t.Errorf("clonos summary lost the recovery: detection=%v phases=%v", sum.Detection, sum.Phases)
	}
	if !strings.Contains(buf.String(), "time series") {
		t.Error("series not printed")
	}
}

func TestMemStudySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	opt := DefaultMemOptions()
	opt.Duration = 1500 * time.Millisecond
	opt.PoolSizes = []int{64}
	syn := synthetic.DefaultConfig()
	syn.Depth = 1
	opt.Synthetic = syn
	var buf bytes.Buffer
	rows, err := MemStudy(&buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want one per policy", len(rows))
	}
	byPolicy := map[inflight.Policy]MemRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	if len(byPolicy) != 4 {
		t.Fatalf("policies covered: %v", byPolicy)
	}
	// §7.5 shape: the spilling policies keep the pipeline moving even
	// with a small pool; in-memory (and spill-epoch, which retains the
	// whole current epoch) may stall — that is the paper's finding, not
	// a failure.
	if byPolicy[inflight.PolicySpillThreshold].Throughput <= 0 {
		t.Error("spill-threshold stalled")
	}
	if byPolicy[inflight.PolicySpillBuffer].Throughput <= 0 {
		t.Error("spill-buffer stalled")
	}
	if byPolicy[inflight.PolicySpillThreshold].Throughput < byPolicy[inflight.PolicyInMemory].Throughput {
		t.Error("spill-threshold slower than in-memory at a small pool")
	}
}

func TestSteadyThroughput(t *testing.T) {
	samples := []metrics.ThroughputSample{
		{PerSec: 0}, {PerSec: 0}, // warmup
		{PerSec: 100}, {PerSec: 110}, {PerSec: 90},
	}
	got := SteadyThroughput(samples, 0.4)
	if got != 100 {
		t.Fatalf("steady = %v, want 100", got)
	}
	if SteadyThroughput(nil, 0.5) != 0 {
		t.Fatal("empty samples nonzero")
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	table(&buf, []string{"a", "bbbb"}, [][]string{{"xxx", "y"}})
	out := buf.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "xxx") || !strings.Contains(out, "----") {
		t.Fatalf("table output:\n%s", out)
	}
}
