package main

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"clonos/internal/types"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolatesInsideBucket(t *testing.T) {
	var h latencyHist
	for i := 0; i < 100; i++ {
		h.add(10) // latencies in [10, 11) ms
	}
	for i := 0; i < 100; i++ {
		h.add(20)
	}
	if got := h.percentile(0.25); !near(got, 10.5) {
		t.Errorf("p25 = %v, want 10.5: half way through the 10 ms bucket", got)
	}
	if got := h.percentile(0.75); !near(got, 20.5) {
		t.Errorf("p75 = %v, want 20.5", got)
	}
	h.missing = 200 // as many again never arrived
	if got := h.percentile(0.5); !near(got, 21) {
		t.Errorf("p50 with half missing = %v, want 21: the end of the last bucket", got)
	}
	if got := h.percentile(0.51); !math.IsInf(got, 1) {
		t.Errorf("p51 with half missing = %v, want +Inf", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	var h latencyHist
	for i := 0; i < 999; i++ {
		h.add(1)
	}
	if h.supports(0.99) {
		t.Error("999 samples leave 9.99 beyond p99: not supported")
	}
	h.add(1)
	if !h.supports(0.99) {
		t.Error("1000 samples leave 10 beyond p99: supported")
	}
	if h.supports(0.999) {
		t.Error("1000 samples do not support p99.9")
	}
}

func TestLateShareCountsMissingRecords(t *testing.T) {
	var h latencyHist
	for i := 0; i < 90; i++ {
		h.add(250) // exactly at the limit: on time
	}
	for i := 0; i < 6; i++ {
		h.add(251)
	}
	h.missing = 4
	if got := h.lateShare(250); !near(got, 0.10) {
		t.Errorf("late share = %v, want 0.10 (6 late + 4 missing of 100)", got)
	}
}

func TestMedianOfSegments(t *testing.T) {
	st := overSegments([]float64{7, 100, 5, 6, 8}) // one noisy segment
	if st.Median != 7 || st.Min != 5 || st.Max != 100 {
		t.Errorf("got %+v, want median 7 min 5 max 100", st)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestRoundsFoldIntoOneVerdict(t *testing.T) {
	a := &verdict{attempted: 10, failed: 1, problems: []string{"x"},
		metrics: map[string]float64{"m": 1, "job.late_record_share": 0.2},
		series:  map[string][]float64{"m": {1, 2, 3}}}
	b := &verdict{attempted: 5,
		metrics: map[string]float64{"m": 100, "job.late_record_share": 0.4},
		series:  map[string][]float64{"m": {100, 100}}}
	v := summarize([]*verdict{a, b})
	if v.attempted != 15 || v.failed != 1 || len(v.problems) != 1 {
		t.Errorf("attempted, failed, problems = %d, %d, %v", v.attempted, v.failed, v.problems)
	}
	// Per segment: the median of all five segments, not of the two rounds' medians.
	if v.metrics["m"] != 3 || len(v.series["m"]) != 5 {
		t.Errorf("m = %v over %v, want the pooled median 3", v.metrics["m"], v.series["m"])
	}
	if !near(v.metrics["job.late_record_share"], 0.3) {
		t.Errorf("a per-round metric = %v, want the median of the rounds, 0.3", v.metrics["job.late_record_share"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread(v); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps 2: covered once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // sticks out: clipped to the parent
		{ID: 5, Parent: 3, Start: 25, End: 30},   // a grandchild is its parent's business
		{ID: 6, Parent: 99, Start: 0, End: 1000}, // an orphan changes nothing
	}
	self := selfTimes(spans)
	if self[1] != 100-40-10 {
		t.Errorf("root self time = %d, want 50", self[1])
	}
	if self[3] != 25 || self[2] != 20 {
		t.Errorf("child self times = %d, %d, want 20, 25", self[2], self[3])
	}
}

// fakeCheckpoints is a checkpoint counter the test advances by hand.
type fakeCheckpoints struct {
	mu      sync.Mutex
	cp      types.CheckpointID
	changed chan struct{}
}

func (f *fakeCheckpoints) LatestCompletedCheckpoint() types.CheckpointID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cp
}

func (f *fakeCheckpoints) WaitForCheckpoint(cp types.CheckpointID, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		f.mu.Lock()
		reached, changed := f.cp >= cp, f.changed
		f.mu.Unlock()
		if reached {
			return true
		}
		select {
		case <-changed:
		case <-deadline:
			return false
		}
	}
}

func (f *fakeCheckpoints) advance() {
	f.mu.Lock()
	f.cp++
	close(f.changed)
	f.changed = make(chan struct{})
	f.mu.Unlock()
}

func TestKillsArePhaseLockedToCheckpoints(t *testing.T) {
	const every, delay = 200 * time.Millisecond, 20 * time.Millisecond
	cps := &fakeCheckpoints{changed: make(chan struct{})}
	injected := make(chan time.Time, 2)
	victims := killVictims(2, 1)
	done := make(chan []kill)
	go func() {
		done <- runKills(cps, func(types.TaskID) error { injected <- time.Now(); return nil }, time.Now(), every, delay, victims)
	}()

	// No checkpoint, no kill: the grid time alone does not fire one.
	select {
	case <-injected:
		t.Fatal("killed before any checkpoint completed")
	case <-time.After(every / 2):
	}
	advanced := time.Now()
	cps.advance()
	at := <-injected
	if at.Sub(advanced) < delay {
		t.Errorf("killed %v after the checkpoint, want at least %v", at.Sub(advanced), delay)
	}
	// The second kill never sees a checkpoint: it must be given up, not made.
	kills := <-done
	if len(injected) != 0 {
		t.Error("second kill was made without a checkpoint")
	}
	if kills[0].err != "" || kills[0].at.IsZero() || kills[0].victim != victims[0] {
		t.Errorf("first kill = %+v", kills[0])
	}
	if kills[1].err == "" || !kills[1].at.IsZero() {
		t.Errorf("second kill = %+v, want an error and no time", kills[1])
	}
}

func TestKillVictimsRotateFromTheSeed(t *testing.T) {
	a, b := killVictims(5, 1), killVictims(5, 2)
	if a[1] != b[0] || a[4] != a[0] {
		t.Errorf("seed 1: %v, seed 2: %v: want one rotation of four, shifted by the seed", a, b)
	}
	for _, v := range a {
		if v.Vertex < 1 || v.Vertex > 3 {
			t.Errorf("victim %v is not a stage task", v)
		}
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	w, _ := findWorkload("syn-hot")
	a, b, c := buildInputs(w, 7), buildInputs(w, 7), buildInputs(w, 8)
	if a.record(12345, 1) != b.record(12345, 1) {
		t.Error("same seed, different record")
	}
	if a.record(12345, 1) == c.record(12345, 1) {
		t.Error("different seed, same record")
	}
	// Every input is one sink record, and the wrap keeps the counts right.
	n := int64(synValues + 10)
	if got := a.outputs(n); got != n {
		t.Errorf("outputs(%d) = %d", n, got)
	}
	want := a.want(n)
	if want[0] != 2 || want[10] != 1 {
		t.Errorf("want[0], want[10] = %d, %d; values 0..9 occur twice in %d inputs", want[0], want[10], n)
	}
	if j, ok := a.slotOf(a.record(3, 0).Value); !ok || j != 3 {
		t.Errorf("slotOf(record 3) = %d, %v", j, ok)
	}
	if _, ok := a.slotOf(a.base - 1); ok {
		t.Error("a value outside the input range has a slot")
	}
}

func TestFamilyParsesFlattenedRegistryKeys(t *testing.T) {
	vals := map[string]float64{
		`x_total{subtask="0",vertex="src"}`:         1,
		`x_total{subtask="1",vertex="sink"}`:        2,
		`x_total_more{subtask="0",vertex="src"}`:    100, // another family
		`h_seconds{subtask="0",vertex="src"}_sum`:   0.5,
		`h_seconds{subtask="0",vertex="src"}_count`: 4,
		`bare_total`: 7,
		`w_ns{pool="output",subtask="1",vertex="a"}`: 9,
	}
	if got := sumFamily(vals, "x_total", "", ""); got != 3 {
		t.Errorf("sum x_total = %v, want 3", got)
	}
	if got := sumFamily(vals, "x_total", "", "sink"); got != 2 {
		t.Errorf("sum x_total of sink = %v, want 2", got)
	}
	if got := sumFamily(vals, "h_seconds", "_sum", ""); got != 0.5 {
		t.Errorf("h_seconds sum = %v", got)
	}
	if got := sumFamily(vals, "bare_total", "", ""); got != 7 {
		t.Errorf("bare_total = %v", got)
	}
	for labels := range family(vals, "w_ns", "") {
		if got := taskOf(labels); got != "a[1]" {
			t.Errorf("taskOf(%s) = %s", labels, got)
		}
	}
}

// TestBenchmarkFile checks that the benchmark's tables render to a file
// inside the PR driver's limits, that the file survives a round trip
// with no key added or lost, and that the committed BENCHMARK.json is
// what the tables render to (bounds aside, which -calibrate sets).
func TestBenchmarkFile(t *testing.T) {
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.Name] = 0.1
	}
	f := newBenchmarkFile(defaultSeconds, bounds)
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("top-level keys: %d, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	var back benchmarkFile
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(f, back) {
		t.Errorf("round trip changed the file: %v", err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range f.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		use(m.Name)
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
	}
	if !setup || len(f.EndToEnd) > 16 {
		t.Error("end_to_end needs setup_s in s, lower, and at most 16 metrics")
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range f.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it is expected to move", d.Name)
		}
	}
	// A run is its window plus, per round, the warm-up and about half a
	// second of set-up, drain and checking, plus ~2 s of extra set-ups.
	total := 4 + 22*len(f.Workloads)
	perRun := float64(f.RunSeconds) + rounds*(warmup.Seconds()+0.5) + 2
	if f.RunSeconds < 1 || f.RunSeconds > 60 || float64(total)*perRun > 0.9*3420 {
		t.Errorf("run_seconds %d: %d runs of ~%.0f s do not fit 3420 s with a tenth to spare", f.RunSeconds, total, perRun)
	}

	var committed benchmarkFile
	if err := readJSON("../BENCHMARK.json", &committed); err != nil {
		t.Fatal(err)
	}
	for i := range committed.EndToEnd {
		if b := committed.EndToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("committed bound of %s is %v", committed.EndToEnd[i].Name, b)
		}
		committed.EndToEnd[i].Bound = 0.1
	}
	if !reflect.DeepEqual(f, committed) {
		t.Error("../BENCHMARK.json is not what spec.go renders; run `bash bench/run.sh -calibrate`")
	}
}

// TestSmoke runs the whole benchmark on syn-hot with 2 s windows, both
// passes, so it cannot rot while the engine's API moves.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine for ~8 s")
	}
	if err := runSmoke(1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
