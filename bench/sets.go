package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json: exactly these keys, as the PR driver
// requires.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []layerMetric   `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// newBenchmarkFile renders the benchmark's own tables (spec.go) with
// the given bound per end-to-end metric.
func newBenchmarkFile(seconds int, bounds map[string]float64) benchmarkFile {
	f := benchmarkFile{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: seconds}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, boundedMetric{d.Name, d.Unit, d.Better, bounds[d.Name]})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, layerMetric{d.Name, d.Unit, d.Better})
	}
	return f
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runRecord is one invocation's result inside a result set.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// resultSet is what one `bench` (all workloads) or `bench -calibrate`
// leaves in -out: the input of `bench -compare`.
type resultSet struct {
	Seconds    int         `json:"seconds"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Runs       []runRecord `json:"runs"`
}

// values returns the metric's values over the set's untraced runs of
// one workload.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r.Metrics[metric])
		}
	}
	return out
}

// runChild runs one workload once in a process of its own, exactly as
// the PR driver does, and parses the result line.
func runChild(w workload, seed int64, seconds, trace int, outDir string) (runRecord, error) {
	rec := runRecord{Workload: w.Name, Seed: seed, Trace: trace}
	self, err := os.Executable()
	if err != nil {
		return rec, err
	}
	cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--out", outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return rec, fmt.Errorf("%s seed %d trace %d: %w\n%s", w.Name, seed, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return rec, fmt.Errorf("%s seed %d trace %d: result line: %w", w.Name, seed, trace, err)
	}
	rec.Correct, rec.Attempted, rec.Failed = res.Correct, res.Attempted, res.Failed
	rec.Metrics = make(map[string]float64, len(res.Metrics))
	for name, v := range res.Metrics {
		rec.Metrics[name] = v.Value
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d FAILED %d of %d:\n%s", w.Name, seed, trace, res.Failed, res.Attempted, stderr.String())
	}
	return rec, nil
}

// runAll runs every workload untraced once per seed, then traced once,
// and prints every metric by name and unit: a row per metric, a column
// per workload (the untraced median over the seeds, min..max beside it).
// The result set goes to outDir/set.json. It reports whether every run
// was correct.
func runAll(seeds []int64, seconds int, traced bool, outDir string) (*resultSet, bool, error) {
	set := &resultSet{Seconds: seconds, GoMaxProcs: engineProcs}
	ok := true
	for _, w := range workloads {
		for _, seed := range seeds {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d\n", w.Name, seed)
			rec, err := runChild(w, seed, seconds, 0, outDir)
			if err != nil {
				return nil, false, err
			}
			set.Runs = append(set.Runs, rec)
			ok = ok && rec.Correct
		}
		if traced {
			fmt.Fprintf(os.Stderr, "bench: %s traced\n", w.Name)
			rec, err := runChild(w, seeds[0], seconds, 1, outDir)
			if err != nil {
				return nil, false, err
			}
			set.Runs = append(set.Runs, rec)
			ok = ok && rec.Correct
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "metric\tunit")
	for _, w := range workloads {
		fmt.Fprint(tw, "\t", w.Name)
	}
	fmt.Fprintln(tw)
	for _, d := range endToEnd {
		fmt.Fprint(tw, d.Name, "\t", d.Unit)
		for _, w := range workloads {
			v := set.values(w.Name, d.Name)
			st := overSegments(v)
			fmt.Fprintf(tw, "\t%.4g", st.Median)
			if len(v) > 1 {
				fmt.Fprintf(tw, " [%.4g..%.4g]", st.Min, st.Max)
			}
		}
		fmt.Fprintln(tw)
	}
	for _, d := range perLayer {
		if !traced {
			break
		}
		fmt.Fprint(tw, d.Name, "\t", d.Unit)
		for _, w := range workloads {
			for _, r := range set.Runs {
				if r.Workload == w.Name && r.Trace == 1 {
					fmt.Fprintf(tw, "\t%.4g", r.Metrics[d.Name])
				}
			}
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return nil, false, err
	}
	return set, ok, writeJSON(filepath.Join(outDir, "set.json"), set)
}

// cellSpread is the calibration record of one (metric, workload) cell.
type cellSpread struct {
	Metric   string    `json:"metric"`
	Workload string    `json:"workload"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	// IQRShare is the spread the PR driver computes: the interquartile
	// distance over the median. RangeShare is (max-min)/median.
	IQRShare   float64 `json:"iqr_share"`
	RangeShare float64 `json:"range_share"`
}

const (
	minBound = 0.05
	maxBound = 0.25 // the contract's cap; setup_s always gets it
)

// calibrate derives each end-to-end metric's bound from a result set:
// max(0.05, 2 x range/median, 4 x IQR/median) over the workloads,
// capped at 0.25, so the driver's own spread (IQR/median) sits at a
// quarter of the bound or less where the cap allows. It writes
// BENCHMARK.json and, beside the benchmark, the measured spreads.
func calibrate(set *resultSet, benchmarkPath, calibrationPath string) error {
	bounds := map[string]float64{}
	var cells []cellSpread
	for _, d := range endToEnd {
		bound := minBound
		for _, w := range workloads {
			v := set.values(w.Name, d.Name)
			st := overSegments(v)
			c := cellSpread{d.Name, w.Name, v, st.Median, spread(v), (st.Max - st.Min) / st.Median}
			cells = append(cells, c)
			bound = max(bound, 2*c.RangeShare, 4*c.IQRShare)
		}
		if d.Name == "setup_s" {
			bound = maxBound
		}
		// Two digits are all a calibration of this size supports.
		bounds[d.Name] = min(maxBound, math.Ceil(bound*100)/100)
	}
	if err := writeJSON(calibrationPath, cells); err != nil {
		return err
	}
	return writeJSON(benchmarkPath, newBenchmarkFile(set.Seconds, bounds))
}

// compare applies BENCHMARK.json's bounds to two result sets, cell by
// cell, and prints one row per workload. A cell is unresolved when
// either set's own spread exceeds the bound, and a regression when b's
// median is worse than a's by more than the bound. It reports whether
// there is no regression and no unresolved cell.
func compare(a, b *resultSet, bench benchmarkFile) bool {
	clean := true
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload")
	for _, m := range bench.EndToEnd {
		fmt.Fprintf(tw, "\t%s (±%.0f%%)", m.Name, 100*m.Bound)
	}
	fmt.Fprintln(tw)
	for _, w := range bench.Workloads {
		fmt.Fprint(tw, w.Name)
		for _, m := range bench.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprint(tw, "\tmissing")
				clean = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma // share by which b is worse than a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case m.Name != "setup_s" && max(spread(va), spread(vb)) > m.Bound:
				verdict, clean = "unresolved", false
			case worse > m.Bound:
				verdict, clean = "REGRESSION", false
			}
			fmt.Fprintf(tw, "\t%.4g -> %.4g %+.1f%% %s", ma, mb, 100*(mb-ma)/ma, verdict)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return clean
}
