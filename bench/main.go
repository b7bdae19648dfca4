// Command bench is the repository's one benchmark: five workloads on the
// real engine, measured from outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run once, printing the PR driver's result line; empty runs every workload")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs, key order and kill victims")
		seconds   = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace     = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 the per-layer metrics in a traced run")
		outDir    = flag.String("out", "bench/out", "directory for trace-<workload>.jsonl and set.json")
		runs      = flag.Int("runs", 1, "without -workload: untraced runs per workload, on seeds seed, seed+1, ...")
		smoke     = flag.Bool("smoke", false, "run syn-hot only, untraced and traced, with 2 s windows")
		doCal     = flag.Bool("calibrate", false, "run -runs untraced sets (default 5), or take the result set named as `set.json`, then write the bounds to -benchmark and the measured spreads to bench/calibration.json")
		doCompare = flag.Bool("compare", false, "compare two result sets, `a.json b.json`, cell by cell against the bounds in -benchmark")
		benchPath = flag.String("benchmark", "BENCHMARK.json", "the benchmark's definition file")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	switch {
	case *doCompare:
		var a, b resultSet
		var bench benchmarkFile
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two result sets"))
		}
		for _, err := range []error{readJSON(flag.Arg(0), &a), readJSON(flag.Arg(1), &b), readJSON(*benchPath, &bench)} {
			if err != nil {
				fail(err)
			}
		}
		if !compare(&a, &b, bench) {
			os.Exit(1)
		}
	case *doCal && flag.NArg() == 1:
		var set resultSet
		if err := readJSON(flag.Arg(0), &set); err != nil {
			fail(err)
		}
		if err := calibrate(&set, *benchPath, "bench/calibration.json"); err != nil {
			fail(err)
		}
	case *smoke:
		if err := runSmoke(*seed, *outDir); err != nil {
			fail(err)
		}
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		v, err := measure(w, *seed, runOpts{window: time.Duration(*seconds) * time.Second, warmup: warmup}, *trace == 1, *outDir)
		if err != nil {
			fail(err)
		}
		for _, p := range v.problems {
			fmt.Fprintln(os.Stderr, "bench:", w.Name+":", p)
		}
		printResult(v, *trace == 1)
	default:
		if *doCal && *runs == 1 {
			*runs = 5
		}
		seeds := make([]int64, *runs)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		set, ok, err := runAll(seeds, *seconds, !*doCal, *outDir)
		if err != nil {
			fail(err)
		}
		if *doCal {
			if err := calibrate(set, *benchPath, "bench/calibration.json"); err != nil {
				fail(err)
			}
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// runSmoke is the benchmark's self-test: syn-hot only, short windows,
// both passes, every metric of both lists produced and the run correct.
func runSmoke(seed int64, outDir string) error {
	w, _ := findWorkload("syn-hot")
	for _, pass := range []struct {
		traced bool
		defs   []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		v, err := measure(w, seed, runOpts{window: 2 * time.Second, warmup: time.Second / 2}, pass.traced, outDir)
		if err != nil {
			return err
		}
		if v.failed > 0 {
			return fmt.Errorf("smoke: %d of %d failed: %v", v.failed, v.attempted, v.problems)
		}
		for _, d := range pass.defs {
			if _, ok := v.metrics[d.Name]; !ok {
				return fmt.Errorf("smoke: metric %s was not produced", d.Name)
			}
		}
	}
	return nil
}

// measure runs one workload once and judges it. Untraced, the window is
// shared out over the workload's rounds, each a fresh job with nothing
// added: the end-to-end metrics. Traced, the time is split between one
// sampled job run, the layer replays and the workload's reference run,
// for the per-layer metrics; the spans go to
// outDir/trace-<workload>.jsonl.
func measure(w workload, seed int64, opts runOpts, traced bool, outDir string) (*verdict, error) {
	began := time.Now()
	in := buildInputs(w, seed)
	inputBuild := time.Since(began).Seconds()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(engineProcs))
	window, n := opts.window, rounds
	opts.window = window / time.Duration(n)
	opts.nseg = max(1, int(opts.window/w.Segment))
	if traced {
		// One round of an even number of segments, sampled alternately.
		n, opts.nseg = 1, max(2, int(window*55/100/w.Segment)/2*2)
		opts.window, opts.sample = time.Duration(opts.nseg)*w.Segment, true
	}
	var d *runData
	var each []*verdict
	for r := 0; r < n; r++ {
		var err error
		opts.seed = seed + int64(r) // the kill victims rotate on
		if d, err = runJob(w, in, opts); err != nil {
			return nil, err
		}
		rv := &verdict{metrics: map[string]float64{}}
		d.check(rv)
		d.endToEnd(rv)
		d.observed(rv)
		each = append(each, rv)
		fmt.Fprintf(os.Stderr, "bench: %s round %d of %d:", w.Name, r+1, n)
		for _, def := range endToEnd {
			fmt.Fprintf(os.Stderr, " %s %.4f", def.Name, rv.metrics[def.Name])
		}
		fmt.Fprintln(os.Stderr)
		d.sink = nil // up to a GiB on syn-saturated, and judged already
		runtime.GC() // the next round's window does not pay for this one's garbage
	}
	v := summarize(each)
	v.metrics["bench.input_build_s"] = inputBuild
	v.metrics["job.failed_share"] = float64(v.failed) / float64(v.attempted)
	if !traced {
		setups, err := timeSetups(w, in, setupExtra)
		if err != nil {
			return nil, err
		}
		v.metrics["setup_s"] = median(append(setups, v.series["setup_s"]...))
		return v, nil
	}

	rec := &recorder{}
	if err := replayLayers(w, in, int(v.metrics["job.records_per_buffer"]+0.5), rec, v.metrics); err != nil {
		v.fail(1, "layer replay: %v", err)
	}
	// Each is 0 on the workloads whose reference run is not of its kind.
	v.metrics["job.overhead_vs_global"], v.metrics["job.throughput_rps_nproc"] = 0, 0
	if w.Reference != "" {
		nseg := max(1, int(window*3/10/w.Segment))
		ref, err := runJob(w, in, runOpts{window: time.Duration(nseg) * w.Segment, warmup: opts.warmup, nseg: nseg, reference: true, seed: seed})
		if err != nil {
			return nil, fmt.Errorf("reference run (%s): %w", w.Reference, err)
		}
		rv := &verdict{metrics: map[string]float64{}}
		ref.check(rv)
		ref.endToEnd(rv)
		v.attempted += rv.attempted
		v.fail(rv.failed, "reference run (%s): %v", w.Reference, rv.problems)
		if w.Reference == "global" {
			v.metrics["job.overhead_vs_global"] = v.metrics["cpu_us_per_record"] / rv.metrics["cpu_us_per_record"]
		} else {
			v.metrics["job.throughput_rps_nproc"] = rv.metrics["throughput_p50_rps"]
		}
	}
	path, err := writeTrace(outDir, w.Name, d.engineTrace, d.samples, rec.spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "bench: trace written to", path)
	return v, nil
}

// result is the line the PR driver reads: the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(v *verdict, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	names := make([]string, 0, len(v.metrics))
	for name := range v.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "%-40s %14.4f", name, v.metrics[name])
		if x := v.series[name]; len(x) > 1 {
			st := overSegments(x)
			fmt.Fprintf(os.Stderr, "   of %d: %.4f .. %.4f", len(x), st.Min, st.Max)
		}
		fmt.Fprintln(os.Stderr)
	}
	res := result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]resultValue{}}
	for _, def := range defs {
		res.Metrics[def.Name] = resultValue{v.metrics[def.Name], def.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // only NaN or Inf values fail to encode, and none are reported
	}
	fmt.Println(string(line))
}
