package harness

import (
	"fmt"
	"io"
	"time"

	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/metrics"
	"clonos/internal/nexmark"
	"clonos/internal/services"
	"clonos/internal/synthetic"
	"clonos/internal/types"
)

// Fig6Options scales the failure experiments.
type Fig6Options struct {
	// Parallelism for the NEXMark runs.
	Parallelism int
	// Rate in events/second.
	Rate int
	// Duration per run; the failure is injected at 40% of it.
	Duration time.Duration
	// Synthetic shapes the multiple/concurrent-failure workload
	// (Figures 6c/6d/6g/6h).
	Synthetic synthetic.Config
	// MultiRate is the generator rate for the multi-failure runs; three
	// back-to-back recoveries leave a backlog that must drain on the same
	// core that serves live traffic, so it needs more headroom than the
	// single-failure rate. 0 means Rate.
	MultiRate int
	// StaggerGap separates the staggered failures (the paper used 5 s).
	StaggerGap time.Duration
	// Repeats takes the median of the recovery metrics over this many
	// runs per system (default 1): a single run's scalar rides on the
	// noise of its own pre-failure latency envelope.
	Repeats int
}

// DefaultFig6Options returns laptop-scale settings. The rate must stay
// below the host's capacity (these experiments measure recovery, not
// saturation); the defaults suit a single-core CI box.
func DefaultFig6Options() Fig6Options {
	syn := synthetic.DefaultConfig()
	syn.Parallelism = 2
	syn.Depth = 3
	return Fig6Options{
		Parallelism: 2,
		Rate:        6000,
		Duration:    12 * time.Second,
		Synthetic:   syn,
		MultiRate:   4500,
		StaggerGap:  1500 * time.Millisecond,
		Repeats:     3,
	}
}

// Fig6Result is one (experiment, system) failure run.
type Fig6Result struct {
	Experiment string
	System     string
	Run        RunResult
	Summary    recoverySummary
	// Recoveries holds every repeat's recovery time (not just the
	// median), so percentiles survive into the machine-readable report.
	Recoveries []RecoverySample
}

// RecoverySample is one repeat's recovery measurement.
type RecoverySample struct {
	RecoveryMs float64 `json:"recovery_ms"`
	OK         bool    `json:"ok"`
}

func recoverySamples(sums []recoverySummary) []RecoverySample {
	out := make([]RecoverySample, 0, len(sums))
	for _, s := range sums {
		out = append(out, RecoverySample{RecoveryMs: durMs(s.Recovery), OK: s.RecoveryOK})
	}
	return out
}

// fig6Systems fixes the comparison (and print) order.
var fig6Systems = []string{"clonos", "flink"}

// fig6Configs returns the Clonos and Flink configurations compared in
// every Figure 6 plot.
func fig6Configs() map[string]job.Config {
	clonos := job.DefaultConfig()
	clonos.Mode = job.ModeClonos
	clonos.DSD = 0 // full, as in the multi-failure experiments
	flink := job.DefaultConfig()
	flink.Mode = job.ModeGlobal
	flink.Standby = false
	return map[string]job.Config{"clonos": clonos, "flink": flink}
}

// Fig6Single reproduces Figures 6a/6e (query Q3) and 6b/6f (query Q8):
// latency and throughput time series around a single operator failure,
// for Clonos and the global-rollback baseline.
func Fig6Single(w io.Writer, query string, failVertex int32, opt Fig6Options) ([]Fig6Result, error) {
	configs := fig6Configs()
	repeats := opt.Repeats
	if repeats < 1 {
		repeats = 1
	}
	runs := make(map[string][]RunResult)
	sums := make(map[string][]recoverySummary)
	// Interleave repeats across systems so drift affects both equally.
	for rep := 0; rep < repeats; rep++ {
		for _, system := range fig6Systems {
			cfg := configs[system]
			cfg.World = services.NewExternalWorld()
			failAt := time.Duration(float64(opt.Duration) * 0.4)
			res, err := Run(RunSpec{
				Name:      fmt.Sprintf("fig6-%s-%s", query, system),
				Cfg:       cfg,
				SinkDedup: true,
				NewTopic:  func() *kafkasim.Topic { return kafkasim.NewTopic("nexmark", opt.Parallelism*2) },
				Build: func(topic *kafkasim.Topic, sink *kafkasim.SinkTopic) (*job.Graph, error) {
					return nexmark.Build(query, topic, sink, nexmark.DefaultQueryConfig(opt.Parallelism))
				},
				StartDriver: func(topic *kafkasim.Topic) func() {
					d := nexmark.NewDriver(topic, nexmark.DefaultGeneratorConfig(7), opt.Rate, 0)
					d.Start()
					return d.Stop
				},
				Duration: opt.Duration,
				Failures: []FailurePlan{{After: failAt, Task: types.TaskID{Vertex: types.VertexID(failVertex), Subtask: 0}}},
			})
			if err != nil {
				return nil, err
			}
			runs[system] = append(runs[system], res)
			sums[system] = append(sums[system], summarizeRecovery(res, 0))
		}
	}
	var out []Fig6Result
	for _, system := range fig6Systems {
		med, idx := medianSummary(sums[system])
		out = append(out, Fig6Result{Experiment: query, System: system, Run: runs[system][idx], Summary: med,
			Recoveries: recoverySamples(sums[system])})
	}
	if w != nil {
		PrintFig6(w, fmt.Sprintf("single failure, NEXMark %s (Figures 6a/6e style, median of %d)", query, repeats), out)
	}
	return out, nil
}

// Fig6Multi reproduces Figures 6c/6g (three staggered failures) and
// 6d/6h (three concurrent failures) on the synthetic pipeline with
// connected dataflows.
func Fig6Multi(w io.Writer, concurrent bool, opt Fig6Options) ([]Fig6Result, error) {
	syn := opt.Synthetic
	// Three failures leave a much larger backlog than one: extend the run
	// past opt.Duration so the catch-up can finish and the §7.4 recovery
	// metric (which requires latency to settle for the rest of the run)
	// has something to observe. Failures stay anchored to opt.Duration.
	dur := opt.Duration + 2*opt.StaggerGap + 5*time.Second
	rate := opt.MultiRate
	if rate <= 0 {
		rate = opt.Rate
	}
	repeats := opt.Repeats
	if repeats < 1 {
		repeats = 1
	}
	configs := fig6Configs()
	runs := make(map[string][]RunResult)
	sums := make(map[string][]recoverySummary)
	failAt := time.Duration(float64(opt.Duration) * 0.35)
	// Three failures on connected dataflow stages (hash shuffles):
	// stage0[0] -> stage1[0] -> stage2[0].
	var failures []FailurePlan
	for i := 0; i < 3 && i < syn.Depth; i++ {
		after := failAt
		if !concurrent {
			after += time.Duration(i) * opt.StaggerGap
		}
		failures = append(failures, FailurePlan{
			After: after,
			Task:  types.TaskID{Vertex: types.VertexID(i + 1), Subtask: 0},
		})
	}
	for rep := 0; rep < repeats; rep++ {
		for _, system := range fig6Systems {
			res, err := Run(RunSpec{
				Name:      fmt.Sprintf("fig6-multi-%v-%s", concurrent, system),
				Cfg:       configs[system],
				SinkDedup: true,
				NewTopic:  func() *kafkasim.Topic { return kafkasim.NewTopic("syn", syn.Parallelism*2) },
				Build: func(topic *kafkasim.Topic, sink *kafkasim.SinkTopic) (*job.Graph, error) {
					return synthetic.Build(topic, sink, syn), nil
				},
				StartDriver: func(topic *kafkasim.Topic) func() {
					d := synthetic.Drive(topic, syn, rate, 0)
					d.Start()
					return d.Stop
				},
				Duration: dur,
				Failures: failures,
			})
			if err != nil {
				return nil, err
			}
			runs[system] = append(runs[system], res)
			sums[system] = append(sums[system], summarizeRecovery(res, len(failures)-1))
		}
	}
	label := "staggered"
	if concurrent {
		label = "concurrent"
	}
	var out []Fig6Result
	for _, system := range fig6Systems {
		med, idx := medianSummary(sums[system])
		out = append(out, Fig6Result{Experiment: label, System: system, Run: runs[system][idx], Summary: med,
			Recoveries: recoverySamples(sums[system])})
	}
	if w != nil {
		name := fmt.Sprintf("three staggered failures (Figures 6c/6g style, median of %d)", repeats)
		if concurrent {
			name = fmt.Sprintf("three concurrent failures (Figures 6d/6h style, median of %d)", repeats)
		}
		PrintFig6(w, name, out)
	}
	return out, nil
}

// PrintFig6 renders the summary table plus the latency/throughput time
// series of each system (the data behind the paper's scatter plots).
func PrintFig6(w io.Writer, title string, results []Fig6Result) {
	fmt.Fprintf(w, "\n%s\n", title)
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.System,
			fmtDur(r.Summary.Detection, r.Summary.Detection > 0),
			fmtDur(r.Summary.Activation, r.Summary.Activation > 0),
			fmtDur(r.Summary.Recovery, r.Summary.RecoveryOK),
			r.Summary.ThroughputGap.Round(10 * time.Millisecond).String(),
			fmt.Sprintf("%d", r.Run.SinkCount),
			fmt.Sprintf("%v", r.Summary.Restarted),
		})
	}
	table(w, []string{"system", "detect", "activate", "recovery(10% lat)", "tput gap", "records", "global restart"}, rows)

	for _, r := range results {
		if len(r.Summary.Phases) > 0 {
			fmt.Fprintf(w, "%s recovery phases: %s\n", r.System, fmtPhases(r.Summary.Phases))
		}
	}

	for _, r := range results {
		fmt.Fprintf(w, "\n%s time series (t since start; latency p50/p99 per bucket; records/s):\n", r.System)
		printSeries(w, r.Run)
	}
}

// printSeries buckets the run into ~500 ms rows matching the figures'
// x-axis: experiment time vs latency and throughput.
func printSeries(w io.Writer, res RunResult) {
	const bucket = 500 * time.Millisecond
	startMs := res.Start.UnixMilli()
	// Latency buckets.
	type agg struct{ vals []int64 }
	buckets := map[int64]*agg{}
	var maxB int64
	for _, p := range res.Latency {
		b := (p.ArrivalMs - startMs) / bucket.Milliseconds()
		if b < 0 {
			continue
		}
		a := buckets[b]
		if a == nil {
			a = &agg{}
			buckets[b] = a
		}
		a.vals = append(a.vals, p.LatencyMs)
		if b > maxB {
			maxB = b
		}
	}
	// Throughput per bucket from samples.
	tput := map[int64][]float64{}
	for _, s := range res.Samples {
		b := (s.At.UnixMilli() - startMs) / bucket.Milliseconds()
		tput[b] = append(tput[b], s.PerSec)
	}
	failMarks := map[int64]bool{}
	for _, ft := range res.FailTimes {
		failMarks[(ft.UnixMilli()-startMs)/bucket.Milliseconds()] = true
	}
	for b := int64(0); b <= maxB; b++ {
		mark := " "
		if failMarks[b] {
			mark = "X"
		}
		var p50, p99 int64
		if a := buckets[b]; a != nil {
			p50 = metrics.Percentile(a.vals, 0.5)
			p99 = metrics.Percentile(a.vals, 0.99)
		}
		fmt.Fprintf(w, "  %s t=%5.1fs  lat p50=%6dms p99=%6dms  tput=%9.0f/s\n",
			mark, float64(b)*bucket.Seconds(), p50, p99, metrics.MeanF(tput[b]))
	}
}
