// Package harness drives the paper's experiments (§7): it builds jobs,
// loads them through the simulated Kafka cluster, injects failures,
// samples throughput and latency the way the paper does, and prints the
// rows/series behind every table and figure — Figure 5 (overhead under
// normal operation), Figures 6a–6h (single, multiple, and concurrent
// failures), Table 1 (assumptions of related work), the §7.5 memory/spill
// study, and the §5.4 guarantee-level ablation.
package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/metrics"
	"clonos/internal/obs"
	"clonos/internal/types"
)

// FailurePlan schedules one injected task failure.
type FailurePlan struct {
	After time.Duration
	Task  types.TaskID
}

// RunSpec describes one measured job execution.
type RunSpec struct {
	Name string
	Cfg  job.Config
	// Build constructs the graph over the given topic and sink.
	Build func(topic *kafkasim.Topic, sink *kafkasim.SinkTopic) (*job.Graph, error)
	// NewTopic creates the input topic (partition count is workload
	// specific).
	NewTopic func() *kafkasim.Topic
	// StartDriver begins feeding the topic; the returned func stops it.
	StartDriver func(topic *kafkasim.Topic) func()
	// Duration is the measured wall-clock run length.
	Duration time.Duration
	// Failures to inject, timed from run start.
	Failures []FailurePlan
	// SinkDedup disables the idempotent sink when false.
	SinkDedup bool
}

// RunResult carries everything measured during a run.
type RunResult struct {
	Name       string
	Start      time.Time
	Samples    []metrics.ThroughputSample
	Latency    []metrics.LatencyPoint
	Events     []job.Event
	SinkCount  int
	Duplicates uint64
	Errors     []error
	// FailTimes are the instants of injected failures, as the runtime
	// recorded them (EventFailureInjected, stamped before the crash).
	FailTimes []time.Time
	// Spans are the runtime's ended tracer spans (recovery protocol
	// phases, global restarts).
	Spans []obs.SpanRecord
	// Obs is the run's metrics registry, kept alive for exposition.
	Obs *obs.Registry
}

// currentObs points at the registry of the run in progress, so a metrics
// endpoint started by the bench binary always serves the live run.
var currentObs atomic.Pointer[obs.Registry]

// CurrentRegistry returns the registry of the run currently executing
// (or the most recent one); nil before the first run.
func CurrentRegistry() *obs.Registry { return currentObs.Load() }

// currentTracer points at the tracer of the run in progress, backing the
// live /debug/trace endpoints across harness runs.
var currentTracer atomic.Pointer[obs.Tracer]

// CurrentTracer returns the tracer of the run currently executing (or
// the most recent one); nil before the first run.
func CurrentTracer() *obs.Tracer { return currentTracer.Load() }

// recorder, when set, flight-records every subsequent harness run.
var recorder atomic.Pointer[obs.Recorder]

// SetRecorder attaches a flight recorder to all subsequent Run calls
// (nil detaches). Each run's tracer streams its spans and events into
// the recorder; the caller owns the recorder's lifecycle (Close).
func SetRecorder(rec *obs.Recorder) { recorder.Store(rec) }

// Run executes one measured job.
func Run(spec RunSpec) (RunResult, error) {
	topic := spec.NewTopic()
	sink := kafkasim.NewSinkTopic(spec.SinkDedup)
	g, err := spec.Build(topic, sink)
	if err != nil {
		return RunResult{}, err
	}
	if spec.Cfg.Obs == nil {
		spec.Cfg.Obs = obs.NewRegistry()
	}
	if spec.Cfg.TraceSink == nil {
		if rec := recorder.Load(); rec != nil {
			spec.Cfg.TraceSink = rec
		}
	}
	currentObs.Store(spec.Cfg.Obs)
	rt, err := job.NewRuntime(g, spec.Cfg)
	if err != nil {
		return RunResult{}, err
	}
	currentTracer.Store(rt.Tracer())
	if err := rt.Start(); err != nil {
		return RunResult{}, err
	}
	defer rt.Stop()

	stopDriver := spec.StartDriver(topic)
	defer stopDriver()

	sampler := metrics.NewSampler(sink, 0)
	sampler.Start()
	defer sampler.Stop()

	res := RunResult{Name: spec.Name, Start: time.Now()}
	deadline := time.After(spec.Duration)
	pending := append([]FailurePlan(nil), spec.Failures...)
	for {
		var next <-chan time.Time
		if len(pending) > 0 {
			wait := time.Until(res.Start.Add(pending[0].After))
			if wait < 0 {
				wait = 0
			}
			next = time.After(wait)
		}
		select {
		case <-deadline:
			sampler.Stop()
			res.Samples = sampler.Samples()
			res.Latency = metrics.LatencySeries(sink.All())
			res.Events = rt.Events()
			res.SinkCount = sink.Len()
			res.Duplicates = sink.Duplicates()
			res.Errors = rt.Errors()
			res.Spans = rt.Tracer().Spans()
			res.Obs = rt.Obs()
			return res, nil
		case <-next:
			// The failure instant is the runtime's own, recorded before
			// the crash: detection follows the crash within microseconds,
			// on another goroutine, so a stamp taken after InjectFailure
			// returns can postdate the detection event and the recovery
			// span it is meant to precede.
			at := time.Now()
			if err := rt.InjectFailure(pending[0].Task); err != nil {
				res.Errors = append(res.Errors, err)
			} else if ev, ok := lastEvent(rt.Events(), job.EventFailureInjected, pending[0].Task); ok {
				at = ev.Time
			}
			res.FailTimes = append(res.FailTimes, at)
			pending = pending[1:]
		}
	}
}

// lastEvent returns the newest recorded event of one kind for one task.
func lastEvent(events []job.Event, kind job.EventKind, task types.TaskID) (job.Event, bool) {
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Kind == kind && events[i].Task == task {
			return events[i], true
		}
	}
	return job.Event{}, false
}

// SteadyThroughput is the mean sample rate after discarding the warm-up
// fraction of the run.
func SteadyThroughput(samples []metrics.ThroughputSample, warmupFrac float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	skip := int(float64(len(samples)) * warmupFrac)
	var rates []float64
	for _, s := range samples[skip:] {
		rates = append(rates, s.PerSec)
	}
	return metrics.MeanF(rates)
}

// LatencyPercentiles summarizes a run's end-to-end latency.
func LatencyPercentiles(points []metrics.LatencyPoint) (p50, p99 int64) {
	vals := metrics.Latencies(points)
	return metrics.Percentile(vals, 0.5), metrics.Percentile(vals, 0.99)
}

// table prints an aligned ASCII table.
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w)
	}
	printRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	printRow(sep)
	for _, r := range rows {
		printRow(r)
	}
}

// recoverySummary extracts the recovery metrics of a failure run.
type recoverySummary struct {
	// Detection is failure→detected; Activation failure→standby-live;
	// Recovery is the paper's latency-based metric.
	Detection  time.Duration
	Activation time.Duration
	Recovery   time.Duration
	RecoveryOK bool
	// ThroughputGap is the span of near-zero sink throughput.
	ThroughputGap time.Duration
	Restarted     bool
	// Phases is the recovery span's per-phase breakdown (empty when no
	// completed recovery span matched the failure).
	Phases []obs.Phase
}

func summarizeRecovery(res RunResult, failIdx int) recoverySummary {
	if failIdx >= len(res.FailTimes) {
		return recoverySummary{}
	}
	return summarizeRecoveryAt(res, res.FailTimes[failIdx])
}

// summarizeRecoveryAt summarizes recovery relative to an explicit failure
// instant — used when the failure was not harness-injected (crash-point
// kills record EventFaultInjected instead of populating FailTimes).
func summarizeRecoveryAt(res RunResult, failAt time.Time) recoverySummary {
	var out recoverySummary
	for _, ev := range res.Events {
		if ev.Time.Before(failAt) {
			continue
		}
		switch ev.Kind {
		case job.EventFailureDetected:
			if out.Detection == 0 {
				out.Detection = ev.Time.Sub(failAt)
			}
		case job.EventStandbyActivated, job.EventTaskLive:
			if out.Activation == 0 {
				out.Activation = ev.Time.Sub(failAt)
			}
		case job.EventGlobalRestart:
			out.Restarted = true
		}
	}
	out.Recovery, out.RecoveryOK = metrics.RecoveryTime(res.Latency, failAt.UnixMilli(), 0.10, 500)
	out.ThroughputGap = metrics.ThroughputGap(res.Samples, failAt, 0.1)
	for _, sp := range res.Spans {
		if sp.Name == job.RecoverySpanName && sp.Attr("aborted") == "" && !sp.Start.Before(failAt) {
			out.Phases = sp.Phases()
			break
		}
	}
	return out
}

// fmtPhases renders a phase breakdown ("standby-activated=1ms ...").
func fmtPhases(phases []obs.Phase) string {
	if len(phases) == 0 {
		return "n/a"
	}
	parts := make([]string, 0, len(phases))
	for _, p := range phases {
		parts = append(parts, fmt.Sprintf("%s=%s", p.Name, p.Dur.Round(100*time.Microsecond)))
	}
	return strings.Join(parts, " ")
}

// medianSummary aggregates repeated failure runs: median of each scalar
// metric, majority vote on the global-restart flag, and "never settled"
// only when at least half the repeats never settled (an unsettled run
// counts as +inf in the recovery median). It also returns the index of
// the representative run — the one whose recovery is closest to the
// median — whose time series is worth printing.
func medianSummary(sums []recoverySummary) (recoverySummary, int) {
	if len(sums) == 0 {
		return recoverySummary{}, 0
	}
	if len(sums) == 1 {
		return sums[0], 0
	}
	medDur := func(get func(recoverySummary) time.Duration) time.Duration {
		vals := make([]int64, len(sums))
		for i, s := range sums {
			vals[i] = int64(get(s))
		}
		return time.Duration(metrics.Percentile(vals, 0.5))
	}
	var out recoverySummary
	out.Detection = medDur(func(s recoverySummary) time.Duration { return s.Detection })
	out.Activation = medDur(func(s recoverySummary) time.Duration { return s.Activation })
	out.ThroughputGap = medDur(func(s recoverySummary) time.Duration { return s.ThroughputGap })
	restarts := 0
	for _, s := range sums {
		if s.Restarted {
			restarts++
		}
	}
	out.Restarted = restarts*2 > len(sums)
	recs := make([]int64, len(sums))
	for i, s := range sums {
		if s.RecoveryOK {
			recs[i] = int64(s.Recovery)
		} else {
			recs[i] = math.MaxInt64
		}
	}
	med := metrics.Percentile(recs, 0.5)
	out.RecoveryOK = med != math.MaxInt64
	if out.RecoveryOK {
		out.Recovery = time.Duration(med)
	}
	best := 0
	bestDist := int64(math.MaxInt64)
	for i := range sums {
		d := recs[i] - med
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			bestDist = d
			best = i
		}
	}
	out.Phases = sums[best].Phases
	return out, best
}

func fmtDur(d time.Duration, ok bool) string {
	if !ok {
		return "n/a"
	}
	if d < 10*time.Millisecond {
		return d.Round(10 * time.Microsecond).String() // break detection, protocol phases
	}
	return d.Round(10 * time.Millisecond).String()
}
