package harness

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"clonos/internal/obs"
)

// BenchReport is the machine-readable counterpart of the tables the
// experiments print: clonos-bench -bench-json writes one of these so
// regression scripts can diff runs without scraping ASCII output.
type BenchReport struct {
	GeneratedAt string         `json:"generated_at"`
	Options     map[string]any `json:"options,omitempty"`
	Experiments map[string]any `json:"experiments"`
}

// NewBenchReport returns an empty report stamped with the current time.
func NewBenchReport() *BenchReport {
	return &BenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Options:     map[string]any{},
		Experiments: map[string]any{},
	}
}

// Add stores one experiment's result payload under its name. Nil payloads
// are skipped so callers can pass results through unconditionally.
func (r *BenchReport) Add(name string, payload any) {
	if r == nil || payload == nil {
		return
	}
	r.Experiments[name] = payload
}

// WriteFile writes the report as indented JSON.
func (r *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Fig6Summary is the JSON shape of one (experiment, system) failure run:
// the median recovery scalars plus percentiles over all repeats.
type Fig6Summary struct {
	Experiment string `json:"experiment"`
	System     string `json:"system"`
	// Median-run scalars (the same numbers the printed table shows).
	DetectionMs  float64 `json:"detection_ms"`
	ActivationMs float64 `json:"activation_ms"`
	RecoveryMs   float64 `json:"recovery_ms"`
	RecoveryOK   bool    `json:"recovery_ok"`
	// Percentiles across every repeat's settled recovery time.
	RecoveryP50Ms float64 `json:"recovery_p50_ms"`
	RecoveryP90Ms float64 `json:"recovery_p90_ms"`
	RecoveryMaxMs float64 `json:"recovery_max_ms"`
	Repeats       int     `json:"repeats"`
	// Steady-state behaviour of the median run.
	ThroughputGapMs  float64 `json:"throughput_gap_ms"`
	SteadyThroughput float64 `json:"steady_throughput_per_s"`
	SinkRecords      int     `json:"sink_records"`
	LatencyP50Ms     int64   `json:"latency_p50_ms"`
	LatencyP99Ms     int64   `json:"latency_p99_ms"`
	GlobalRestart    bool    `json:"global_restart"`
	// PhasesMs breaks the median run's recovery span into protocol
	// phases (standby-promotion, determinant replay, catch-up, ...).
	PhasesMs map[string]float64 `json:"phases_ms,omitempty"`
	// Recoveries carries the raw per-repeat samples behind the
	// percentiles.
	Recoveries []RecoverySample `json:"recoveries,omitempty"`
}

// Fig6Summaries converts failure-run results to their JSON shape.
func Fig6Summaries(results []Fig6Result) []Fig6Summary {
	out := make([]Fig6Summary, 0, len(results))
	for _, r := range results {
		s := Fig6Summary{
			Experiment:       r.Experiment,
			System:           r.System,
			DetectionMs:      durMs(r.Summary.Detection),
			ActivationMs:     durMs(r.Summary.Activation),
			RecoveryMs:       durMs(r.Summary.Recovery),
			RecoveryOK:       r.Summary.RecoveryOK,
			Repeats:          len(r.Recoveries),
			ThroughputGapMs:  durMs(r.Summary.ThroughputGap),
			SteadyThroughput: SteadyThroughput(r.Run.Samples, 0.2),
			SinkRecords:      r.Run.SinkCount,
			GlobalRestart:    r.Summary.Restarted,
			Recoveries:       r.Recoveries,
		}
		s.LatencyP50Ms, s.LatencyP99Ms = LatencyPercentiles(r.Run.Latency)
		s.RecoveryP50Ms, s.RecoveryP90Ms, s.RecoveryMaxMs = recoveryPercentiles(r.Recoveries)
		if len(r.Summary.Phases) > 0 {
			s.PhasesMs = phasesMs(r.Summary.Phases)
		}
		out = append(out, s)
	}
	return out
}

// durMs converts a duration to fractional milliseconds. Detection and
// activation take microseconds since a crash is detected at the break,
// and a truncated 0 would read as "none".
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recoveryPercentiles summarizes the settled recovery times across
// repeats; unsettled runs (OK == false) are excluded.
func recoveryPercentiles(samples []RecoverySample) (p50, p90, max float64) {
	var ok []float64
	for _, s := range samples {
		if s.OK {
			ok = append(ok, s.RecoveryMs)
		}
	}
	if len(ok) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(ok)
	at := func(q float64) float64 {
		idx := int(q * float64(len(ok)-1))
		return ok[idx]
	}
	return at(0.5), at(0.9), ok[len(ok)-1]
}

func phasesMs(phases []obs.Phase) map[string]float64 {
	out := make(map[string]float64, len(phases))
	for _, p := range phases {
		out[p.Name] += float64(p.Dur.Milliseconds())
	}
	return out
}
