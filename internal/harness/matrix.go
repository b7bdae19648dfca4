package harness

import (
	"fmt"
	"io"
	"time"

	"clonos/internal/audit"
	"clonos/internal/faultinject"
	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/synthetic"
	"clonos/internal/types"
)

// MatrixOptions shapes the recovery-under-load benchmark matrix: a sweep
// over load fraction x keyed-state size x failure type on the synthetic
// pipeline, measuring recovery time and output latency per cell.
type MatrixOptions struct {
	// Synthetic is the pipeline template; Keys/CPUWorkIters come from it,
	// StateBytesPerKey is overridden per cell.
	Synthetic synthetic.Config
	// BaseRate is the generator rate at load fraction 1.0 (events/s).
	BaseRate int
	// Duration per cell run; failures anchor to fractions of it.
	Duration time.Duration
	// StaggerGap separates the staggered failures.
	StaggerGap time.Duration
	// Repeats takes the median recovery over this many runs per cell.
	Repeats int
	// Loads are the swept load fractions of BaseRate (e.g. 0.5, 1.0).
	Loads []float64
	// StateSizes are the swept per-key state sizes in bytes.
	StateSizes []int
	// Failures are the swept failure types; see MatrixFailureTypes.
	Failures []string
	// Modes are the swept checkpoint modes; see MatrixCheckpointModes.
	// Empty means aligned-only (the pre-mode-axis grid).
	Modes []string
}

// MatrixCheckpointModes lists the checkpoint-mode axis values:
//
//	aligned    barrier alignment gates already-barriered channels until
//	           the last barrier arrives (the default AlignmentBudget)
//	unaligned  AlignmentBudget 0: the task snapshots on the first
//	           barrier and logs in-flight input instead of gating
//	           channels
//
// The mode decides which crash point the "alignment" failure cell arms:
// align/blocked never fires in unaligned mode (no channel is ever
// gated), so the unaligned cell kills inside the capture window at
// unaligned/snapshot instead — without the explicit selection the kill
// would silently never land and the cell would measure a failure-free
// run.
var MatrixCheckpointModes = []string{"aligned", "unaligned"}

// MatrixFailureTypes lists the supported failure-type axis values:
//
//	single      one operator failure (stage1, i.e. v2[0]) at 40% of the run
//	staggered   three failures on stages 0..2, StaggerGap apart
//	concurrent  three simultaneous failures on stages 0..2
//	alignment   a crash-point kill the instant v2[0] blocks a channel for
//	            barrier alignment (kill=align/blocked@v2[0]#skip, the skip
//	            delaying the kill to ~40% of the run) — the failure lands
//	            mid-checkpoint, the worst case for rollback cost
var MatrixFailureTypes = []string{"single", "staggered", "concurrent", "alignment"}

// DefaultMatrixOptions returns the committed-baseline grid: 2 loads x
// 2 state sizes x 4 failure types x 2 checkpoint modes = 32 cells.
func DefaultMatrixOptions() MatrixOptions {
	syn := synthetic.DefaultConfig()
	syn.Parallelism = 2
	syn.Depth = 3
	return MatrixOptions{
		Synthetic:  syn,
		BaseRate:   4500,
		Duration:   12 * time.Second,
		StaggerGap: 1500 * time.Millisecond,
		Repeats:    1,
		Loads:      []float64{0.5, 1.0},
		StateSizes: []int{1024, 8192},
		Failures:   MatrixFailureTypes,
		Modes:      MatrixCheckpointModes,
	}
}

// SmokeMatrixOptions returns the small 2x2x2x2 grid CI runs: both loads,
// both state sizes, both checkpoint modes, but only the two cheap
// single-run failure types.
func SmokeMatrixOptions() MatrixOptions {
	opt := DefaultMatrixOptions()
	opt.Duration = 10 * time.Second
	opt.Failures = []string{"single", "alignment"}
	return opt
}

// MatrixCell is one populated cell of the recovery matrix: the swept
// coordinates plus the median recovery and latency measurements.
type MatrixCell struct {
	Load             float64 `json:"load"`
	Rate             int     `json:"rate_per_s"`
	StateBytesPerKey int     `json:"state_bytes_per_key"`
	Failure          string  `json:"failure"`
	// Mode is the checkpoint mode the cell ran (schema >= 3); legacy
	// reports default to "aligned" on load.
	Mode string `json:"mode,omitempty"`

	DetectionMs     float64 `json:"detection_ms"`
	RecoveryMs      float64 `json:"recovery_ms"`
	RecoveryOK      bool    `json:"recovery_ok"`
	ThroughputGapMs float64 `json:"throughput_gap_ms"`
	LatencyP50Ms    int64   `json:"latency_p50_ms"`
	LatencyP99Ms    int64   `json:"latency_p99_ms"`

	SteadyThroughput float64 `json:"steady_throughput_per_s"`
	SinkRecords      int     `json:"sink_records"`
	GlobalRestart    bool    `json:"global_restart"`
	Repeats          int     `json:"repeats"`
	// AuditViolations totals the audit-plane violations across every
	// repeat of the cell (schema >= 2; every cell runs audit-armed and a
	// healthy run reports zero).
	AuditViolations uint64 `json:"audit_violations"`
	// Recoveries carries every repeat's raw sample behind the median.
	Recoveries []RecoverySample `json:"recoveries,omitempty"`
}

// MatrixSchemaVersion is the report schema RunMatrix emits. Version 2
// added per-cell audit_violations (cells run with the audit plane
// armed). Version 3 added the checkpoint-mode axis; older cells load
// with mode "aligned", which is what they ran. Version 0/1 reports —
// the committed legacy baseline — carry no schema field and are
// accepted without audit checks.
const MatrixSchemaVersion = 3

// MatrixReport is the JSON payload of one matrix sweep (the committed
// BENCH_recovery_matrix.json wraps this in a BenchReport).
type MatrixReport struct {
	Schema     int          `json:"schema,omitempty"`
	Loads      []float64    `json:"loads"`
	StateSizes []int        `json:"state_sizes"`
	Failures   []string     `json:"failures"`
	Modes      []string     `json:"modes,omitempty"`
	Cells      []MatrixCell `json:"cells"`
}

// matrixFailurePlan returns the harness-injected failures and the extra
// run time a cell's failure type needs (multi-failure backlogs must drain
// before the §7.4 settle metric can observe recovery).
func matrixFailurePlan(failure string, opt MatrixOptions) (plans []FailurePlan, extra time.Duration, err error) {
	switch failure {
	case "single":
		plans = []FailurePlan{{
			After: time.Duration(float64(opt.Duration) * 0.4),
			Task:  types.TaskID{Vertex: 2, Subtask: 0},
		}}
	case "staggered", "concurrent":
		failAt := time.Duration(float64(opt.Duration) * 0.35)
		for i := 0; i < 3 && i < opt.Synthetic.Depth; i++ {
			after := failAt
			if failure == "staggered" {
				after += time.Duration(i) * opt.StaggerGap
			}
			plans = append(plans, FailurePlan{
				After: after,
				Task:  types.TaskID{Vertex: types.VertexID(i + 1), Subtask: 0},
			})
		}
		extra = 2*opt.StaggerGap + 5*time.Second
	case "alignment":
		// No harness plan: the crash-point injector kills v2[0] from
		// inside the alignment path (armed per run in RunMatrix).
		extra = 2 * time.Second
	default:
		err = fmt.Errorf("matrix: unknown failure type %q (want one of %v)", failure, MatrixFailureTypes)
	}
	return plans, extra, err
}

// alignmentFailAt extracts the failure instant of a crash-point cell: the
// first fault-injected event, falling back to the first detection.
func alignmentFailAt(res RunResult) (time.Time, bool) {
	for _, ev := range res.Events {
		if ev.Kind == job.EventFaultInjected {
			return ev.Time, true
		}
	}
	for _, ev := range res.Events {
		if ev.Kind == job.EventFailureDetected {
			return ev.Time, true
		}
	}
	return time.Time{}, false
}

// RunMatrix sweeps the full grid and returns the populated report. Every
// cell runs the Clonos configuration (full DSD, standbys) — the matrix
// measures how Clonos recovery scales with load, state, and failure
// shape, not a cross-system comparison.
func RunMatrix(w io.Writer, opt MatrixOptions) (*MatrixReport, error) {
	repeats := opt.Repeats
	if repeats < 1 {
		repeats = 1
	}
	modes := opt.Modes
	if len(modes) == 0 {
		modes = []string{"aligned"}
	}
	report := &MatrixReport{Schema: MatrixSchemaVersion, Loads: opt.Loads, StateSizes: opt.StateSizes, Failures: opt.Failures, Modes: modes}
	total := len(opt.Loads) * len(opt.StateSizes) * len(opt.Failures) * len(modes)
	n := 0
	for _, load := range opt.Loads {
		for _, stateBytes := range opt.StateSizes {
			for _, failure := range opt.Failures {
				for _, mode := range modes {
					n++
					if w != nil {
						fmt.Fprintf(w, "matrix cell %d/%d: load=%.2f state=%dB failure=%s mode=%s\n", n, total, load, stateBytes, failure, mode)
					}
					cell, err := runMatrixCell(load, stateBytes, failure, mode, opt, repeats)
					if err != nil {
						return nil, fmt.Errorf("matrix cell load=%.2f state=%d failure=%s mode=%s: %w", load, stateBytes, failure, mode, err)
					}
					report.Cells = append(report.Cells, cell)
				}
			}
		}
	}
	if w != nil {
		PrintMatrix(w, report)
	}
	return report, nil
}

func runMatrixCell(load float64, stateBytes int, failure, mode string, opt MatrixOptions, repeats int) (MatrixCell, error) {
	if mode != "aligned" && mode != "unaligned" {
		return MatrixCell{}, fmt.Errorf("matrix: unknown checkpoint mode %q (want one of %v)", mode, MatrixCheckpointModes)
	}
	syn := opt.Synthetic
	syn.StateBytesPerKey = stateBytes
	rate := int(float64(opt.BaseRate) * load)
	plans, extra, err := matrixFailurePlan(failure, opt)
	if err != nil {
		return MatrixCell{}, err
	}
	dur := opt.Duration + extra

	var runs []RunResult
	var sums []recoverySummary
	var auditTotal uint64
	for rep := 0; rep < repeats; rep++ {
		cfg := job.DefaultConfig()
		cfg.Mode = job.ModeClonos
		cfg.DSD = 0 // full sharing depth, as in the multi-failure experiments
		// Every cell runs audit-armed (schema 2): the matrix doubles as a
		// continuous false-positive check, and a real divergence under
		// load surfaces as a non-zero audit_violations count the
		// validator rejects.
		aud := audit.New()
		cfg.Audit = aud
		if mode == "unaligned" {
			cfg.AlignmentBudget = 0 // convert at the first barrier: no channel is ever gated
		}
		if failure == "alignment" {
			// The crash-point analyzer reserves Point constants for their
			// single production call site; schedules are built from the
			// replayable artifact format instead. The kill point must match
			// the checkpoint mode: align/blocked fires once per alignment at
			// a 2-input task, but never in unaligned mode (no channel is
			// gated), where the equivalent mid-checkpoint instant is the
			// unaligned/snapshot capture switch. Either point fires once per
			// checkpoint, so skipping occurrences delays the kill to ~40% of
			// the run — an early kill leaves too small a pre-failure window
			// for the §7.4 settle baseline.
			point := "align/blocked"
			if mode == "unaligned" {
				point = "unaligned/snapshot"
			}
			skip := int(float64(opt.Duration)*0.4/float64(cfg.CheckpointInterval)) - 1
			if skip < 0 {
				skip = 0
			}
			sched, perr := faultinject.Parse(fmt.Sprintf("kill=%s@v2[0]#%d", point, skip))
			if perr != nil {
				return MatrixCell{}, perr
			}
			cfg.Faults = faultinject.New(sched)
		}
		res, err := Run(RunSpec{
			Name:      fmt.Sprintf("matrix-%s-%s-l%.2f-s%d", failure, mode, load, stateBytes),
			Cfg:       cfg,
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
			Failures: plans,
		})
		if err != nil {
			return MatrixCell{}, err
		}
		auditTotal += aud.Total()
		runs = append(runs, res)
		if failure == "alignment" {
			if failAt, ok := alignmentFailAt(res); ok {
				sums = append(sums, summarizeRecoveryAt(res, failAt))
			} else {
				// The alignment point never fired (e.g. the run ended
				// before the first checkpoint): record an unsettled cell
				// rather than inventing a failure instant.
				sums = append(sums, recoverySummary{})
			}
		} else {
			sums = append(sums, summarizeRecovery(res, len(plans)-1))
		}
	}

	med, idx := medianSummary(sums)
	rep := runs[idx]
	cell := MatrixCell{
		Load:             load,
		Rate:             rate,
		StateBytesPerKey: stateBytes,
		Failure:          failure,
		Mode:             mode,
		DetectionMs:      durMs(med.Detection),
		RecoveryMs:       durMs(med.Recovery),
		RecoveryOK:       med.RecoveryOK,
		ThroughputGapMs:  durMs(med.ThroughputGap),
		SteadyThroughput: SteadyThroughput(rep.Samples, 0.2),
		SinkRecords:      rep.SinkCount,
		GlobalRestart:    med.Restarted,
		Repeats:          repeats,
		AuditViolations:  auditTotal,
		Recoveries:       recoverySamples(sums),
	}
	cell.LatencyP50Ms, cell.LatencyP99Ms = LatencyPercentiles(rep.Latency)
	return cell, nil
}

// PrintMatrix renders the populated grid as an aligned table.
func PrintMatrix(w io.Writer, report *MatrixReport) {
	fmt.Fprintf(w, "\nrecovery-under-load matrix (%d cells, clonos full-DSD)\n", len(report.Cells))
	var rows [][]string
	for _, c := range report.Cells {
		mode := c.Mode
		if mode == "" {
			mode = "aligned"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", c.Load),
			fmt.Sprintf("%d", c.StateBytesPerKey),
			c.Failure,
			mode,
			fmtDur(time.Duration(c.DetectionMs*float64(time.Millisecond)), c.DetectionMs > 0),
			fmtDur(time.Duration(c.RecoveryMs)*time.Millisecond, c.RecoveryOK),
			fmt.Sprintf("%dms", c.LatencyP50Ms),
			fmt.Sprintf("%dms", c.LatencyP99Ms),
			fmt.Sprintf("%.0f/s", c.SteadyThroughput),
			fmt.Sprintf("%v", c.GlobalRestart),
			fmt.Sprintf("%d", c.AuditViolations),
		})
	}
	table(w, []string{"load", "state(B)", "failure", "mode", "detect", "recovery(10% lat)", "lat p50", "lat p99", "tput", "global restart", "audit"}, rows)
}
