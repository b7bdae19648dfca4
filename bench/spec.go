package main

import "time"

// workload is one set of inputs and the job that consumes them. Every
// workload runs at parallelism 2 on job.DefaultConfig() (Clonos,
// exactly-once, DSD=1, standbys, 500 ms checkpoints) unless a field
// here says otherwise.
type workload struct {
	Name string
	Why  string
	// Query is "" for the synthetic depth-3 pipeline, else the NEXMark
	// query name.
	Query string
	// Keys and StateBytes size each synthetic stage's keyed state.
	Keys       uint64
	StateBytes int
	// Rate is the open-loop offered rate in records/s. 0 means bursts:
	// Burst records are appended at once as each segment begins, and the
	// engine drains them flat out, the source never waiting.
	Rate  int
	Burst int
	// FullDSD shares determinants over the whole graph depth instead of
	// one hop, so any single task can be recovered locally.
	FullDSD bool
	// Segment is the length a round's window is cut into (the window is
	// divided evenly, so a segment may come out a little longer). Every
	// per-segment metric is reported as the median segment of all rounds.
	Segment time.Duration
	// Kill kills one stage task per segment, each kill phase-locked to
	// fire killDelay after the next checkpoint completes.
	Kill bool
	// Reference names the comparison run the traced pass adds: "global"
	// (ModeGlobal, standbys off) or "nproc" (GOMAXPROCS min(nproc, 4)
	// instead of engineProcs).
	Reference string
}

const (
	parallelism = 2
	// engineProcs is the GOMAXPROCS every job runs under. On one P the
	// job's goroutines, the generator and the garbage collector take
	// turns instead of racing for two shared cores: the same work then
	// costs the same CPU and stalls the same records from run to run.
	engineProcs = 1
	// rounds is how many times a run starts the job afresh; each round
	// measures its share of the window. A job's flush timers keep the
	// phases they start with, and with them its latency and its buffer
	// sizes, so one job is one draw; a run reports the median of several.
	rounds = 6
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 15
	// warmup is the load the job carries before the clock starts: long
	// enough for the first checkpoints to complete and every standby to
	// hold a preloaded snapshot.
	warmup = time.Second
	// lateLimitMs is the delivery deadline behind late_record_share.
	lateLimitMs = 250
	// killDelay places each kill at the same phase of the checkpoint
	// cycle, so every recovery replays the same volume.
	killDelay = 350 * time.Millisecond
	// setupProbe is how many records must reach the sink before a
	// set-up counts as done.
	setupProbe = 1024
	// setupExtra is how many times a run sets the job up on top of its
	// rounds, stopping it at once; setup_s is the median of them all.
	setupExtra = 15
	// nexmarkPool is the number of seed-generated NEXMark events the
	// q13 workload cycles through (GenEvent costs ~13 µs, so it cannot
	// run inside the window).
	nexmarkPool = 128 << 10
	// synValues is the number of distinct values the synthetic workloads
	// cycle through.
	synValues = 1 << 20
	// replayRecords is how many of the workload's first inputs the
	// traced pass pushes through each layer's public functions.
	replayRecords = 200_000
)

var workloads = []workload{
	{
		Name: "syn-hot", Keys: 64, StateBytes: 1 << 10, Rate: 50_000, Segment: time.Second, Reference: "global",
		Why: "3 hash shuffles of tiny int64 records at 50k rec/s: netstack, buffer, codec, per-buffer determinants and in-flight log append do the work; state and checkpoints almost none",
	},
	{
		Name: "syn-saturated", Keys: 64, StateBytes: 1 << 10, Burst: 150_000, Segment: 1250 * time.Millisecond, Reference: "nproc",
		Why: "same job draining a burst of 150k records every 1.25 s flat out: the paper's 7.3 saturation point, where backpressure and barrier alignment limit the result",
	},
	{
		Name: "syn-state", Keys: 8192, StateBytes: 2 << 10, Rate: 20_000, Segment: time.Second,
		Why: "8192 keys x 2 KiB per stage (~48 MiB snapshotted and shipped to standbys every 500 ms) at 20k rec/s: statestore, snapshot encode, checkpoint store and standby dispatch dominate",
	},
	{
		Name: "nexmark-q13", Query: "Q13", Rate: 30_000, Segment: time.Second, Reference: "global",
		Why: "NEXMark Q13 at 30k events/s: typed struct codecs and one SERVICE determinant per record, so the causal log and services layer do the work the syn-* workloads barely touch",
	},
	{
		Name: "syn-recovery", Keys: 4096, StateBytes: 1 << 10, Rate: 60_000, FullDSD: true, Segment: 2500 * time.Millisecond, Kill: true,
		Why: "60k rec/s with a stage task killed every 2.5 s, phase-locked to checkpoints: exercises in-flight log read, determinant extract/ingest and snapshot restore, which the others only write",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one reported metric. Moves names, for a per-layer
// metric, the end-to-end metric and workload it is expected to move
// (the interaction list in README.md, one line per metric).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Moves  string
}

// endToEnd lists the metrics a user of the system sees. Each is defined
// on every workload and never 0, as BENCHMARK.json's contract requires;
// the zero-valued shares and the workload-specific recovery time of the
// issue are reported per layer instead (job.*).
var endToEnd = []metricDef{
	{Name: "cpu_us_per_record", Unit: "us", Better: "lower"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "throughput_p50_rps", Unit: "1/s", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

var perLayer = []metricDef{
	{"kafkasim.source_lag_records", "count", "lower", "latency_p50_ms on every paced workload; growth across the window means the rate is not sustained"},
	{"kafkasim.sink_append_ns", "ns", "lower", "cpu_us_per_record on syn-hot, throughput_p50_rps on syn-saturated"},
	{"kafkasim.generator_late_ms_max", "ms", "lower", "latency_p99_ms on every paced workload (generator lateness is counted in latency)"},

	{"codec.encode_ns_per_record", "ns", "lower", "cpu_us_per_record on syn-hot and nexmark-q13, throughput_p50_rps on syn-saturated; no change on syn-state"},
	{"codec.decode_ns_per_record", "ns", "lower", "cpu_us_per_record on syn-hot and nexmark-q13, throughput_p50_rps on syn-saturated; no change on syn-state"},
	{"codec.wire_bytes_per_record", "B", "lower", "cpu_us_per_record on syn-hot via buffers per record"},

	{"netstack.roundtrip_ns_per_record", "ns", "lower", "cpu_us_per_record on syn-hot (6 crossings per record), throughput_p50_rps on syn-saturated; no change on syn-state"},
	{"netstack.scratch_fraction", "share", "lower", "cpu_us_per_record on syn-hot"},
	{"netstack.copied_fraction", "share", "lower", "cpu_us_per_record on syn-hot"},
	{"netstack.send_blocked_ms", "ms", "lower", "throughput_p50_rps on syn-saturated; near zero on paced workloads"},
	{"buffer.pool_wait_ms", "ms", "lower", "throughput_p50_rps on syn-saturated; near zero on paced workloads"},

	{"causal.append_ns_per_determinant", "ns", "lower", "cpu_us_per_record and latency_p50_ms on nexmark-q13; little on syn-*"},
	{"causal.delta_encode_ns_per_buffer", "ns", "lower", "cpu_us_per_record on nexmark-q13 and syn-hot"},
	{"causal.ingest_ns_per_buffer", "ns", "lower", "cpu_us_per_record on nexmark-q13; job.phase_ms.determinants-retrieved and latency_p99_ms on syn-recovery"},
	{"causal.determinants_per_record", "count", "lower", "cpu_us_per_record on nexmark-q13 (about 1 per record); per buffer on syn-*"},
	{"causal.delta_bytes_per_record", "B", "lower", "cpu_us_per_record on nexmark-q13"},

	{"inflight.append_ns_per_buffer", "ns", "lower", "cpu_us_per_record on syn-hot; a gain that raises inflight.read_ns_per_buffer is paid for on syn-recovery"},
	{"inflight.truncate_us_per_epoch", "us", "lower", "latency_p99_ms on syn-hot (runs on checkpoint completion)"},
	{"inflight.read_ns_per_buffer", "ns", "lower", "job.phase_ms.replay-done and latency_p99_ms on syn-recovery"},
	{"inflight.spilled_share", "share", "lower", "throughput_p50_rps on syn-saturated"},
	{"inflight.mem_bytes_peak", "B", "lower", "job.heap_peak_mb everywhere; spill pressure on syn-saturated"},

	{"statestore.get_put_ns_per_record", "ns", "lower", "cpu_us_per_record on syn-state"},
	{"statestore.snapshot_ms", "ms", "lower", "cpu_us_per_record and latency_p99_ms on syn-state; no change on syn-hot and nexmark-q13"},
	{"statestore.snapshot_bytes", "B", "lower", "cpu_us_per_record on syn-state"},
	{"statestore.restore_ms", "ms", "lower", "job.phase_ms.standby-activated and latency_p99_ms on syn-recovery"},

	{"checkpoint.duration_ms_p50", "ms", "lower", "latency_p99_ms on syn-state"},
	{"checkpoint.align_ms_mean", "ms", "lower", "throughput_p50_rps on syn-saturated (alignment stalls)"},
	{"checkpoint.sync_ms_mean", "ms", "lower", "latency_p99_ms and cpu_us_per_record on syn-state"},
	{"checkpoint.completed_share", "share", "higher", "job.throughput_mean_rps on syn-saturated; replayed volume on syn-recovery"},
	{"checkpoint.snapshot_bytes_per_epoch", "B", "lower", "cpu_us_per_record and latency_p99_ms on syn-state"},
	{"checkpoint.store_put_ms", "ms", "lower", "cpu_us_per_record on syn-state"},

	{"operator.process_ns_per_record", "ns", "lower", "cpu_us_per_record on every workload"},
	{"services.httpget_ns_per_call", "ns", "lower", "cpu_us_per_record and latency_p50_ms on nexmark-q13 (0 elsewhere: not called)"},

	{"job.busy_share_max", "share", "lower", "names the bottleneck task: below 0.5 more parallelism cannot move latency; on syn-saturated it is the task to split"},
	{"job.busy_share_sink", "share", "lower", "throughput_p50_rps on syn-saturated (the sink has parallelism 1)"},
	{"job.backpressured_share_max", "share", "lower", "throughput_p50_rps on syn-saturated; near zero on paced workloads"},
	{"job.records_per_buffer", "count", "higher", "cpu_us_per_record on syn-hot, throughput_p50_rps on syn-saturated"},
	{"job.bytes_per_record", "B", "lower", "cpu_us_per_record on syn-hot"},
	{"job.process_us_per_buffer", "us", "lower", "cpu_us_per_record on every workload"},
	{"job.allocs_per_record", "count", "lower", "cpu_us_per_record on syn-hot, throughput_p50_rps on syn-saturated"},
	{"job.alloc_bytes_per_record", "B", "lower", "job.gc_cpu_share, then cpu_us_per_record on syn-hot"},
	{"job.gc_cpu_share", "share", "lower", "cpu_us_per_record on every workload"},
	{"job.heap_peak_mb", "MB", "lower", "job.gc_cpu_share on syn-state"},
	{"job.stalled_time_share", "share", "lower", "job.throughput_mean_rps on syn-saturated, not throughput_p50_rps"},
	{"job.throughput_mean_rps", "1/s", "higher", "syn-saturated: deliveries over the time the job had input, every stall included (the issue's throughput_rps)"},
	{"job.overhead_vs_global", "ratio", "lower", "syn-hot, nexmark-q13: cpu_us_per_record over the same job under ModeGlobal without standbys, the paper's Figure 5 ratio (0 elsewhere)"},
	{"job.throughput_rps_nproc", "1/s", "higher", "syn-saturated under GOMAXPROCS min(nproc, 4) instead of 1: what parallelism adds at saturation (0 elsewhere)"},
	{"job.late_record_share", "share", "lower", "the user-visible disruption on syn-recovery, integrated over all outages; 0 on a healthy paced workload"},
	{"job.failed_share", "share", "lower", "failed records and kills over attempted; 0 on a correct run"},
	{"job.recovery_protocol_ms", "ms", "lower", "syn-recovery: median recovery span, detection to caught-up; moves latency_p99_ms there (0 elsewhere: no kills)"},
	{"job.detection_ms_p50", "ms", "lower", "latency_p99_ms and job.late_record_share on syn-recovery (a timer setting)"},
	{"job.phase_ms.standby-activated", "ms", "lower", "job.recovery_protocol_ms on syn-recovery, with statestore.restore_ms"},
	{"job.phase_ms.determinants-retrieved", "ms", "lower", "job.recovery_protocol_ms on syn-recovery, with causal.ingest_ns_per_buffer"},
	{"job.phase_ms.network-reconfigured", "ms", "lower", "job.recovery_protocol_ms on syn-recovery"},
	{"job.phase_ms.replay-done", "ms", "lower", "job.recovery_protocol_ms on syn-recovery, with inflight.read_ns_per_buffer and job.replayed_buffers_per_kill"},
	{"job.phase_ms.caught-up", "ms", "lower", "job.recovery_protocol_ms on syn-recovery"},
	{"job.replayed_buffers_per_kill", "count", "lower", "job.phase_ms.replay-done on syn-recovery"},
	{"job.dedup_discarded_per_kill", "count", "lower", "job.phase_ms.caught-up on syn-recovery"},
	{"job.global_restarts", "count", "lower", "a kill answered by a global restart is a failed operation on syn-recovery"},

	{"bench.trace_overhead_share", "share", "lower", "cpu_us_per_record with the benchmark's sampling on vs off, inside the traced run"},
	{"bench.input_build_s", "s", "lower", "the benchmark's own input generation, kept out of setup_s"},
}
