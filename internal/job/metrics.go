package job

import (
	"math"
	"strconv"

	"clonos/internal/causal"
	"clonos/internal/inflight"
	"clonos/internal/netstack"
	"clonos/internal/obs"
)

// taskMetrics bundles the per-task handles into the runtime's registry.
// Handles are get-or-create by (vertex, subtask), so a recovered
// incarnation continues its predecessor's counters — the totals describe
// the logical task, not one OS-level incarnation.
type taskMetrics struct {
	recordsIn  *obs.Counter
	recordsOut *obs.Counter
	buffersIn  *obs.Counter
	bytesOut   *obs.Counter
	process    *obs.Histogram
	align      *obs.Histogram
	sync       *obs.Histogram
	// alignBlocked observes how long each input channel stayed blocked
	// for one barrier alignment (completed or superseded).
	alignBlocked *obs.Histogram
	// sendStall observes the wall time of each outbound push, including
	// credit-limit stalls inside the receiving endpoint.
	sendStall *obs.Histogram
	// snapshots / snapshotBytes count completed task snapshots and their
	// serialized size (state + timers).
	snapshots     *obs.Counter
	snapshotBytes *obs.Counter
	// inflightLogged counts encoded in-flight-section bytes sealed into
	// unaligned checkpoints (zero while checkpoints stay aligned).
	inflightLogged *obs.Counter
	// dedupDiscarded counts dispatched buffers suppressed by sender-side
	// deduplication after this task's own recovery (§5.2).
	dedupDiscarded *obs.Counter
	// replayServed / replayRetries count in-flight log entries the replay
	// service retransmitted to recovering downstream peers, and pushes it
	// had to retry because the receiver was not accepting yet.
	replayServed  *obs.Counter
	replayRetries *obs.Counter
	// latency is the end-to-end latency histogram fed by arriving latency
	// markers; registered for sink tasks only (nil elsewhere).
	latency *obs.Histogram

	ep      *netstack.EndpointMetrics
	iflight *inflight.Metrics
}

// procBuckets span 1µs..~0.26s: buffer handling is far below the
// recovery-scale default buckets.
var procBuckets = obs.ExpBuckets(1e-6, 2, 18)

func newTaskMetrics(reg *obs.Registry, vertexName string, subtask int32) *taskMetrics {
	lbl := obs.Labels{"vertex": vertexName, "subtask": strconv.Itoa(int(subtask))}
	return &taskMetrics{
		recordsIn:  reg.Counter("clonos_task_records_in_total", "Records consumed by the task.", lbl),
		recordsOut: reg.Counter("clonos_task_records_out_total", "Records emitted by the task.", lbl),
		buffersIn:  reg.Counter("clonos_task_buffers_in_total", "Network buffers processed by the main thread.", lbl),
		bytesOut:   reg.Counter("clonos_task_bytes_out_total", "Payload bytes dispatched on output channels.", lbl),
		process:    reg.Histogram("clonos_task_process_seconds", "Main-thread time handling one input buffer.", procBuckets, lbl),
		align:      reg.Histogram("clonos_checkpoint_align_seconds", "Barrier alignment time (first barrier to snapshot).", obs.DefDurationBuckets, lbl),
		sync:       reg.Histogram("clonos_checkpoint_sync_seconds", "Synchronous snapshot time on the main thread.", obs.DefDurationBuckets, lbl),
		alignBlocked: reg.Histogram("clonos_checkpoint_blocked_channel_seconds",
			"Per-channel blocked time during barrier alignment.", obs.DefDurationBuckets, lbl),
		sendStall: reg.Histogram("clonos_outchannel_send_seconds",
			"Wall time per outbound push, including receiver credit stalls.", procBuckets, lbl),
		snapshots: reg.Counter("clonos_checkpoint_snapshots_total", "Task snapshots completed.", lbl),
		snapshotBytes: reg.Counter("clonos_checkpoint_snapshot_bytes_total",
			"Serialized snapshot bytes (state + timers) produced by the task.", lbl),
		inflightLogged: reg.Counter("clonos_checkpoint_inflight_logged_bytes_total",
			"In-flight input bytes logged into unaligned checkpoints.", lbl),
		dedupDiscarded: reg.Counter("clonos_dedup_discarded_total",
			"Dispatched buffers suppressed by sender-side deduplication after recovery.", lbl),
		replayServed: reg.Counter("clonos_replay_served_total",
			"In-flight log entries retransmitted to recovering downstream peers.", lbl),
		replayRetries: reg.Counter("clonos_replay_retries_total",
			"Replay-service pushes retried because the receiver was not accepting.", lbl),
		ep: &netstack.EndpointMetrics{
			Accepted:  reg.Counter("clonos_netstack_accepted_total", "Messages accepted into the task's input queues.", lbl),
			Blocked:   reg.Counter("clonos_netstack_send_blocked_total", "Sender pushes that stalled on the credit limit.", lbl),
			BlockedNs: reg.Counter("clonos_netstack_send_blocked_ns_total", "Nanoseconds senders spent stalled on the credit limit.", lbl),
			Stall: reg.Histogram("clonos_netstack_send_stall_seconds",
				"Duration of each credit-limit stall on the task's input endpoints.", obs.DefDurationBuckets, lbl),
		},
		iflight: &inflight.Metrics{
			Appended:     reg.Counter("clonos_inflight_appended_total", "Buffers retained in the in-flight log.", lbl),
			Spilled:      reg.Counter("clonos_inflight_spilled_total", "In-flight log buffers spilled to disk.", lbl),
			SpilledBytes: reg.Counter("clonos_inflight_spilled_bytes_total", "Payload bytes spilled to disk.", lbl),
			Truncated:    reg.Counter("clonos_inflight_truncated_total", "In-flight log entries dropped by checkpoint truncation.", lbl),
		},
	}
}

// poolWaitCounters returns the backpressure counters for one of the
// task's buffer pools (pool = "output" or "inflight-log").
func poolWaitCounters(reg *obs.Registry, vertexName string, subtask int32, pool string) (waits, waitNs *obs.Counter) {
	lbl := obs.Labels{"vertex": vertexName, "subtask": strconv.Itoa(int(subtask)), "pool": pool}
	return reg.Counter("clonos_buffer_wait_total", "Buffer acquisitions that blocked on an exhausted pool.", lbl),
		reg.Counter("clonos_buffer_wait_ns_total", "Nanoseconds blocked waiting for a free buffer.", lbl)
}

// poolStallHistogram returns the starvation-duration histogram for one
// of the task's buffer pools.
func poolStallHistogram(reg *obs.Registry, vertexName string, subtask int32, pool string) *obs.Histogram {
	lbl := obs.Labels{"vertex": vertexName, "subtask": strconv.Itoa(int(subtask)), "pool": pool}
	return reg.Histogram("clonos_buffer_wait_seconds", "Duration of each blocked wait for a free buffer.", obs.DefDurationBuckets, lbl)
}

// causalMetrics returns the determinant counters for one task.
func causalMetrics(reg *obs.Registry, vertexName string, subtask int32) causal.ManagerMetrics {
	lbl := obs.Labels{"vertex": vertexName, "subtask": strconv.Itoa(int(subtask))}
	return causal.ManagerMetrics{
		Appended:    reg.Counter("clonos_causal_determinants_total", "Determinants appended to the task's own causal logs.", lbl),
		Extractions: reg.Counter("clonos_causal_extractions_total", "Replica extractions served to recovering upstream peers.", lbl),
		DeltaEntries: reg.Counter("clonos_causal_delta_entries_total",
			"Determinants shared in piggybacked deltas (own and forwarded).", lbl),
		DeltaBytes: reg.Counter("clonos_causal_delta_bytes_total",
			"Encoded bytes of piggybacked determinant deltas.", lbl),
	}
}

// latencyHistogram returns the sink-side end-to-end latency histogram fed
// by arriving latency markers. Log-spaced buckets keep recovery-scale
// latencies (minutes) out of the overflow bucket.
func latencyHistogram(reg *obs.Registry, vertexName string, subtask int32) *obs.Histogram {
	lbl := obs.Labels{"vertex": vertexName, "subtask": strconv.Itoa(int(subtask))}
	return reg.Histogram("clonos_latency_e2e_seconds",
		"Source-to-sink end-to-end latency of latency markers.", obs.LatencyBuckets, lbl)
}

// registerGauges installs the task's callback gauges. Called from
// start() — never for idle standbys — so the live incarnation's closures
// replace the dead predecessor's.
func (t *Task) registerGauges() {
	reg := t.env.obs
	lbl := obs.Labels{"vertex": t.vertex.Name, "subtask": strconv.Itoa(int(t.id.Subtask))}
	if gate := t.gate; gate != nil {
		reg.GaugeFunc("clonos_netstack_queue_depth", "Buffers queued across the task's input channels.", lbl,
			func() float64 { return float64(gate.QueuedBuffers()) })
		reg.GaugeFunc("clonos_task_blocked_channels", "Input channels currently blocked for barrier alignment.", lbl,
			func() float64 { return float64(gate.BlockedChannels()) })
	}
	// Watermark progress gauges read the atomic shadows, so they are safe
	// concurrent with the main thread. Values are raw stream timestamps in
	// ms; unseeded channels surface as a huge negative number (MinInt64).
	reg.GaugeFunc("clonos_task_watermark_ms", "Combined (min) watermark the task has emitted.", lbl,
		func() float64 { return float64(t.wmShadow.Load()) })
	for i := range t.chanWmShadow {
		clbl := obs.Labels{"vertex": t.vertex.Name, "subtask": strconv.Itoa(int(t.id.Subtask)), "channel": strconv.Itoa(i)}
		wm := &t.chanWmShadow[i]
		reg.GaugeFunc("clonos_task_channel_watermark_ms", "Highest watermark received on one input channel.", clbl,
			func() float64 { return float64(wm.Load()) })
	}
	if len(t.chanWmShadow) > 1 {
		shadows := t.chanWmShadow
		reg.GaugeFunc("clonos_task_watermark_skew_ms", "Spread (max-min) across seeded input-channel watermarks; the per-channel watermark lag.", lbl,
			func() float64 {
				lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
				seeded := 0
				for i := range shadows {
					v := shadows[i].Load()
					if v == math.MinInt64 || v == math.MaxInt64 {
						continue // unseeded or finished channels carry no lag signal
					}
					seeded++
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				if seeded < 2 {
					return 0
				}
				return float64(hi - lo)
			})
	}
	if len(t.allOut) > 0 {
		outs := t.allOut
		reg.GaugeFunc("clonos_outchannel_pending", "Output channels with direct sends suppressed (receiver down or replay in progress).", lbl,
			func() float64 {
				n := 0
				for _, oc := range outs {
					if oc.isPending() {
						n++
					}
				}
				return float64(n)
			})
	}
	if pool := t.logPool; pool != nil {
		plbl := obs.Labels{"vertex": t.vertex.Name, "subtask": strconv.Itoa(int(t.id.Subtask)), "pool": "inflight-log"}
		reg.GaugeFunc("clonos_buffer_pool_free_buffers", "Free buffers in the pool.", plbl,
			func() float64 { return float64(pool.Available()) })
		reg.GaugeFunc("clonos_buffer_pool_total_buffers", "Total buffers owned by the pool.", plbl,
			func() float64 { return float64(pool.Total()) })
	}
	if len(t.allOut) > 0 {
		outs := t.allOut
		plbl := obs.Labels{"vertex": t.vertex.Name, "subtask": strconv.Itoa(int(t.id.Subtask)), "pool": "output"}
		reg.GaugeFunc("clonos_buffer_pool_free_buffers", "Free buffers in the pool.", plbl, func() float64 {
			n := 0
			for _, oc := range outs {
				n += oc.outPool.Available()
			}
			return float64(n)
		})
		reg.GaugeFunc("clonos_buffer_pool_total_buffers", "Total buffers owned by the pool.", plbl, func() float64 {
			n := 0
			for _, oc := range outs {
				n += oc.outPool.Total()
			}
			return float64(n)
		})
		reg.GaugeFunc("clonos_inflight_entries", "Buffers retained across the task's in-flight logs.", lbl, func() float64 {
			n := 0
			for _, oc := range outs {
				if oc.iflog != nil {
					n += oc.iflog.Count()
				}
			}
			return float64(n)
		})
		reg.GaugeFunc("clonos_inflight_mem_bytes", "Unspilled payload bytes across the task's in-flight logs.", lbl, func() float64 {
			n := 0
			for _, oc := range outs {
				if oc.iflog != nil {
					n += oc.iflog.MemBytes()
				}
			}
			return float64(n)
		})
		reg.GaugeFunc("clonos_inflight_truncation_floor", "Entries dropped by checkpoint truncation across the task's in-flight logs (lifetime floor).", lbl, func() float64 {
			n := 0
			for _, oc := range outs {
				if oc.iflog != nil {
					n += oc.iflog.Base()
				}
			}
			return float64(n)
		})
	}
	if cm := t.causal; cm != nil {
		reg.GaugeFunc("clonos_causal_log_entries", "Determinants retained in the own log and the replica store.", lbl,
			func() float64 { return float64(cm.SizeEntries()) })
		reg.GaugeFunc("clonos_causal_main_log_floor", "Absolute index of the oldest retained main-log determinant (checkpoint truncation floor).", lbl,
			func() float64 { return float64(cm.Main().Base()) })
	}
	// Guided-replay progress: determinants consumed vs. recovered for the
	// current incarnation. position == total once replay finished.
	reg.GaugeFunc("clonos_replay_position", "Determinants consumed by causally guided replay (current incarnation).", lbl,
		func() float64 { return float64(t.replayPosShadow.Load()) })
	reg.GaugeFunc("clonos_replay_total", "Determinants recovered for causally guided replay (current incarnation).", lbl,
		func() float64 { return float64(t.replayTotalShadow.Load()) })
	if h := t.metrics.latency; h != nil {
		reg.GaugeFunc("clonos_latency_p99_seconds", "Live p99 of marker end-to-end latency (bucket upper bound; see Histogram.Quantile).", lbl,
			func() float64 { return h.Quantile(0.99) })
	}
}

// runtimeMetrics are the job-level (not per-task) handles.
type runtimeMetrics struct {
	reg             *obs.Registry
	recoveries      *obs.Counter
	recoverySeconds *obs.Histogram
	stalledTasks    *obs.Gauge
}

func newRuntimeMetrics(reg *obs.Registry) runtimeMetrics {
	return runtimeMetrics{
		reg:             reg,
		recoveries:      reg.Counter("clonos_recovery_completed_total", "Local recoveries that reached caught-up.", nil),
		recoverySeconds: reg.Histogram("clonos_recovery_seconds", "Failure-detection to caught-up wall time.", obs.DefDurationBuckets, nil),
		stalledTasks:    reg.Gauge("clonos_stalled_tasks", "Tasks the stall watchdog currently considers stuck.", nil),
	}
}

// observeRecovery folds a completed recovery span into the registry:
// total duration plus one observation per protocol phase.
func (r *Runtime) observeRecovery(rec obs.SpanRecord) {
	r.metrics.recoveries.Inc()
	r.metrics.recoverySeconds.Observe(rec.Duration().Seconds())
	for _, p := range rec.Phases() {
		r.metrics.reg.Histogram("clonos_recovery_phase_seconds", "Per-phase recovery protocol time.",
			obs.DefDurationBuckets, obs.Labels{"phase": p.Name}).Observe(p.Dur.Seconds())
	}
}
