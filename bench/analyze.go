package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"clonos/internal/job"
	"clonos/internal/obs"
)

// verdict is the judged outcome of one invocation: the metrics by name
// and the failed operations among those attempted.
type verdict struct {
	metrics map[string]float64
	// series holds every value of the metrics that are computed once per
	// segment (or per burst, or per 100 ms); the reported value is the
	// median over the values of all rounds.
	series    map[string][]float64
	attempted int64
	failed    int64
	problems  []string
}

func (v *verdict) fail(n int64, format string, args ...any) {
	if n > 0 {
		v.failed += n
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// check compares the sink's records with what the inputs must produce:
// the same multiset of values (so nothing lost, nothing duplicated),
// no task error, a drain within the deadline, and every kill answered
// by a local recovery. Failures are counted in records and kills.
func (d *runData) check(v *verdict) {
	v.attempted += d.offered + int64(len(d.kills))
	if !d.drained {
		v.fail(1, "job did not finish within %v of the input closing", drainDeadline)
	}
	v.fail(int64(len(d.errs)), "task errors: %v", d.errs)

	diff := d.in.want(d.offered)
	var wrong, stray int64
	for i := range d.sink {
		if j, ok := d.in.slotOf(d.sink[i].Value); ok {
			diff[j]--
		} else {
			stray++
		}
	}
	for _, x := range diff {
		wrong += max(x, -x)
	}
	v.fail(wrong+stray, "sink multiset differs from the input's by %d records (%d of them unknown values); sink suppressed %d duplicates", wrong+stray, stray, d.dups)

	var made int64
	for _, k := range d.kills {
		if k.err == "" {
			made++
		} else {
			v.fail(1, "kill of %v not made: %s", k.victim, k.err)
		}
	}
	restarts := int64(countEvents(d.events, job.EventGlobalRestart))
	v.fail(restarts, "%d kills answered by a global restart", restarts)
	lost := made - restarts - int64(len(d.recoveries()))
	v.fail(lost, "%d of %d kills have no completed local recovery", lost, made)
}

func countEvents(events []job.Event, kind job.EventKind) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// recoveries returns the completed local-recovery spans in start order.
func (d *runData) recoveries() []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, s := range d.spans {
		if _, caughtUp := s.Phase("caught-up"); s.Name == job.RecoverySpanName && s.Attr("aborted") == "" && caughtUp {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes what a user of the job sees over the window. The
// per-segment metrics are reported as their median segment.
func (d *runData) endToEnd(v *verdict) {
	n := d.opts.nseg
	t0ms := d.t0.UnixMilli()
	segMs := ms(d.opts.window / time.Duration(n))
	segOf := func(at int64) int {
		if at < t0ms {
			return -1
		}
		return int(float64(at-t0ms) / segMs)
	}

	// Latency of every record due in the window, by the segment it was
	// due in; records the sink never got are missing from their segment.
	hists := make([]latencyHist, n)
	var whole latencyHist
	for i := range d.sink {
		r := &d.sink[i]
		if k := segOf(r.EmitMs); k >= 0 && k < n {
			hists[k].add(r.ArrivalMs - r.EmitMs)
			whole.add(r.ArrivalMs - r.EmitMs)
		}
	}
	due := make([]int64, n)
	if d.w.Rate > 0 {
		gen := generator{rate: d.w.Rate, first: d.first, start: d.t0.Add(-d.opts.warmup)}
		for i := d.first; i < d.offered; i++ {
			if k := segOf(gen.dueAt(i).UnixMilli()); k >= 0 && k < n && d.in.emits(i) {
				due[k]++
			}
		}
	} else {
		for k := range due {
			due[k] = d.stamps[k+1].offered - d.stamps[k].offered // the segment's burst
		}
	}
	for k := range hists {
		hists[k].missing = max(0, due[k]-hists[k].n)
		whole.missing += hists[k].missing
	}

	// Deliveries in 100 ms bins of the window.
	bins := make([]float64, int(d.opts.window/(100*time.Millisecond)))
	for i := range d.sink {
		if b := (d.sink[i].ArrivalMs - t0ms) / 100; d.sink[i].ArrivalMs >= t0ms && int(b) < len(bins) {
			bins[b]++
		}
	}

	cpu, p50, p99, rate := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	var busy []float64 // the bins in which the job had input to work on
	for k := 0; k < n; k++ {
		a, b := d.stamps[k], d.stamps[k+1]
		cpu[k] = float64((b.procCPU-a.procCPU)-(b.genCPU-a.genCPU)) / float64(time.Microsecond) / float64(b.offered-a.offered)
		p50[k], p99[k] = hists[k].percentile(0.50), hists[k].percentile(0.99)
		if !hists[k].supports(0.99) {
			v.fail(1, "segment %d has %d records: too few for a p99", k, hists[k].n+hists[k].missing)
		}
		lo, hi := k*len(bins)/n, (k+1)*len(bins)/n
		if d.w.Rate == 0 {
			// A burst is worked on from its append until its last
			// record arrives: its highest latency.
			drain := float64(hists[k].maxMs + 1)
			rate[k] = float64(hists[k].n) / (drain / 1e3)
			hi = min(hi, lo+int(drain/100)+1)
		}
		busy = append(busy, bins[lo:hi]...)
	}
	if d.w.Rate > 0 {
		// A paced job delivers what it is offered; per 100 ms, not per
		// segment, so that an outage is a few low bins and not a share
		// of every value.
		rate = make([]float64, len(bins))
		for b, c := range bins {
			rate[b] = 10 * c
		}
	}
	v.series = map[string][]float64{
		"cpu_us_per_record":  cpu,
		"latency_p50_ms":     p50,
		"latency_p99_ms":     p99,
		"throughput_p50_rps": rate,
		"setup_s":            {d.setup.Seconds()},
	}
	for name, x := range v.series {
		v.metrics[name] = median(x)
	}

	// The rest of what the window shows from outside is reported with
	// the job layer.
	stalled, typical := 0, median(busy)
	for _, c := range busy {
		if c < 0.1*typical {
			stalled++
		}
	}
	v.metrics["job.stalled_time_share"] = ratio(float64(stalled), float64(len(busy)))
	v.metrics["job.throughput_mean_rps"] = ratio(float64(whole.n), float64(len(busy))/10)
	v.metrics["job.late_record_share"] = whole.lateShare(lateLimitMs)
	v.metrics["kafkasim.generator_late_ms_max"] = d.lateMaxMs

	// Sampling overhead: CPU per record of the sampled (odd) segments
	// over the untouched (even) ones.
	if d.opts.sample {
		var on, off []float64
		for k, c := range cpu {
			if k%2 == 1 {
				on = append(on, c)
			} else {
				off = append(off, c)
			}
		}
		v.metrics["bench.trace_overhead_share"] = median(on)/median(off) - 1
	}
}

// summarize folds the verdicts of a run's rounds into one: a metric
// computed per segment is the median over the segments of all rounds,
// any other the median over the rounds; attempts and failures add up.
func summarize(rounds []*verdict) *verdict {
	v := &verdict{metrics: map[string]float64{}, series: map[string][]float64{}}
	scalars := map[string][]float64{}
	for _, r := range rounds {
		v.attempted += r.attempted
		v.failed += r.failed
		v.problems = append(v.problems, r.problems...)
		for name, x := range r.series {
			v.series[name] = append(v.series[name], x...)
		}
		for name, x := range r.metrics {
			scalars[name] = append(scalars[name], x)
		}
	}
	for name, x := range scalars {
		v.metrics[name] = median(x)
	}
	for name, x := range v.series {
		v.metrics[name] = median(x)
	}
	return v
}

// family returns the registry entries `name{labels}suffix` of a
// flattened snapshot, keyed by their label string ("" for a bare name).
// suffix is "" for counters and gauges, "_sum" or "_count" for
// histograms.
func family(vals map[string]float64, name, suffix string) map[string]float64 {
	out := make(map[string]float64)
	for k, x := range vals {
		rest, ok := strings.CutPrefix(k, name)
		if !ok {
			continue
		}
		labels, ok := strings.CutSuffix(rest, suffix)
		if ok && (labels == "" || (labels[0] == '{' && labels[len(labels)-1] == '}')) {
			out[labels] = x
		}
	}
	return out
}

// sumFamily adds up a family's entries, of one vertex only if vertex is
// not "".
func sumFamily(vals map[string]float64, name, suffix, vertex string) float64 {
	var sum float64
	for labels, x := range family(vals, name, suffix) {
		if vertex == "" || strings.Contains(labels, `vertex="`+vertex+`"`) {
			sum += x
		}
	}
	return sum
}

// taskOf reduces a label string to the task it names, dropping any
// other label (pool waits carry a pool label on top of the task's).
func taskOf(labels string) string {
	var vertex, subtask string
	for _, kv := range strings.Split(strings.Trim(labels, "{}"), ",") {
		switch k, x, _ := strings.Cut(kv, "="); k {
		case "vertex":
			vertex = strings.Trim(x, `"`)
		case "subtask":
			subtask = strings.Trim(x, `"`)
		}
	}
	return vertex + "[" + subtask + "]"
}

// ratio is a/b, and 0 when b is 0: a layer that did nothing in the
// window reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// observed computes the per-layer metrics that come from watching the
// running job: deltas of the runtime's registry over the window, the
// runtime's tracer spans, the Go runtime's counters and the samples.
func (d *runData) observed(v *verdict) {
	window := d.opts.window.Seconds()
	delta := make(map[string]float64, len(d.regEnd))
	for k, x := range d.regEnd {
		delta[k] = x - d.regStart[k]
	}
	sum := func(name, suffix string) float64 { return sumFamily(delta, name, suffix, "") }
	records := float64(d.stamps[d.opts.nseg].offered - d.stamps[0].offered)
	m := v.metrics

	var lags []float64
	var inflightPeak float64
	for _, s := range d.samples {
		lags = append(lags, s.Vals["bench_source_lag_records"])
		inflightPeak = max(inflightPeak, sumFamily(s.Vals, "clonos_inflight_mem_bytes", "", ""))
	}
	m["kafkasim.source_lag_records"] = finite(median(lags))
	if n := len(lags); d.w.Rate > 0 && n > 0 && lags[n-1] > float64(d.w.Rate) {
		v.problems = append(v.problems, fmt.Sprintf("overloaded: the source lags %.0f records at the end of the window, more than a second of input; latency is not a steady-state number", lags[n-1]))
	}

	m["netstack.send_blocked_ms"] = sum("clonos_netstack_send_blocked_ns_total", "") / 1e6
	m["buffer.pool_wait_ms"] = sum("clonos_buffer_wait_ns_total", "") / 1e6
	m["causal.determinants_per_record"] = sum("clonos_causal_determinants_total", "") / records
	m["causal.delta_bytes_per_record"] = sum("clonos_causal_delta_bytes_total", "") / records
	m["inflight.spilled_share"] = ratio(sum("clonos_inflight_spilled_total", ""), sum("clonos_inflight_appended_total", ""))
	m["inflight.mem_bytes_peak"] = inflightPeak

	var durations []float64
	for _, s := range d.spans {
		if _, done := s.Phase("complete"); s.Name == "checkpoint" && done && !s.Start.Before(d.t0) {
			durations = append(durations, ms(s.Duration()))
		}
	}
	completed := sum("clonos_checkpoint_completed_total", "")
	m["checkpoint.duration_ms_p50"] = finite(median(durations))
	m["checkpoint.align_ms_mean"] = 1e3 * ratio(sum("clonos_checkpoint_align_seconds", "_sum"), sum("clonos_checkpoint_align_seconds", "_count"))
	m["checkpoint.sync_ms_mean"] = 1e3 * ratio(sum("clonos_checkpoint_sync_seconds", "_sum"), sum("clonos_checkpoint_sync_seconds", "_count"))
	m["checkpoint.completed_share"] = completed / (window / job.DefaultConfig().CheckpointInterval.Seconds())
	m["checkpoint.snapshot_bytes_per_epoch"] = ratio(sum("clonos_checkpoint_snapshot_bytes_total", ""), completed)

	// Per-task shares of the window: time handling input buffers, and
	// time stalled on the receiver's credit or on an empty buffer pool.
	busy := family(delta, "clonos_task_process_seconds", "_sum")
	for labels, x := range busy {
		m["job.busy_share_max"] = max(m["job.busy_share_max"], x/window)
		if strings.Contains(labels, `vertex="sink"`) {
			m["job.busy_share_sink"] = x / window
		}
	}
	stalls := map[string]float64{}
	for _, name := range []string{"clonos_netstack_send_blocked_ns_total", "clonos_buffer_wait_ns_total"} {
		for labels, x := range family(delta, name, "") {
			stalls[taskOf(labels)] += x
		}
	}
	for _, x := range stalls {
		m["job.backpressured_share_max"] = max(m["job.backpressured_share_max"], x/1e9/window)
	}
	m["job.records_per_buffer"] = ratio(sum("clonos_task_records_in_total", ""), sum("clonos_task_buffers_in_total", ""))
	m["job.bytes_per_record"] = ratio(sum("clonos_task_bytes_out_total", ""), sum("clonos_task_records_out_total", ""))
	m["job.process_us_per_buffer"] = 1e6 * ratio(sum("clonos_task_process_seconds", "_sum"), sum("clonos_task_process_seconds", "_count"))

	m["job.allocs_per_record"] = float64(d.memEnd.Mallocs-d.memStart.Mallocs) / records
	m["job.alloc_bytes_per_record"] = float64(d.memEnd.TotalAlloc-d.memStart.TotalAlloc) / records
	m["job.gc_cpu_share"] = (d.gcEnd[0] - d.gcStart[0]) / (d.stamps[d.opts.nseg].procCPU - d.stamps[0].procCPU).Seconds()
	m["job.heap_peak_mb"] = float64(d.heapPeak) / 1e6

	// Recovery, from the runtime's own recovery spans and events.
	recs := d.recoveries()
	phases := map[string][]float64{}
	var protocol, detection []float64
	for _, s := range recs {
		protocol = append(protocol, ms(s.Duration()))
		for _, p := range s.Phases() {
			phases[p.Name] = append(phases[p.Name], ms(p.Dur))
		}
	}
	for _, k := range d.kills {
		// The recovery span opens when the failure is detected.
		for _, s := range recs {
			if s.Attr("task") == k.victim.String() && s.Start.After(k.at) && s.Start.Sub(k.at) < d.w.Segment {
				detection = append(detection, ms(s.Start.Sub(k.at)))
			}
		}
	}
	m["job.recovery_protocol_ms"] = finite(median(protocol))
	m["job.detection_ms_p50"] = finite(median(detection))
	for _, name := range []string{"standby-activated", "determinants-retrieved", "network-reconfigured", "replay-done", "caught-up"} {
		m["job.phase_ms."+name] = finite(median(phases[name]))
	}
	m["job.replayed_buffers_per_kill"] = ratio(sum("clonos_replay_served_total", ""), float64(len(recs)))
	m["job.dedup_discarded_per_kill"] = ratio(sum("clonos_dedup_discarded_total", ""), float64(len(recs)))
	m["job.global_restarts"] = float64(countEvents(d.events, job.EventGlobalRestart))
}
