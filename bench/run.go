package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/nexmark"
	"clonos/internal/obs"
	"clonos/internal/services"
	"clonos/internal/synthetic"
)

// drainDeadline is how long the job may take to finish after the input
// closes before the undelivered records count as failed.
const drainDeadline = 30 * time.Second

// runOpts are the settings of one job run that the workload does not fix.
type runOpts struct {
	window time.Duration
	// warmup is the load the job carries before the clock starts.
	warmup time.Duration
	nseg   int
	// sample turns on the benchmark's 100 ms registry sampling during
	// the odd segments of the window; the even segments stay untouched,
	// so the two halves give the sampling's own overhead.
	sample bool
	// reference runs the workload's comparison configuration instead of
	// its own (see workload.Reference).
	reference bool
	seed      int64
}

// runData is everything one job run leaves behind for analysis.
type runData struct {
	w     workload
	in    *inputs
	opts  runOpts
	t0    time.Time
	first int64 // index of the first input the generator offered

	setup     time.Duration // what startJob took
	stamps    []stamp
	offered   int64 // inputs appended in total, set-up probe included
	lateMaxMs float64
	sink      []kafkasim.SinkRecord
	dups      uint64
	kills     []kill
	drained   bool
	errs      []error

	regStart, regEnd map[string]float64 // registry at window start / end
	memStart, memEnd runtime.MemStats
	gcStart, gcEnd   [2]float64 // GC and total CPU seconds, runtime/metrics
	heapPeak         uint64
	samples          []obs.TraceRecord // 100 ms registry samples (sample only)
	lagMax           float64           // worst sampled source lag, records
	spans            []obs.SpanRecord  // the runtime's tracer spans
	events           []job.Event
	engineTrace      []obs.TraceRecord // both, in recording shape
}

func jobConfig(w workload, reference bool) job.Config {
	cfg := job.DefaultConfig()
	if w.FullDSD {
		cfg.DSD = 0
	}
	if w.Query != "" {
		cfg.World = services.NewExternalWorld()
	}
	if reference && w.Reference == "global" {
		cfg.Mode = job.ModeGlobal
		cfg.Standby = false
	}
	return cfg
}

// buildGraph builds the workload's dataflow graph over a source topic
// and a sink.
func buildGraph(w workload, topic *kafkasim.Topic, sink *kafkasim.SinkTopic) (*job.Graph, error) {
	if w.Query == "" {
		return synthetic.Build(topic, sink, synthetic.Config{Parallelism: parallelism, Depth: 3, Keys: w.Keys, StateBytesPerKey: w.StateBytes}), nil
	}
	return nexmark.Build(w.Query, topic, sink, nexmark.DefaultQueryConfig(parallelism))
}

// liveJob is a started job with its source topic and sink.
type liveJob struct {
	topic *kafkasim.Topic
	sink  *kafkasim.SinkTopic
	rt    *job.Runtime
}

// startJob builds the workload's graph, starts it and offers the first
// setupProbe inputs. It returns once their outputs are at the sink, with
// the time all of that took: the job's set-up time.
func startJob(w workload, in *inputs, cfg job.Config, probeOutputs int) (*liveJob, time.Duration, error) {
	began := time.Now()
	j := &liveJob{topic: kafkasim.NewTopic(w.Name, parallelism), sink: kafkasim.NewSinkTopic(true)}
	g, err := buildGraph(w, j.topic, j.sink)
	if err != nil {
		return nil, 0, err
	}
	rt, err := job.NewRuntime(g, cfg)
	if err != nil {
		return nil, 0, err
	}
	j.rt = rt
	if err := rt.Start(); err != nil {
		return nil, 0, err
	}
	nowMs := time.Now().UnixMilli()
	for i := int64(0); i < setupProbe; i++ {
		j.topic.Append(in.record(i, nowMs))
	}
	for j.sink.Len() < probeOutputs {
		if time.Since(began) > drainDeadline {
			rt.Stop()
			return nil, 0, fmt.Errorf("set-up: %d of %d probe outputs after %v; errors: %v", j.sink.Len(), probeOutputs, drainDeadline, rt.Errors())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return j, time.Since(began), nil
}

// timeSetups sets the workload up n more times, stopping each job as
// soon as it is up, and returns how long each set-up took.
func timeSetups(w workload, in *inputs, n int) ([]float64, error) {
	out := make([]float64, n)
	for r := range out {
		j, took, err := startJob(w, in, jobConfig(w, false), int(in.outputs(setupProbe)))
		if err != nil {
			return nil, err
		}
		j.rt.Stop()
		out[r] = took.Seconds()
	}
	return out, nil
}

// runJob sets the workload up, warms it, measures one window and drains
// the job: one round. The returned data has not been judged yet: see
// analyze.
func runJob(w workload, in *inputs, o runOpts) (*runData, error) {
	d := &runData{w: w, in: in, opts: o, first: setupProbe}
	if o.reference && w.Reference == "nproc" {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), 4)))
	}
	j, took, err := startJob(w, in, jobConfig(w, o.reference), int(in.outputs(setupProbe)))
	if err != nil {
		return nil, err
	}
	d.setup = took
	defer j.rt.Stop()

	start := time.Now()
	d.t0 = start.Add(o.warmup)
	gen := &generator{
		topic: j.topic, in: in, rate: w.Rate, burst: w.Burst,
		first: d.first, start: start, t0: d.t0, seg: o.window / time.Duration(o.nseg), nseg: o.nseg,
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gen.run() }()
	go func() { defer wg.Done(); d.observe(j) }()
	if w.Kill && !o.reference {
		d.kills = runKills(j.rt, j.rt.InjectFailure, d.t0, gen.seg, killDelay, killVictims(o.nseg, o.seed))
	}
	wg.Wait()
	d.stamps, d.offered, d.lateMaxMs = gen.stamps, gen.offered+d.first, gen.lateMaxMs

	d.drained = j.rt.WaitFinished(drainDeadline)
	d.errs = j.rt.Errors()
	d.spans = j.rt.Tracer().Spans()
	d.events = j.rt.Events()
	d.engineTrace = obs.TracerRecords(j.rt.Tracer())
	d.sink, d.dups = j.sink.All(), j.sink.Duplicates()
	return d, nil
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readGC() (cpu [2]float64, heapObjects uint64) {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}, s[2].Value.Uint64()
}

// observe reads the runtime's registry and the Go runtime's own
// counters at the window's start and end, and every 100 ms in between
// watches the heap and — in the odd segments of a sampled run — records
// a registry sample and the source lag.
func (d *runData) observe(j *liveJob) {
	reg := j.rt.Obs()
	time.Sleep(time.Until(d.t0))
	d.regStart = reg.Snapshot().Flatten()
	runtime.ReadMemStats(&d.memStart)
	d.gcStart, _ = readGC()
	end := d.t0.Add(d.opts.window)
	seg := d.opts.window / time.Duration(d.opts.nseg)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for now := range tick.C {
		if !now.Before(end) {
			break
		}
		_, heap := readGC()
		d.heapPeak = max(d.heapPeak, heap)
		if d.opts.sample && int(now.Sub(d.t0)/seg)%2 == 1 {
			rec := obs.SampleRecord(reg, now)
			lag := float64(j.topic.TotalLen()) - sumFamily(rec.Vals, "clonos_task_records_out_total", "", sourceVertex(d.w))
			rec.Vals["bench_source_lag_records"] = lag
			d.lagMax = max(d.lagMax, lag)
			d.samples = append(d.samples, rec)
		}
	}
	d.regEnd = reg.Snapshot().Flatten()
	runtime.ReadMemStats(&d.memEnd)
	d.gcEnd, _ = readGC()
}

// sourceVertex names the workload's source vertex in registry labels.
func sourceVertex(w workload) string {
	if w.Query == "" {
		return "src"
	}
	return "source"
}
