package main

import (
	"runtime"
	"syscall"
	"time"

	"clonos/internal/kafkasim"
	"clonos/internal/types"
)

// cpuTime returns the CPU time (user + system) the kernel has charged
// to who: syscall.RUSAGE_SELF for the process, RUSAGE_THREAD for the
// calling OS thread.
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(err) // who is one of two constants the kernel accepts
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stamp is the state of the run at one segment boundary, taken by the
// generator on its own thread.
type stamp struct {
	at      time.Time
	procCPU time.Duration // whole process
	genCPU  time.Duration // the generator's OS thread, subtracted from procCPU
	offered int64         // records appended so far
}

// generator is the benchmark's single load goroutine. Open loop (rate >
// 0): record i is due at start + i/rate; the generator wakes about every
// millisecond, appends everything that has become due and stamps each
// record with its due time, so sink latency counts generator lateness
// and source lag. Bursts (rate == 0): it appends burst records at once,
// stamped with that instant, when the warm-up begins and as each segment
// begins; until a burst is drained the source never waits.
type generator struct {
	topic *kafkasim.Topic
	in    *inputs
	rate  int
	burst int

	first int64     // index of the first record to offer
	start time.Time // when record `first` is due
	t0    time.Time // window start; start + warmup
	seg   time.Duration
	nseg  int
	// Results, valid once run returns.
	stamps    []stamp // nseg+1 boundaries
	offered   int64   // total records appended, including first
	lateMaxMs float64 // worst lateness of an append against its due time
}

// run offers the workload until the window ends, then closes the topic.
// It locks its goroutine to one OS thread so RUSAGE_THREAD sees all of
// the generator's CPU and nothing else.
func (g *generator) run() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	end := g.t0.Add(time.Duration(g.nseg) * g.seg)
	i := g.first
	for {
		now := time.Now()
		burstDue := i == g.first // the warm-up's burst, then one per segment
		for len(g.stamps) <= g.nseg && !now.Before(g.t0.Add(time.Duration(len(g.stamps))*g.seg)) {

			g.stamps = append(g.stamps, stamp{now, cpuTime(syscall.RUSAGE_SELF), cpuTime(syscall.RUSAGE_THREAD), i - g.first})
			burstDue = true
		}
		if !now.Before(end) {
			break
		}
		if g.rate > 0 {
			due := g.first + int64(now.Sub(g.start))*int64(g.rate)/int64(time.Second)
			if i <= due {
				lateMs := float64(now.Sub(g.dueAt(i))) / float64(time.Millisecond)
				g.lateMaxMs = max(g.lateMaxMs, lateMs)
			}
			for ; i <= due; i++ {
				g.topic.Append(g.in.record(i, g.dueAt(i).UnixMilli()))
			}
		} else if burstDue {
			for n, nowMs := 0, now.UnixMilli(); n < g.burst; n++ {
				g.topic.Append(g.in.record(i, nowMs))
				i++
			}
		}
		if g.rate > 0 {
			time.Sleep(time.Millisecond - time.Since(now))
		} else {
			// Nothing to do until the next segment begins.
			time.Sleep(time.Until(g.t0.Add(time.Duration(len(g.stamps)) * g.seg)))
		}
	}
	g.offered = i - g.first
	g.topic.Close()
}

func (g *generator) dueAt(i int64) time.Time {
	return g.start.Add(time.Duration(i-g.first) * time.Second / time.Duration(g.rate))
}

// checkpointer is the part of job.Runtime the kill scheduler watches.
type checkpointer interface {
	LatestCompletedCheckpoint() types.CheckpointID
	WaitForCheckpoint(cp types.CheckpointID, timeout time.Duration) bool
}

// kill is one scheduled failure and what became of it.
type kill struct {
	victim types.TaskID
	at     time.Time // when InjectFailure was called; zero if it was not
	err    string    // why the kill could not be made, if so
}

// killVictims rotates the kills over the stage tasks, starting where
// the seed says: stage0[0] -> stage1[1] -> stage2[0] -> stage1[0].
// Vertex IDs follow synthetic.Build: src 0, stage0..2 1..3, sink 4.
func killVictims(n int, seed int64) []types.TaskID {
	order := []types.TaskID{{Vertex: 1, Subtask: 0}, {Vertex: 2, Subtask: 1}, {Vertex: 3, Subtask: 0}, {Vertex: 2, Subtask: 0}}
	out := make([]types.TaskID, n)
	for k := range out {
		out[k] = order[(int(seed%4)+4+k)%4]
	}
	return out
}

// runKills makes kill k at t0 + (k+0.1)*every, phase-locked: it waits
// for the next checkpoint to complete, then delay, then kills, so every
// recovery starts at the same point of the checkpoint cycle and replays
// the same volume. A kill that sees no checkpoint complete within one
// period is given up. It returns after the last kill.
func runKills(cp checkpointer, inject func(types.TaskID) error, t0 time.Time, every, delay time.Duration, victims []types.TaskID) []kill {
	kills := make([]kill, len(victims))
	for k, v := range victims {
		kills[k].victim = v
		time.Sleep(time.Until(t0.Add(time.Duration(k)*every + every/10)))
		if !cp.WaitForCheckpoint(cp.LatestCompletedCheckpoint()+1, every) {
			kills[k].err = "no checkpoint completed within one kill period"
			continue
		}
		time.Sleep(delay)
		if err := inject(v); err != nil {
			kills[k].err = err.Error()
			continue
		}
		kills[k].at = time.Now()
	}
	return kills
}
