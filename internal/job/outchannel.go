package job

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clonos/internal/buffer"
	"clonos/internal/faultinject"
	"clonos/internal/inflight"
	"clonos/internal/netstack"
	"clonos/internal/types"
)

// channelGen hands out process-wide unique connection generations, one
// per outChannel incarnation, used to fence off a crashed predecessor's
// lingering sends (see Endpoint.Rebind).
var channelGen atomic.Uint64

// replayCorruptFn rewrites a replayed payload; see testReplayCorrupt.
type replayCorruptFn func(ch types.ChannelID, seq uint64, data []byte) []byte

// testReplayCorrupt, when set, rewrites replayed payloads before they
// are audited and re-sent — the divergence-injection hook the audit
// tests use to prove the replay-hash invariant fires. Never set outside
// tests (the crash-point injector owns production fault injection).
var testReplayCorrupt atomic.Pointer[replayCorruptFn]

// outChannel is the sender side of one physical channel: serializer,
// output buffer pool, in-flight log, sequence numbering, and the replay /
// deduplication machinery used during recovery.
type outChannel struct {
	id   types.ChannelID
	task *Task
	// gen is this incarnation's connection generation, stamped on every
	// outgoing message.
	gen uint64

	writer  *netstack.ChannelWriter
	outPool *buffer.Pool
	iflog   *inflight.Log

	mu      sync.Mutex
	nextSeq uint64
	epoch   types.EpochID
	// epochStartSeq is nextSeq at the current epoch's start, the floor
	// for replay when the in-flight log has no entries yet.
	epochStartSeq uint64
	// pending suppresses direct sends: the receiver is down or a replay
	// to it is in progress; dispatched buffers go to the log only
	// (§6.1: processing never stops while downstream recovers).
	pending bool
	// sentUpTo is the highest seq already transmitted on the current
	// connection; the direct path skips anything at or below it so the
	// replay→direct handoff neither duplicates nor drops a buffer.
	sentUpTo uint64
	// dedupUpTo makes dispatch skip transmitting seqs <= it: sender-side
	// deduplication after this task's own recovery (§5.2), covering
	// output its predecessor already delivered.
	dedupUpTo uint64
	// replaySeq is the next seq the replay goroutine will transmit; a
	// new replay request resets it, and the running loop picks the
	// reset up (restartable replay for repeated downstream failures).
	replaySeq uint64
	// resetPending marks that the next transmitted message starts a
	// fresh byte stream (divergent recovery): the receiver must drop
	// partial deserializer state from the predecessor.
	resetPending bool
	// replayActive guards against concurrent replay goroutines.
	replayActive bool
	// reconnects counts replay requests and direct resumes: a send that
	// fails after the receiver's recovery re-armed the channel must not
	// flip it back to pending (see maybeTransmit).
	reconnects uint64

	// retryWake is signalled (capacity 1, never blocking) whenever the
	// receiving side may have become able to accept a previously rejected
	// replay push: a new replay request redirected the loop, the
	// receiver's endpoint was opened, the channel resumed direct sending,
	// or it closed. The replay loop parks here instead of busy-waiting.
	retryWake chan struct{}
}

func newOutChannel(t *Task, id types.ChannelID, outPool *buffer.Pool, iflog *inflight.Log) *outChannel {
	// epoch starts at 1 to match the task's initial epoch: buffers
	// dispatched before the first barrier belong to epoch 1, and a replay
	// request for epoch 1 (a failure before the first completed
	// checkpoint) must find them — FirstSeqOfEpoch scans by entry epoch,
	// so epoch-0 labels would silently drop the whole pre-barrier prefix.
	oc := &outChannel{id: id, task: t, gen: channelGen.Add(1), outPool: outPool, iflog: iflog, nextSeq: 1, epochStartSeq: 1,
		epoch: 1, retryWake: make(chan struct{}, 1)}
	edge := t.env.graph.Edges[id.Edge]
	oc.writer = netstack.NewChannelWriter(outPool, edge.CodecOrDefault(), oc.dispatch)
	return oc
}

// wakeReplay nudges a replay loop parked on a rejected push (non-blocking;
// a single buffered token coalesces bursts).
func (oc *outChannel) wakeReplay() {
	select {
	case oc.retryWake <- struct{}{}:
	default:
	}
}

// dispatch receives a filled buffer from the writer (on the task's main
// thread): stamp seq/epoch, log the BUFFERSIZE determinant in the task's
// log (during guided replay, first consuming the predecessor's), attach
// the causal delta, append to the in-flight log (with the §6.1
// buffer-pool exchange), and transmit unless pending or deduplicated.
// dispatch owns b's structural reference and must settle it on every
// path.
//
//clonos:owns-transfer
func (oc *outChannel) dispatch(b *buffer.Buffer) error {
	oc.mu.Lock()
	seq := oc.nextSeq
	oc.nextSeq++
	b.Seq = seq
	b.Epoch = oc.epoch
	oc.mu.Unlock()

	t := oc.task
	t.metrics.bytesOut.Add(uint64(b.Len()))
	if t.causal != nil {
		if err := t.replayDispatch(oc.id, b.Len()); err != nil {
			b.ReleaseTo(oc.outPool)
			return err
		}
		t.causal.AppendBufferSize(oc.id, b.Len())
		b.Delta = t.causal.DeltaFor(oc.id)
	}

	// Alias the payload into a pooled message: the wire retains the
	// buffer (Bind), so the in-flight log's spiller can drop its own
	// reference concurrently without the bytes going away — no copy.
	// The delta is aliased too; deltas are freshly allocated per buffer
	// and never mutated.
	msg := netstack.NewMessage()
	msg.Channel = oc.id
	msg.Seq = seq
	msg.Epoch = b.Epoch
	msg.Gen = oc.gen
	msg.Delta = b.Delta
	msg.Bind(b)

	if oc.iflog == nil {
		// No in-flight logging (at-most-once / baseline): transmit, then
		// drop the structural reference with the channel pool as the
		// recycle destination (deferred until the receiver releases).
		err := oc.maybeTransmit(msg)
		b.ReleaseTo(oc.outPool)
		return err
	}

	// The log takes the sent buffer and donates one of its own to the
	// channel pool. Take blocks when the log pool is exhausted — the
	// backpressure behaviour §7.5 measures.
	replacement := t.logPool.Take()
	if replacement == nil {
		// Log pool closed (shutdown): the message drops its payload
		// reference, and the structural reference — which would have gone
		// to the in-flight log — returns to the channel pool instead of
		// leaking the pool slot.
		msg.Release()
		b.ReleaseTo(oc.outPool)
		return netstack.ErrWriterClosed
	}
	oc.outPool.Forfeit()
	oc.outPool.Donate(replacement)
	if err := oc.iflog.Append(b); err != nil {
		// Closed log kept the caller's reference: settle it here, same as
		// above — without this the buffer (and its pool slot) leaks on
		// every dispatch raced by shutdown.
		msg.Release()
		b.ReleaseTo(oc.outPool)
		return err
	}
	// The send decision comes *after* the log append so the replay
	// goroutine's caught-up check (log tail under oc.mu) and this check
	// serialize correctly — exactly one of them transmits each seq.
	return oc.maybeTransmit(msg)
}

// maybeTransmit sends a message on the direct path unless the channel is
// pending, the seq was already covered by a replay, or it is
// deduplicated after recovery. A broken receiver flips the channel to
// pending: the task keeps producing into the in-flight log while
// downstream is dead (or loses the data, at-most-once). maybeTransmit
// always takes ownership of m: it releases it, or hands it to the
// receiving endpoint.
//
//clonos:owns-transfer
func (oc *outChannel) maybeTransmit(m *netstack.Message) error {
	oc.mu.Lock()
	send := !oc.pending && m.Seq > oc.sentUpTo && m.Seq > oc.dedupUpTo
	dedup := !oc.pending && m.Seq > oc.sentUpTo && m.Seq <= oc.dedupUpTo
	reconnects := oc.reconnects
	if send {
		oc.sentUpTo = m.Seq
		if oc.resetPending {
			m.StreamReset = true
			oc.resetPending = false
		}
	}
	oc.mu.Unlock()
	if dedup {
		oc.task.metrics.dedupDiscarded.Inc()
		if a := oc.task.audit; a != nil {
			// A dedup-suppressed buffer is this incarnation's re-production
			// of output its predecessor already delivered: guided replay
			// promises byte identity, so the payload must hash-match what
			// the receiver recorded for this seq (before Release below).
			a.OnResend(oc.task.id, oc.id, m.Seq, m.Epoch, m.Data, "dedup")
		}
	}
	if !send {
		m.Release()
		return nil
	}
	err := oc.send(m)
	if err == nil {
		// Ownership of m (and its payload reference) transferred to the
		// receiving endpoint.
		return nil
	}
	m.Release()
	if errors.Is(err, netstack.ErrChannelBroken) {
		// The receiver died under this send. If its recovery has re-armed
		// the channel since the send was decided, the replay (or resume)
		// owns the connection now and this buffer is in its log: flipping
		// to pending here would strand the channel behind a hand-over
		// that has already happened.
		oc.mu.Lock()
		if oc.reconnects == reconnects {
			oc.pending = true
		}
		oc.mu.Unlock()
		return nil
	}
	return err
}

// send pushes a message to the live endpoint, returning the raw error.
// The wall time of each push — including any credit-limit stall inside
// the receiving endpoint — feeds the send-stall histogram, making
// backpressure on this channel visible per sending task.
//
//clonos:owns-transfer on-success
func (oc *outChannel) send(m *netstack.Message) error {
	start := time.Now()
	err := oc.task.env.net.Send(m)
	oc.task.metrics.sendStall.ObserveSince(start)
	return err
}

// isPending reports whether direct sends are suppressed (receiver down
// or replay in progress). Safe off-thread; backs the pending gauge.
func (oc *outChannel) isPending() bool {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return oc.pending
}

// startEpoch advances the channel's epoch after its barrier was flushed.
func (oc *outChannel) startEpoch(e types.EpochID) {
	oc.mu.Lock()
	oc.epoch = e
	oc.epochStartSeq = oc.nextSeq
	oc.mu.Unlock()
	if oc.iflog != nil {
		oc.iflog.StartEpoch(e)
	}
}

// restore resets sequencing after a checkpoint restore.
func (oc *outChannel) restore(nextSeq uint64, epoch types.EpochID) {
	oc.mu.Lock()
	oc.nextSeq = nextSeq
	oc.epochStartSeq = nextSeq
	oc.sentUpTo = 0
	oc.epoch = epoch
	oc.mu.Unlock()
	if oc.iflog != nil {
		oc.iflog.StartEpoch(epoch)
	}
}

// PrepareReplay arms a downstream in-flight replay request (§2.2 step 5):
// it computes the first seq to retransmit (the requested epoch's first
// logged buffer, past afterSeq), flips the channel to pending, and starts
// (or redirects) the replay goroutine. It returns the start seq so the
// requester can open its endpoint with AcceptFrom(start) — only then will
// the replayed pushes be accepted, which serializes correctly against any
// stale direct sends.
func (oc *outChannel) PrepareReplay(fromEpoch types.EpochID, afterSeq uint64) (uint64, error) {
	if oc.iflog == nil {
		return 0, fmt.Errorf("job: channel %v has no in-flight log", oc.id)
	}
	oc.mu.Lock()
	start, ok := oc.iflog.FirstSeqOfEpoch(fromEpoch)
	if !ok {
		// The requested epoch must not have been truncated away — that
		// would mean the requester restored a checkpoint older than the
		// latest completed one (a protocol violation; recovery always
		// restores the newest completed checkpoint).
		if first, has := oc.iflog.FirstEpoch(); has && first > fromEpoch {
			oc.mu.Unlock()
			return 0, fmt.Errorf("job: channel %v: replay request for epoch %d but oldest retained epoch is %d (stale restore point)",
				oc.id, fromEpoch, first)
		}
		// Nothing retained for that epoch yet (e.g. this task is itself
		// mid-recovery and the log is being rebuilt): start at the
		// epoch's first seq.
		start = oc.epochStartSeq
	}
	if afterSeq+1 > start {
		start = afterSeq + 1
	}
	oc.pending = true
	oc.reconnects++
	oc.replaySeq = start
	oc.sentUpTo = start - 1
	// The requester holds nothing at or past start: a dedup floor sampled
	// from its predecessor (which died after this task's own recovery
	// sampled it) must not withhold those buffers from it.
	oc.dedupUpTo = min(oc.dedupUpTo, start-1)
	spawn := !oc.replayActive
	oc.replayActive = true
	oc.mu.Unlock()
	if spawn {
		go oc.replayLoop()
	} else {
		// Redirect a running loop that may be parked on a rejected push.
		oc.wakeReplay()
	}
	return start, nil
}

// replayLoop retransmits logged buffers from replaySeq onward, retrying
// transient rejections (the receiver's endpoint opens only once its
// replay request is processed) and following replaySeq resets from newer
// requests. Once it catches up with the log tail it atomically hands the
// channel back to direct sending.
func (oc *outChannel) replayLoop() {
	for {
		if oc.task.crashed.Load() {
			oc.mu.Lock()
			oc.replayActive = false
			oc.mu.Unlock()
			return
		}
		oc.mu.Lock()
		seq := oc.replaySeq
		oc.mu.Unlock()
		entry, data, ok, err := oc.iflog.ReadEntry(seq)
		if err != nil {
			oc.task.env.reportTaskError(oc.task.id, fmt.Errorf("replay %v: %w", oc.id, err))
			oc.mu.Lock()
			oc.replayActive = false
			oc.mu.Unlock()
			return
		}
		if !ok {
			// Possibly caught up with the log tail. Decide atomically
			// against dispatch: with oc.mu held, any entry appended
			// before this check is visible in the log tail.
			oc.mu.Lock()
			if oc.replaySeq != seq {
				oc.mu.Unlock() // redirected by a newer request
				continue
			}
			last, has := oc.iflog.LastSeq()
			if !has || seq > last {
				oc.pending = false
				oc.replayActive = false
				oc.mu.Unlock()
				if ep := oc.task.env.net.Endpoint(oc.id); ep != nil {
					ep.ReplayDone()
				}
				return
			}
			oc.mu.Unlock()
			continue
		}
		if oc.task.crashPoint(faultinject.PointServeReplayEntry) {
			// This task died mid-retransmission; the loop head performs
			// the crashed-task cleanup and exit.
			continue
		}
		if pf := testReplayCorrupt.Load(); pf != nil {
			data = (*pf)(oc.id, entry.Seq, data)
		}
		if a := oc.task.audit; a != nil {
			// Replayed bytes must match what the (possibly dead) receiver
			// incarnation recorded at original delivery — the sender-side
			// half of the replay-hash check; the receiving endpoint's
			// OnDeliver re-checks on acceptance.
			a.OnResend(oc.task.id, oc.id, entry.Seq, entry.Epoch, data, "replay")
		}
		m := netstack.NewMessage()
		m.Channel = oc.id
		m.Seq = entry.Seq
		m.Epoch = entry.Epoch
		m.Gen = oc.gen
		m.Data = data // ReadEntry returns a private copy
		m.Delta = entry.Delta
		m.Replayed = true
		sendErr := oc.send(m)
		if sendErr != nil {
			m.Release() // rejected pushes leave ownership with the sender
		}
		oc.mu.Lock()
		if oc.replaySeq != seq {
			oc.mu.Unlock()
			continue // redirected mid-send; the push was rejected or superseded
		}
		if sendErr != nil {
			oc.mu.Unlock()
			oc.task.metrics.replayRetries.Inc()
			// Receiver not (yet, or no longer) accepting. Park until the
			// receiving side changes — a replay redirect, its endpoint
			// opening, or this task aborting — rather than spinning: if
			// the receiver never comes back, a sleep-retry loop would spin
			// forever. The timer is a lost-wake-up safety net across
			// endpoint replacement, not a polling interval.
			select {
			case <-oc.retryWake:
			case <-oc.task.abort:
			case <-time.After(250 * time.Millisecond):
			}
			continue
		}
		oc.replaySeq = seq + 1
		if entry.Seq > oc.sentUpTo {
			oc.sentUpTo = entry.Seq
		}
		oc.mu.Unlock()
		oc.task.metrics.replayServed.Inc()
	}
}

// resumeDirect flips the channel to direct sending without any replay
// (at-most-once gap recovery), renumbering past the receiver's view.
func (oc *outChannel) resumeDirect(afterSeq uint64) {
	oc.mu.Lock()
	if afterSeq+1 > oc.nextSeq {
		oc.nextSeq = afterSeq + 1
	}
	oc.sentUpTo = oc.nextSeq - 1
	oc.pending = false
	oc.reconnects++
	oc.resetPending = true
	oc.mu.Unlock()
	oc.wakeReplay()
}

// setDedup configures sender-side deduplication after this task's own
// recovery: buffers with seq <= upTo rebuild the in-flight log but are
// not retransmitted (§2.2 step 6).
func (oc *outChannel) setDedup(upTo uint64) {
	oc.mu.Lock()
	prev := oc.dedupUpTo
	oc.dedupUpTo = upTo
	oc.mu.Unlock()
	if a := oc.task.audit; a != nil {
		a.OnDedupFloor(oc.task.id, oc.id, prev, upTo)
	}
}

// forceNextSeq aligns sequencing with the receiver for at-least-once
// recovery, where divergent replay produces fresh (possibly duplicate)
// records rather than byte-identical buffers.
func (oc *outChannel) forceNextSeq(seq uint64) {
	oc.mu.Lock()
	oc.nextSeq = seq
	oc.epochStartSeq = seq
	oc.sentUpTo = seq - 1
	oc.resetPending = true
	oc.mu.Unlock()
}

func (oc *outChannel) close() {
	if oc.iflog != nil {
		oc.iflog.Close()
	}
	oc.outPool.Close()
	oc.wakeReplay()
}
