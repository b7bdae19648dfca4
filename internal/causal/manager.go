package causal

import (
	"encoding/binary"
	"sync"

	"clonos/internal/obs"
	"clonos/internal/types"
)

// ManagerMetrics instruments a task's causal subsystem. All fields are
// optional (nil-safe): Appended counts determinants appended to the
// task's own log, Extractions counts successful replica extractions
// performed during a downstream peer's recovery, DeltaEntries and
// DeltaBytes count determinants shared in piggybacked deltas and the
// encoded bytes they cost on the wire. Comparing DeltaBytes against
// DeltaEntries times the naive per-entry encoding size shows the
// delta-encode savings live.
type ManagerMetrics struct {
	Appended     *obs.Counter
	Extractions  *obs.Counter
	DeltaEntries *obs.Counter
	DeltaBytes   *obs.Counter
}

// Manager is one task's causal-logging subsystem: its own log, the
// replicated store of upstream logs, and the per-downstream-channel
// sharing cursors that make each buffer's piggybacked delta carry exactly
// the entries the receiver has not seen.
type Manager struct {
	self types.TaskID
	dsd  int

	mu       sync.Mutex
	main     *Log
	replicas *Store
	// cursors[downstreamChannel] tracks what has been shared on that
	// channel: the next absolute index of the own log and of each replica.
	cursors map[types.ChannelID]*cursorSet
	// externalCursors track sharing with external output systems (§5.5
	// exactly-once output): sink tasks piggyback their log deltas on
	// records written to e.g. Kafka.
	externalCursors map[string]uint64
	// encScratch is the reused delta-encode buffer and forward the reused
	// list of the replicas the delta under construction will forward
	// (both guarded by mu). Deltas are encoded into the scratch first,
	// then copied out right-sized: the returned slice is retained by
	// in-flight log entries and aliased by wire messages, so it must be
	// private, but the growth churn of building it from nil is amortized
	// away.
	encScratch []byte
	forward    []*Replica

	appended     *obs.Counter
	deltaEntries *obs.Counter
	deltaBytes   *obs.Counter
}

type cursorSet struct {
	own      uint64
	replicas map[*Replica]uint64
}

// NewManager creates the causal subsystem for task self with the given
// determinant sharing depth. DSD 0 disables sharing entirely
// (at-least-once mode, §5.4).
func NewManager(self types.TaskID, dsd int) *Manager {
	m := &Manager{self: self, dsd: dsd, replicas: NewStore()}
	m.SeedForRecovery(0) // a new task's log starts at index 0
	return m
}

// Instrument attaches metrics: Appended to this manager's own-log
// appends, Extractions to its replica store.
func (m *Manager) Instrument(mx ManagerMetrics) {
	m.mu.Lock()
	m.appended = mx.Appended
	m.deltaEntries = mx.DeltaEntries
	m.deltaBytes = mx.DeltaBytes
	m.mu.Unlock()
	m.replicas.Instrument(mx.Extractions)
}

// SizeEntries reports the total retained determinant count across the
// task's own log and its replica store.
func (m *Manager) SizeEntries() int {
	m.mu.Lock()
	n := m.main.Len()
	m.mu.Unlock()
	return n + m.replicas.SizeEntries()
}

// DSD returns the configured determinant sharing depth.
func (m *Manager) DSD() int { return m.dsd }

// Main returns the task's own log.
func (m *Manager) Main() *Log { return m.main }

// Replicas returns the replicated upstream-log store.
func (m *Manager) Replicas() *Store { return m.replicas }

// SeedForRecovery re-bases the task's own log at the absolute index the
// predecessor's log had at the epoch start, so determinants re-appended
// during causally guided replay land on identical positions and remain
// idempotent at downstream replicas.
func (m *Manager) SeedForRecovery(mainStart uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.main = NewLogAt(mainStart)
	// Conservatively forget sharing cursors: all retained entries are
	// re-shared; replicas deduplicate by absolute index.
	m.cursors = make(map[types.ChannelID]*cursorSet)
	m.externalCursors = make(map[string]uint64)
}

// DeltaForExternal assembles the delta of the task's own log for an
// external output system (§5.5): sink tasks attach it to outgoing records
// so the output system can return the determinants during recovery. It
// advances the named consumer's cursor and returns nil when nothing is
// new or DSD is 0.
func (m *Manager) DeltaForExternal(consumer string) []byte {
	if m.dsd <= 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.main.unsent(m.externalCursors[consumer]) == 0 {
		return nil
	}
	dst := appendSetHeader(append(m.encScratch[:0], 1), m.self, 1) // one set
	dst, n, next := m.main.appendSince(dst, m.externalCursors[consumer])
	m.externalCursors[consumer] = next
	return m.finishDelta(dst, n)
}

// finishDelta keeps the encode scratch for the next delta and returns a
// private right-sized copy of what was encoded into it (one exact
// allocation instead of append-growth doubling).
func (m *Manager) finishDelta(enc []byte, ents int) []byte {
	m.encScratch = enc
	m.deltaEntries.Add(uint64(ents))
	m.deltaBytes.Add(uint64(len(enc)))
	return append(make([]byte, 0, len(enc)), enc...)
}

// DeltaFor assembles and serializes the causal delta to piggyback on the
// next buffer dispatched to the given downstream channel, advancing the
// channel's cursors. Returns nil when DSD is 0 or nothing is new. It
// encodes straight from the logs: O(entries sent), and no allocation but
// the returned delta.
func (m *Manager) DeltaFor(down types.ChannelID) []byte {
	if m.dsd <= 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cs, ok := m.cursors[down]
	if !ok {
		cs = &cursorSet{replicas: make(map[*Replica]uint64)}
		m.cursors[down] = cs
	}
	// The wire format counts sets ahead of their contents, so first list
	// what has something unsent: the own log, then (DSD > 1 only, Hops
	// >= 1) the replicas to forward. The store stays locked until their
	// entries are encoded.
	own := m.main.unsent(cs.own) > 0
	fwd := m.forward[:0]
	if m.dsd > 1 {
		m.replicas.mu.Lock()
		defer m.replicas.mu.Unlock()
		for _, rep := range m.replicas.order {
			if rep.Hops >= m.dsd {
				continue
			}
			if run, _ := rep.log.since(cs.replicas[rep]); run != nil {
				fwd = append(fwd, rep)
			}
		}
	}
	m.forward = fwd
	sets := len(fwd)
	if own {
		sets++
	}
	if sets == 0 {
		return nil
	}

	dst := binary.AppendUvarint(m.encScratch[:0], uint64(sets))
	ents := 0
	if own {
		var n int
		dst, n, cs.own = m.main.appendSince(appendSetHeader(dst, m.self, 1), cs.own)
		ents += n
	}
	for _, rep := range fwd {
		run, from := rep.log.since(cs.replicas[rep])
		var n int
		dst, n = run.appendSince(appendSetHeader(dst, rep.Origin, rep.Hops+1), from)
		cs.replicas[rep] = run.end()
		ents += n
	}
	return m.finishDelta(dst, ents)
}

// Ingest merges a received delta into the replica store. The task runtime
// calls this exactly once per received buffer, as the buffer is accepted
// (or preloaded from a restored snapshot) and so before its records are
// processed.
func (m *Manager) Ingest(delta []byte) error {
	if len(delta) == 0 {
		return nil
	}
	return m.replicas.IngestDelta(delta)
}

// StartEpochMain appends the epoch marker to the task's log.
func (m *Manager) StartEpochMain(e types.EpochID) { m.main.StartEpoch(e) }

// StartEpochMainAt appends the epoch marker and returns its absolute
// index, recorded in checkpoints as the standby's log seed position.
func (m *Manager) StartEpochMainAt(e types.EpochID) uint64 { return m.main.StartEpoch(e) }

// StartEpochChannel does nothing. A buffer's BUFFERSIZE determinant is
// in the task's one log, whose epoch marker StartEpochMain appends; the
// method stays for the benchmark's layer replay, which calls it.
func (m *Manager) StartEpochChannel(types.ChannelID, types.EpochID) {}

// Truncate drops all determinants of epochs <= upTo from the task's own
// log and its replicas, after checkpoint upTo completes.
func (m *Manager) Truncate(upTo types.EpochID) {
	m.mu.Lock()
	m.main.Truncate(upTo)
	m.mu.Unlock()
	m.replicas.Truncate(upTo)
}

// AppendOrder logs that the main thread consumed a buffer from the given
// gate channel index.
func (m *Manager) AppendOrder(channel int32) {
	m.main.Append(Determinant{Kind: KindOrder, Channel: channel})
	m.appended.Inc()
}

// AppendTimer logs an asynchronous processing-time timer firing.
func (m *Manager) AppendTimer(handler int32, key uint64, when int64, offset uint64) {
	m.main.Append(Determinant{Kind: KindTimer, Handler: handler, Key: key, When: when, Offset: offset})
	m.appended.Inc()
}

// AppendTimestamp logs a wall-clock reading.
func (m *Manager) AppendTimestamp(ms int64) {
	m.main.Append(Determinant{Kind: KindTimestamp, Value: ms})
	m.appended.Inc()
}

// AppendRNG logs a fresh random seed.
func (m *Manager) AppendRNG(seed int64) {
	m.main.Append(Determinant{Kind: KindRNG, Value: seed})
	m.appended.Inc()
}

// AppendService logs a causal-service response payload.
func (m *Manager) AppendService(id uint16, payload []byte) {
	m.main.Append(Determinant{Kind: KindService, ServiceID: id, Payload: payload})
	m.appended.Inc()
}

// AppendRPC logs a state-affecting RPC (checkpoint trigger) and the input
// offset at which it was handled.
func (m *Manager) AppendRPC(checkpoint types.EpochID, offset uint64) {
	m.main.Append(Determinant{Kind: KindRPC, Epoch: checkpoint, Offset: offset})
	m.appended.Inc()
}

// AppendBufferSize logs the size of a buffer dispatched on one output
// channel, at the point the main thread dispatches it.
func (m *Manager) AppendBufferSize(id types.ChannelID, size int) {
	m.main.Append(Determinant{Kind: KindBufferSize, Output: id, Value: int64(size)})
	m.appended.Inc()
}
