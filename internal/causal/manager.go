package causal

import (
	"encoding/binary"
	"sync"

	"clonos/internal/obs"
	"clonos/internal/types"
)

// ManagerMetrics instruments a task's causal subsystem. All fields are
// optional (nil-safe): Appended counts determinants appended to the
// task's own logs, Extractions counts successful replica extractions
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

// Manager is one task's causal-logging subsystem: its own main-thread log,
// one log per output channel, the replicated store of upstream logs, and
// the per-downstream-channel sharing cursors that make each buffer's
// piggybacked delta carry exactly the entries the receiver has not seen.
type Manager struct {
	self types.TaskID
	dsd  int

	mu       sync.Mutex
	main     *Log
	channels map[types.ChannelID]*Log
	// own lists the task's logs as its set of a delta does: the main
	// log, then the channel logs by key — fixed as each log is created.
	own      []ownLog
	replicas *Store
	// cursors[downstreamChannel] tracks what has been shared on that
	// channel: the next absolute index of each own and replica log.
	cursors map[types.ChannelID]*cursorSet
	// externalCursors track sharing with external output systems (§5.5
	// exactly-once output): sink tasks piggyback their main-log deltas
	// on records written to e.g. Kafka.
	externalCursors map[string]uint64
	// encScratch is the reused delta-encode buffer and unsent the reused
	// list of what the delta under construction will carry (both guarded
	// by mu). Deltas are encoded into the scratch first, then copied out
	// right-sized: the returned slice is retained by in-flight log
	// entries and aliased by wire messages, so it must be private, but
	// the growth churn of building it from nil is amortized away.
	encScratch []byte
	unsent     []unsentLog

	appended     *obs.Counter
	deltaEntries *obs.Counter
	deltaBytes   *obs.Counter
}

type ownLog struct {
	key LogKey
	log *Log
}

type cursorSet struct {
	own      map[*Log]uint64
	replicas map[*replicaLog]uint64
}

// unsentLog is one log holding entries a delta's receiver has not been
// sent: an own log, or a replica log (of rep) to forward from.
type unsentLog struct {
	key  LogKey
	own  *Log
	rep  *Replica
	rlog *replicaLog
}

// NewManager creates the causal subsystem for task self with the given
// determinant sharing depth. DSD 0 disables sharing entirely
// (at-least-once mode, §5.4).
func NewManager(self types.TaskID, dsd int) *Manager {
	m := &Manager{self: self, dsd: dsd, replicas: NewStore()}
	m.SeedForRecovery(0, nil) // a new task's logs start at index 0
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
// task's own logs (main + channel) and its replica store.
func (m *Manager) SizeEntries() int {
	m.mu.Lock()
	n := 0
	for _, l := range m.own {
		n += l.log.Len()
	}
	m.mu.Unlock()
	return n + m.replicas.SizeEntries()
}

// DSD returns the configured determinant sharing depth.
func (m *Manager) DSD() int { return m.dsd }

// Main returns the main-thread log.
func (m *Manager) Main() *Log { return m.main }

// Channel returns (creating on first use) the log of one output channel.
func (m *Manager) Channel(id types.ChannelID) *Log {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.channels[id]
	if !ok {
		l = m.addChannelLocked(id, 0)
	}
	return l
}

func (m *Manager) addChannelLocked(id types.ChannelID, base uint64) *Log {
	l := NewLogAt(base)
	m.channels[id] = l
	key := ChannelLogKey(id)
	m.own = insertSorted(m.own, key, ownLog{key: key, log: l}, func(o ownLog, k LogKey) int {
		return compareKeys(o.key, k)
	})
	return l
}

// Replicas returns the replicated upstream-log store.
func (m *Manager) Replicas() *Store { return m.replicas }

// SeedForRecovery re-bases the task's own logs at the absolute indices the
// predecessor's logs had at the epoch start, so determinants re-appended
// during causally guided replay land on identical positions and remain
// idempotent at downstream replicas.
func (m *Manager) SeedForRecovery(mainStart uint64, channelStarts map[types.ChannelID]uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.main = NewLogAt(mainStart)
	m.own = []ownLog{{key: MainLogKey, log: m.main}}
	m.channels = make(map[types.ChannelID]*Log)
	for id, start := range channelStarts {
		m.addChannelLocked(id, start)
	}
	// Conservatively forget sharing cursors: all retained entries are
	// re-shared; replicas deduplicate by absolute index.
	m.cursors = make(map[types.ChannelID]*cursorSet)
	m.externalCursors = make(map[string]uint64)
}

// DeltaForExternal assembles the delta of the task's own main log for an
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
	dst := append(m.encScratch[:0], 1) // one set
	dst = appendLogKey(appendSetHeader(dst, m.self, 1, 1), MainLogKey)
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
		cs = &cursorSet{own: make(map[*Log]uint64), replicas: make(map[*replicaLog]uint64)}
		m.cursors[down] = cs
	}
	// The wire format counts sets and logs ahead of their contents, so
	// first list what has something unsent. Own logs: main + every
	// output-channel log (the paper replicates all of them to every
	// downstream, §4.3).
	todo := m.unsent[:0]
	for _, o := range m.own {
		if o.log.unsent(cs.own[o.log]) > 0 {
			todo = append(todo, unsentLog{key: o.key, own: o.log})
		}
	}
	sets := min(len(todo), 1)
	if m.dsd > 1 {
		// Replicas are only ever forwarded at DSD > 1 (Hops >= 1). The
		// store stays locked until their entries are encoded.
		m.replicas.mu.Lock()
		defer m.replicas.mu.Unlock()
		for _, rep := range m.replicas.order {
			if rep.Hops >= m.dsd {
				continue
			}
			before := len(todo)
			for _, rl := range rep.order {
				if run, _ := rl.since(cs.replicas[rl]); run != nil {
					todo = append(todo, unsentLog{key: rl.key, rep: rep, rlog: rl})
				}
			}
			if len(todo) > before {
				sets++
			}
		}
	}
	m.unsent = todo
	if sets == 0 {
		return nil
	}

	dst := binary.AppendUvarint(m.encScratch[:0], uint64(sets))
	ents := 0
	for i, u := range todo {
		if i == 0 || u.rep != todo[i-1].rep {
			logs := 1
			for logs < len(todo)-i && todo[i+logs].rep == u.rep {
				logs++
			}
			if u.rep == nil {
				dst = appendSetHeader(dst, m.self, 1, logs)
			} else {
				dst = appendSetHeader(dst, u.rep.Origin, u.rep.Hops+1, logs)
			}
		}
		dst = appendLogKey(dst, u.key)
		var n int
		if u.own != nil {
			dst, n, cs.own[u.own] = u.own.appendSince(dst, cs.own[u.own])
		} else {
			run, from := u.rlog.since(cs.replicas[u.rlog])
			dst, n = run.appendSince(dst, from)
			cs.replicas[u.rlog] = run.end()
		}
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

// StartEpochMain appends the epoch marker to the main-thread log.
func (m *Manager) StartEpochMain(e types.EpochID) { m.main.StartEpoch(e) }

// StartEpochMainAt appends the epoch marker and returns its absolute
// index, recorded in checkpoints as the standby's log seed position.
func (m *Manager) StartEpochMainAt(e types.EpochID) uint64 { return m.main.StartEpoch(e) }

// StartEpochChannel appends the epoch marker to one channel log; called
// when the barrier is dispatched on that channel.
func (m *Manager) StartEpochChannel(id types.ChannelID, e types.EpochID) {
	m.Channel(id).StartEpoch(e)
}

// Truncate drops all determinants of epochs <= upTo from the task's own
// logs and its replicas, after checkpoint upTo completes.
func (m *Manager) Truncate(upTo types.EpochID) {
	m.mu.Lock()
	for _, o := range m.own {
		o.log.Truncate(upTo)
	}
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

// AppendBufferSize logs the size of a buffer dispatched on one channel,
// in that channel's own log.
func (m *Manager) AppendBufferSize(id types.ChannelID, size int) {
	m.Channel(id).Append(Determinant{Kind: KindBufferSize, Value: int64(size)})
	m.appended.Inc()
}
