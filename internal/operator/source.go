package operator

import (
	"sync"

	"clonos/internal/kafkasim"
	"clonos/internal/types"
)

// wmState tracks watermark generation of one source subtask.
type wmState struct {
	MaxTs  int64
	Count  int64
	LastWm int64
}

// KafkaSource reads the partitions of a simulated Kafka topic assigned to
// this subtask (partition % parallelism == subtask). Offsets live in
// operator state, so both checkpoint restore and causally guided replay
// re-read the identical record sequence. Watermarks are emitted every
// WatermarkEvery records as maxEventTime - Lateness — a deterministic
// function of the consumed records.
type KafkaSource struct {
	SourceName string
	Topic      *kafkasim.Topic
	// KeyOf extracts the partition key of a record's value; nil keeps
	// the log record's key.
	KeyOf func(v any) uint64
	// WatermarkEvery is the record period of watermark emission
	// (default 100).
	WatermarkEvery int64
	// Lateness is subtracted from the max event time (default 0).
	Lateness int64
	// BatchMax bounds records returned per Poll (default 64).
	BatchMax int
}

// Name implements Source.
func (s *KafkaSource) Name() string { return s.SourceName }

// Open implements Source.
func (s *KafkaSource) Open(Context) error { return nil }

// Close implements Source.
func (s *KafkaSource) Close(Context) error { return nil }

// partitions returns the partition indices this subtask owns.
func (s *KafkaSource) partitions(ctx Context) []int {
	var out []int
	n := ctx.NumSubtasks()
	for i := range s.Topic.Partitions {
		if int32(i%n) == ctx.TaskID().Subtask {
			out = append(out, i)
		}
	}
	return out
}

// Poll implements Source. The merge across the subtask's partitions is a
// strict round-robin driven only by the offsets in state — NOT by data
// availability — so the emitted sequence is a pure function of operator
// state and replays identically after recovery (the Source determinism
// contract). A partition that has no data yet stalls the round-robin
// until data arrives or the partition closes; closed-and-drained
// partitions are skipped.
func (s *KafkaSource) Poll(ctx Context) ([]types.Element, bool, error) {
	offsets := ctx.NamedState("offsets")
	wms := ctx.NamedState("wm")
	batchMax := s.BatchMax
	if batchMax <= 0 {
		batchMax = 64
	}
	wmEvery := s.WatermarkEvery
	if wmEvery <= 0 {
		wmEvery = 100
	}
	parts := s.partitions(ctx)
	if len(parts) == 0 {
		return nil, true, nil
	}
	rrState := ctx.NamedState("rr")
	rr, _ := rrState.Get(0).(int64)

	var batch []types.Element
	for len(batch) < batchMax {
		// Find the next round-robin partition that is not drained.
		advanced := false
		for skip := 0; skip < len(parts); skip++ {
			p := parts[int(rr)%len(parts)]
			part := s.Topic.Partitions[p]
			off, _ := offsets.Get(uint64(p)).(int64)
			rec, ok := part.Get(off)
			if !ok {
				if part.Closed() && off >= part.Len() {
					// Permanently drained: rotate past it.
					rr++
					continue
				}
				// Data not yet available: the deterministic order must
				// wait for this partition. Return what we have.
				rrState.Put(0, rr)
				return batch, false, nil
			}
			offsets.Put(uint64(p), off+1)
			rr++
			advanced = true
			key := rec.Key
			if s.KeyOf != nil {
				key = s.KeyOf(rec.Value)
			}
			batch = append(batch, types.Record(key, rec.Ts, rec.Value))

			w, _ := wms.Get(0).(wmState)
			if rec.Ts > w.MaxTs {
				w.MaxTs = rec.Ts
			}
			w.Count++
			if w.Count%wmEvery == 0 {
				wm := w.MaxTs - s.Lateness
				if wm > w.LastWm {
					w.LastWm = wm
					batch = append(batch, types.Watermark(wm))
				}
			}
			wms.Put(0, w)
			break
		}
		if !advanced {
			// Every partition is closed and drained.
			rrState.Put(0, rr)
			return batch, true, nil
		}
	}
	rrState.Put(0, rr)
	return batch, false, nil
}

// KafkaSink writes records to a simulated sink topic, numbering them with
// a per-subtask sequence held in state so the topic can deduplicate
// replayed output (idempotent sink, §5.5).
//
// With ExactlyOnceOutput set, it additionally piggybacks the task's
// causal-log delta on every record (§5.5): the topic stores the
// determinants and returns them during the sink task's recovery, so even
// a *sink* — which has no downstream tasks to replicate to — recovers
// causally guided, and its output is exactly-once without a transactional
// two-phase commit.
type KafkaSink struct {
	Base
	Topic *kafkasim.SinkTopic
	// EmitOf optionally extracts the original ingestion wall-clock time
	// from the value for end-to-end latency; nil uses the event time.
	EmitOf func(v any) int64
	// ExactlyOnceOutput enables the §5.5 determinant piggybacking.
	ExactlyOnceOutput bool

	// producers holds each subtask's producer name (its TaskID string),
	// built once by the first record of any subtask: the operator is
	// shared by the vertex's subtasks, and a name per record was a
	// measurable share of a saturated sink's CPU.
	producersOnce sync.Once
	//clonos:ephemeral derived from the vertex ID and parallelism, rebuilt identically by any process
	producers []string
	//clonos:ephemeral the vertex producers was built for
	producersOf types.VertexID
}

// NewKafkaSink builds the sink operator.
func NewKafkaSink(name string, topic *kafkasim.SinkTopic) *KafkaSink {
	return &KafkaSink{Base: Base{name}, Topic: topic}
}

// ProcessRecord implements Operator.
func (s *KafkaSink) ProcessRecord(ctx Context, _ int, e types.Element) error {
	st := ctx.State()
	seq, _ := st.Get(0).(uint64)
	seq++
	st.Put(0, seq)
	emit := e.Timestamp
	if s.EmitOf != nil {
		emit = s.EmitOf(e.Value)
	}
	rec := kafkasim.SinkRecord{
		Key:      e.Key,
		EventTs:  e.Timestamp,
		EmitMs:   emit,
		Value:    e.Value,
		Producer: s.producer(ctx),
		Seq:      seq,
		Epoch:    ctx.Epoch(),
	}
	if s.ExactlyOnceOutput {
		rec.Delta = ctx.CausalDelta()
	}
	s.Topic.Append(rec)
	return nil
}

// producer returns the calling subtask's producer name.
func (s *KafkaSink) producer(ctx Context) string {
	id := ctx.TaskID()
	s.producersOnce.Do(func() {
		s.producersOf, s.producers = id.Vertex, make([]string, ctx.NumSubtasks())
		for i := range s.producers {
			s.producers[i] = types.TaskID{Vertex: id.Vertex, Subtask: int32(i)}.String()
		}
	})
	if id.Vertex == s.producersOf && int(id.Subtask) < len(s.producers) {
		return s.producers[id.Subtask]
	}
	return id.String()
}

// RecoverDeterminants implements ExternalRecoverable.
func (s *KafkaSink) RecoverDeterminants(producer string) [][]byte {
	if !s.ExactlyOnceOutput {
		return nil
	}
	chunks := s.Topic.DeltasFor(producer)
	out := make([][]byte, 0, len(chunks))
	for _, c := range chunks {
		out = append(out, c.Delta)
	}
	return out
}

// OnCheckpointComplete implements CheckpointAware: determinants of
// completed epochs are truncated at the output system (§5.5).
func (s *KafkaSink) OnCheckpointComplete(cp uint64) {
	if s.ExactlyOnceOutput {
		s.Topic.TruncateDeltas(cp)
	}
}
