package clonos

import (
	"fmt"

	"clonos/internal/job"
	"clonos/internal/operator"
	"clonos/internal/types"
)

// JobGraph builds a dataflow topology through a fluent Stream API. Each
// transformation adds a vertex; consecutive same-parallelism stages are
// connected forward (fused-like cheap path) unless a KeyBy re-partitions.
type JobGraph struct {
	g   *job.Graph
	err error
}

// NewJobGraph creates an empty topology.
func NewJobGraph() *JobGraph { return &JobGraph{g: job.NewGraph()} }

// Err returns the first construction error, also reported by Start.
func (jg *JobGraph) Err() error { return jg.err }

// Graph exposes the underlying graph for advanced wiring (multi-input
// operators, custom partitioners, per-edge codecs).
func (jg *JobGraph) Graph() *job.Graph { return jg.g }

// Stream is one dataflow edge endpoint under construction.
type Stream struct {
	jg *JobGraph
	v  *job.Vertex
	// keyOf, when set by KeyBy, makes the next connection a hash
	// shuffle re-keyed by it.
	keyOf func(v any) uint64
	keyed bool
	// edgeCodec, when set by EdgeCodec/KeyByCodec, overrides the next
	// connection's payload codec. Nil edges select the registered codec
	// per value (RegisterCodec); a value of an unregistered type fails
	// its task with an error naming the type.
	edgeCodec Codec
}

// EdgeCodec pins the payload codec of the next connection, overriding
// per-value auto-selection — useful when the value type is known and the
// one-byte type tag of the auto frame should be avoided, or to force a
// specific wire format.
func (s *Stream) EdgeCodec(c Codec) *Stream {
	return &Stream{jg: s.jg, v: s.v, keyOf: s.keyOf, keyed: s.keyed, edgeCodec: c}
}

// KeyByCodec is KeyBy with a pinned payload codec for the next
// connection.
func (s *Stream) KeyByCodec(keyOf func(v any) uint64, c Codec) *Stream {
	return &Stream{jg: s.jg, v: s.v, keyOf: keyOf, keyed: true, edgeCodec: c}
}

// SourceOptions tune a topic source.
type SourceOptions struct {
	// WatermarkEvery emits a watermark every N records (default 100).
	WatermarkEvery int64
	// Lateness is subtracted from the max event time.
	Lateness int64
}

// FromTopic adds a source vertex reading a replayable topic.
func (jg *JobGraph) FromTopic(name string, parallelism int, topic *Topic, opts ...SourceOptions) *Stream {
	var o SourceOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	src := &operator.KafkaSource{
		SourceName:     name,
		Topic:          topic,
		WatermarkEvery: o.WatermarkEvery,
		Lateness:       o.Lateness,
	}
	v := jg.g.AddVertex(name, parallelism, src)
	return &Stream{jg: jg, v: v}
}

// connect wires the previous vertex to a new one.
func (s *Stream) connect(v *job.Vertex) *Stream {
	p := job.PartitionForward
	var keyOf func(any) uint64
	if s.keyed {
		p = job.PartitionHash
		keyOf = s.keyOf
	} else if s.v.Parallelism != v.Parallelism {
		p = job.PartitionRebalance
	}
	s.jg.g.Connect(s.v, v, p, keyOf, s.edgeCodec)
	return &Stream{jg: s.jg, v: v}
}

// KeyBy re-partitions the stream by the given key extractor; the next
// stage receives records hash-routed (and re-keyed) by it.
func (s *Stream) KeyBy(keyOf func(v any) uint64) *Stream {
	return &Stream{jg: s.jg, v: s.v, keyOf: keyOf, keyed: true, edgeCodec: s.edgeCodec}
}

// Parallelism overrides the next stage's parallelism (defaults to the
// previous stage's).
func (s *Stream) parallelismFor() int { return s.v.Parallelism }

// Map adds a one-to-(zero-or-one) transformation.
func (s *Stream) Map(name string, f func(ctx Context, e Element) (any, bool, error)) *Stream {
	return s.connect(s.jg.g.AddVertex(name, s.parallelismFor(), nil, operator.Map(name, f)))
}

// Filter keeps records matching pred.
func (s *Stream) Filter(name string, pred func(ctx Context, e Element) (bool, error)) *Stream {
	return s.connect(s.jg.g.AddVertex(name, s.parallelismFor(), nil, operator.Filter(name, pred)))
}

// FlatMap adds a one-to-many transformation.
func (s *Stream) FlatMap(name string, f func(ctx Context, e Element, emit func(key uint64, ts int64, v any)) error) *Stream {
	return s.connect(s.jg.g.AddVertex(name, s.parallelismFor(), nil, operator.FlatMap(name, f)))
}

// Reduce adds a keyed rolling reduce (emits the updated accumulator per
// record). Use after KeyBy for meaningful partitioning.
func (s *Stream) Reduce(name string, f func(ctx Context, acc any, e Element) (any, error)) *Stream {
	return s.connect(s.jg.g.AddVertex(name, s.parallelismFor(), nil, operator.KeyedReduce(name, f)))
}

// Window adds a keyed window aggregation.
func (s *Stream) Window(name string, spec WindowSpec, agg AggregateFn) *Stream {
	return s.connect(s.jg.g.AddVertex(name, s.parallelismFor(), nil, operator.Window(name, spec, agg, false)))
}

// Apply adds a custom operator.
func (s *Stream) Apply(op Operator) *Stream {
	return s.connect(s.jg.g.AddVertex(op.Name(), s.parallelismFor(), nil, op))
}

// JoinWith adds a full-history hash join between this stream (left) and
// other (right) on the record key.
func (s *Stream) JoinWith(name string, other *Stream, combine func(left, right any) any) *Stream {
	if s.jg != other.jg {
		s.jg.err = fmt.Errorf("clonos: joining streams from different graphs")
		return s
	}
	v := s.jg.g.AddVertex(name, s.parallelismFor(), nil, operator.HashJoin(name, combine))
	s.connectTo(v)
	other.connectTo(v)
	return &Stream{jg: s.jg, v: v}
}

// connectTo wires this stream endpoint into an existing vertex (one more
// input port).
func (s *Stream) connectTo(v *job.Vertex) {
	p := job.PartitionForward
	var keyOf func(any) uint64
	if s.keyed {
		p = job.PartitionHash
		keyOf = s.keyOf
	} else if s.v.Parallelism != v.Parallelism {
		p = job.PartitionRebalance
	}
	s.jg.g.Connect(s.v, v, p, keyOf, s.edgeCodec)
}

// ToSink terminates the stream into a measured sink topic (parallelism 1).
func (s *Stream) ToSink(name string, sink *SinkTopic) {
	s.toSink(name, sink, false)
}

// ToSinkExactlyOnce terminates the stream into a sink with the §5.5
// exactly-once-output extension: the sink task's determinants are
// piggybacked onto the records it publishes, the topic stores them, and a
// failed sink recovers causally guided through the topic itself — no
// transactional two-phase commit, no checkpoint-interval output latency.
func (s *Stream) ToSinkExactlyOnce(name string, sink *SinkTopic) {
	s.toSink(name, sink, true)
}

func (s *Stream) toSink(name string, sink *SinkTopic, eoo bool) {
	ks := operator.NewKafkaSink(name, sink)
	ks.ExactlyOnceOutput = eoo
	v := s.jg.g.AddVertex(name, 1, nil, ks)
	p := job.PartitionHash
	var keyOf func(any) uint64
	if s.keyed {
		keyOf = s.keyOf
	}
	s.jg.g.Connect(s.v, v, p, keyOf, s.edgeCodec)
}

// VertexID returns the stream's producing vertex ID, for failure
// injection in tests and experiments.
func (s *Stream) VertexID() types.VertexID { return s.v.ID }

// Task returns the TaskID of one subtask of this stream's vertex.
func (s *Stream) Task(subtask int32) TaskID {
	return TaskID{Vertex: s.v.ID, Subtask: subtask}
}
