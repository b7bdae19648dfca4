// Package clonos is a Go reproduction of Clonos (Silvestre et al., SIGMOD
// 2021): a streaming dataflow engine with coordinated checkpoints whose
// fault tolerance layer combines in-flight record logs, causal logging of
// nondeterministic events, and passive standby tasks to deliver local
// recovery with exactly-once guarantees — even for operators that call
// external services, use processing-time windows, timers, or random
// numbers.
//
// A minimal job:
//
//	topic := clonos.NewTopic("events", 2)
//	sink := clonos.NewSinkTopic(true)
//	g := clonos.NewJobGraph()
//	g.FromTopic("src", 2, topic).
//		Map("double", func(ctx clonos.Context, e clonos.Element) (any, bool, error) {
//			return e.Value.(int64) * 2, true, nil
//		}).
//		ToSink("out", sink)
//	jb, _ := clonos.Start(g, clonos.DefaultConfig())
//	defer jb.Stop()
//
// Fault tolerance is configured through Config: Mode selects Clonos local
// recovery or the global-rollback baseline; Guarantee selects
// exactly-once, at-least-once, or at-most-once (§5.4 of the paper); DSD
// sets the determinant sharing depth; Standby enables hot standby tasks.
package clonos

import (
	"time"

	"clonos/internal/codec"
	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/metrics"
	"clonos/internal/operator"
	"clonos/internal/services"
	"clonos/internal/types"
)

// Re-exported core types. The engine lives in internal packages; these
// aliases are the public surface.
type (
	// Config is the runtime configuration (fault-tolerance mode,
	// guarantee level, checkpoint interval, buffer sizes, ...).
	Config = job.Config
	// Element is one stream element.
	Element = types.Element
	// Context is the runtime context handed to user functions.
	Context = operator.Context
	// Operator is the low-level operator interface for custom logic.
	Operator = operator.Operator
	// TaskID identifies one parallel task instance.
	TaskID = types.TaskID
	// Topic is a partitioned, replayable input log (simulated Kafka).
	Topic = kafkasim.Topic
	// SinkTopic is the measured output topic.
	SinkTopic = kafkasim.SinkTopic
	// SinkRecord is one delivered output record.
	SinkRecord = kafkasim.SinkRecord
	// ExternalWorld simulates external services reachable from UDFs.
	ExternalWorld = services.ExternalWorld
	// Event is a runtime lifecycle event (failures, recoveries, ...).
	Event = job.Event
	// WindowSpec configures window operators.
	WindowSpec = operator.WindowSpec
	// AggregateFn is an incremental window aggregate.
	AggregateFn = operator.AggregateFn
	// Codec serializes record payloads on one edge (Stream.EdgeCodec).
	Codec = codec.Codec
	// SizedCodec is a Codec that also reports its encoded size — what
	// RegisterCodec takes, so that snapshots are allocated once.
	SizedCodec = codec.SizedCodec
	// Int64Codec is the zig-zag varint codec for int64 payloads.
	Int64Codec = codec.Int64Codec
	// Float64Codec is the fixed 8-byte codec for float64 payloads.
	Float64Codec = codec.Float64Codec
	// StringCodec is the raw-bytes codec for string payloads.
	StringCodec = codec.StringCodec
	// BytesCodec passes []byte payloads through unchanged.
	BytesCodec = codec.BytesCodec
)

// Fault-tolerance modes.
const (
	// ModeClonos enables in-flight logging, causal logging and local
	// recovery.
	ModeClonos = job.ModeClonos
	// ModeGlobal is the vanilla-Flink baseline: global rollback.
	ModeGlobal = job.ModeGlobal
)

// Standby allocation strategies (§6.3).
const (
	AllocSameAsRunning = job.AllocSameAsRunning
	AllocAntiAffinity  = job.AllocAntiAffinity
	AllocCoLocated     = job.AllocCoLocated
)

// Guarantee levels (§5.4).
const (
	ExactlyOnce = job.ExactlyOnce
	AtLeastOnce = job.AtLeastOnce
	AtMostOnce  = job.AtMostOnce
)

// Window kinds.
const (
	TumblingEventTime      = operator.TumblingEventTime
	SlidingEventTime       = operator.SlidingEventTime
	SessionEventTime       = operator.SessionEventTime
	TumblingProcessingTime = operator.TumblingProcessingTime
)

// DefaultConfig returns a configuration scaled for in-process use.
func DefaultConfig() Config { return job.DefaultConfig() }

// NewTopic creates an input topic with n partitions.
func NewTopic(name string, n int) *Topic { return kafkasim.NewTopic(name, n) }

// NewSinkTopic creates an output topic; dedup enables the idempotent
// exactly-once sink.
func NewSinkTopic(dedup bool) *SinkTopic { return kafkasim.NewSinkTopic(dedup) }

// NewExternalWorld creates a simulated external service world.
func NewExternalWorld() *ExternalWorld { return services.NewExternalWorld() }

// TopicRecord builds one input record for Topic.Append.
func TopicRecord(key uint64, ts int64, v any) kafkasim.Record {
	return kafkasim.Record{Key: key, Ts: ts, Value: v}
}

// RegisterCodec binds a hand-written codec to sample's concrete type.
// Every type kept in operator state or crossing an edge without a pinned
// codec needs one — the scalars, []byte, []any, []int64 and the map
// shapes in internal/codec are built in — because the registry is the
// only way the engine turns a value into bytes: auto-selected edges,
// state snapshots and deltas, and audit fingerprints. A value of an
// unregistered type fails its task with an error naming the type.
// Registration is process-wide and must happen before any job starts
// (init functions are the natural place).
func RegisterCodec(sample any, c SizedCodec) { codec.RegisterType(sample, c) }

// Count returns the record-count window aggregate.
func Count() AggregateFn { return operator.Count() }

// SumFloat returns a summing window aggregate over extract(value).
func SumFloat(extract func(v any) float64) AggregateFn { return operator.SumFloat(extract) }

// AvgFloat returns an averaging window aggregate over extract(value).
func AvgFloat(extract func(v any) float64) AggregateFn { return operator.AvgFloat(extract) }

// MaxBy returns an arg-max window aggregate by score.
func MaxBy(score func(v any) float64) AggregateFn { return operator.MaxBy(score) }

// Job is a running dataflow.
type Job struct {
	rt *job.Runtime
}

// Start validates the graph and launches the job.
func Start(g *JobGraph, cfg Config) (*Job, error) {
	rt, err := job.NewRuntime(g.g, cfg)
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	return &Job{rt: rt}, nil
}

// Stop tears the job down.
func (j *Job) Stop() { j.rt.Stop() }

// WaitFinished blocks until every task reaches end-of-stream or the
// timeout elapses; it reports whether the job finished.
func (j *Job) WaitFinished(timeout time.Duration) bool { return j.rt.WaitFinished(timeout) }

// InjectFailure crashes one task. The crash itself wakes the runtime's
// liveness loop, which declares the failure and starts recovery at once
// (on its own goroutine: the call returns without waiting for either).
func (j *Job) InjectFailure(id TaskID) error { return j.rt.InjectFailure(id) }

// InjectNodeFailure crashes every task (and destroys any standby) on a
// simulated cluster node, all at one instant — they are declared failed
// together; requires Config.Nodes > 0.
func (j *Job) InjectNodeFailure(node int) error { return j.rt.InjectNodeFailure(node) }

// NodeOf reports the simulated node hosting a task (-1 when node
// simulation is disabled).
func (j *Job) NodeOf(id TaskID) int { return j.rt.NodeOf(id) }

// LatestCompletedCheckpoint reports the newest completed checkpoint.
func (j *Job) LatestCompletedCheckpoint() uint64 {
	return uint64(j.rt.LatestCompletedCheckpoint())
}

// Events returns recorded runtime lifecycle events.
func (j *Job) Events() []Event { return j.rt.Events() }

// Errors returns task errors reported so far.
func (j *Job) Errors() []error { return j.rt.Errors() }

// Runtime exposes the underlying runtime for advanced use (experiments).
func (j *Job) Runtime() *job.Runtime { return j.rt }

// NewSampler builds a 3 Hz throughput sampler over a sink topic.
func NewSampler(sink *SinkTopic) *metrics.Sampler {
	return metrics.NewSampler(sink, 0)
}
