// Package types defines the stream element model shared by every layer of
// the engine: data records, watermarks, checkpoint barriers, and the
// identifiers for vertices, tasks, channels, and epochs.
package types

import (
	"fmt"
	"strconv"
)

// VertexID identifies a logical operator (chain) in the dataflow graph.
type VertexID int32

// TaskID identifies one parallel instance of a vertex.
type TaskID struct {
	Vertex  VertexID
	Subtask int32 // 0-based parallel subtask index
}

func (t TaskID) String() string {
	return "v" + strconv.Itoa(int(t.Vertex)) + "[" + strconv.Itoa(int(t.Subtask)) + "]"
}

// EdgeID identifies a logical edge (shuffle) between two vertices.
type EdgeID int32

// ChannelID identifies one physical FIFO channel: a specific (producer
// subtask, consumer subtask) pair on a logical edge.
type ChannelID struct {
	Edge EdgeID
	From int32 // producer subtask index
	To   int32 // consumer subtask index
}

func (c ChannelID) String() string {
	return fmt.Sprintf("e%d:%d->%d", c.Edge, c.From, c.To)
}

// EpochID is the checkpoint epoch a record belongs to. Epoch n contains all
// records produced after barrier n-1 and up to (including) barrier n. Epoch 0
// precedes the first checkpoint.
type EpochID uint64

// CheckpointID numbers checkpoints; checkpoint n closes epoch n.
type CheckpointID = EpochID

// Kind discriminates the element variants that flow through channels.
type Kind uint8

const (
	// KindRecord is a data record.
	KindRecord Kind = iota
	// KindWatermark is an event-time low-watermark.
	KindWatermark
	// KindBarrier is a checkpoint barrier (Chandy-Lamport marker).
	KindBarrier
	// KindEndOfStream signals that the producer has no further output.
	KindEndOfStream
	// KindLatencyMarker is a source-stamped latency probe. It flows
	// through operators like a watermark (broadcast downstream, never
	// keyed) and is observed at sinks, where arrival time minus Timestamp
	// is the live end-to-end latency.
	KindLatencyMarker
)

func (k Kind) String() string {
	switch k {
	case KindRecord:
		return "record"
	case KindWatermark:
		return "watermark"
	case KindBarrier:
		return "barrier"
	case KindEndOfStream:
		return "end-of-stream"
	case KindLatencyMarker:
		return "latency-marker"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Element is the unit that flows along a stream: either a data record, a
// watermark, a checkpoint barrier, or an end-of-stream marker.
//
// For KindRecord, Key is the partitioning key (already extracted by the
// upstream key selector; 0 for non-keyed streams), Timestamp is the record's
// event time in milliseconds, and Value holds the payload. For KindWatermark,
// Timestamp carries the watermark. For KindBarrier, Checkpoint carries the
// checkpoint being taken.
type Element struct {
	Kind       Kind
	Key        uint64
	Timestamp  int64
	Checkpoint CheckpointID
	Value      any
}

// Record builds a data-record element.
func Record(key uint64, ts int64, value any) Element {
	return Element{Kind: KindRecord, Key: key, Timestamp: ts, Value: value}
}

// Watermark builds a watermark element.
func Watermark(ts int64) Element {
	return Element{Kind: KindWatermark, Timestamp: ts}
}

// Barrier builds a checkpoint-barrier element.
func Barrier(id CheckpointID) Element {
	return Element{Kind: KindBarrier, Checkpoint: id}
}

// EndOfStream builds an end-of-stream marker.
func EndOfStream() Element {
	return Element{Kind: KindEndOfStream}
}

// LatencyMarker builds a latency probe stamped with the source's wall
// clock (Unix milliseconds).
func LatencyMarker(ts int64) Element {
	return Element{Kind: KindLatencyMarker, Timestamp: ts}
}

// IsRecord reports whether the element is a data record.
func (e Element) IsRecord() bool { return e.Kind == KindRecord }

func (e Element) String() string {
	switch e.Kind {
	case KindRecord:
		return fmt.Sprintf("record(key=%d ts=%d %v)", e.Key, e.Timestamp, e.Value)
	case KindWatermark:
		return fmt.Sprintf("watermark(%d)", e.Timestamp)
	case KindBarrier:
		return fmt.Sprintf("barrier(%d)", e.Checkpoint)
	case KindLatencyMarker:
		return fmt.Sprintf("latency-marker(%d)", e.Timestamp)
	default:
		return e.Kind.String()
	}
}
