// Package causal implements causal logging for the streaming engine
// (Clonos §3.3, §4.3): determinants describing every nondeterministic
// event, one causal log per task segmented by epoch, log deltas piggybacked
// on outgoing network buffers, a replicated store of upstream determinants
// at each downstream task, and the determinant-sharing-depth (DSD)
// forwarding rule.
package causal

import (
	"encoding/binary"
	"fmt"

	"clonos/internal/types"
)

// Kind discriminates determinant variants.
type Kind uint8

const (
	// KindEpoch marks an epoch boundary inside a log, making logs
	// self-describing for truncation and recovery extraction.
	KindEpoch Kind = iota
	// KindOrder records which input channel the main thread consumed a
	// buffer from (record-processing order, §4.2).
	KindOrder
	// KindTimer records an asynchronous processing-time timer firing:
	// handler, key, deadline, and the input offset at which it fired.
	KindTimer
	// KindTimestamp records a wall-clock reading returned by the
	// Timestamp service.
	KindTimestamp
	// KindRNG records the random seed drawn at an epoch start by the
	// RNG service.
	KindRNG
	// KindService records the serialized response of a (possibly
	// user-defined) causal service call, e.g. an external HTTP request.
	KindService
	// KindRPC records a state-affecting RPC received by the task — in
	// this engine the checkpoint-trigger RPC delivered to sources —
	// with the input offset at which it was handled.
	KindRPC
	// KindBufferSize records the output channel and size of a
	// dispatched buffer (nondeterministic: an early cut depends on when
	// the main thread ran out of input or its output grew too old).
	KindBufferSize
)

func (k Kind) String() string {
	switch k {
	case KindEpoch:
		return "EPOCH"
	case KindOrder:
		return "ORDER"
	case KindTimer:
		return "TIMER"
	case KindTimestamp:
		return "TS"
	case KindRNG:
		return "RNG"
	case KindService:
		return "SERVICE"
	case KindRPC:
		return "RPC"
	case KindBufferSize:
		return "BS"
	default:
		return fmt.Sprintf("DET(%d)", uint8(k))
	}
}

// Determinant is one logged nondeterministic event. Field use by kind:
//
//	EPOCH:      Epoch
//	ORDER:      Channel
//	TIMER:      Handler, Key, When, Offset
//	TS:         Value (ms)
//	RNG:        Value (seed)
//	SERVICE:    ServiceID, Payload
//	RPC:        Epoch (checkpoint id), Offset
//	BUFFERSIZE: Output, Value (bytes)
type Determinant struct {
	Kind      Kind
	ServiceID uint16
	Channel   int32
	Handler   int32
	Output    types.ChannelID
	Key       uint64
	When      int64
	Offset    uint64
	Value     int64
	Epoch     types.EpochID
	Payload   []byte
}

// Equal reports deep equality, used by tests and replay assertions.
func (d Determinant) Equal(o Determinant) bool {
	if d.Kind != o.Kind || d.Channel != o.Channel || d.Handler != o.Handler ||
		d.Output != o.Output || d.Key != o.Key || d.When != o.When || d.Offset != o.Offset ||
		d.Value != o.Value || d.Epoch != o.Epoch || d.ServiceID != o.ServiceID {
		return false
	}
	return string(d.Payload) == string(o.Payload)
}

func (d Determinant) String() string {
	switch d.Kind {
	case KindEpoch:
		return fmt.Sprintf("EPOCH %d", d.Epoch)
	case KindOrder:
		return fmt.Sprintf("ORDER ch=%d", d.Channel)
	case KindTimer:
		return fmt.Sprintf("TIMER h=%d key=%d when=%d off=%d", d.Handler, d.Key, d.When, d.Offset)
	case KindTimestamp:
		return fmt.Sprintf("TS %d", d.Value)
	case KindRNG:
		return fmt.Sprintf("RNG %d", d.Value)
	case KindService:
		return fmt.Sprintf("SERVICE id=%d %dB", d.ServiceID, len(d.Payload))
	case KindRPC:
		return fmt.Sprintf("RPC chk=%d off=%d", d.Epoch, d.Offset)
	case KindBufferSize:
		return fmt.Sprintf("BS %v %d", d.Output, d.Value)
	default:
		return d.Kind.String()
	}
}

// Append serializes d onto dst.
func (d Determinant) Append(dst []byte) []byte {
	dst = append(dst, byte(d.Kind))
	switch d.Kind {
	case KindEpoch:
		dst = binary.AppendUvarint(dst, uint64(d.Epoch))
	case KindOrder:
		dst = binary.AppendVarint(dst, int64(d.Channel))
	case KindTimer:
		dst = binary.AppendVarint(dst, int64(d.Handler))
		dst = binary.AppendUvarint(dst, d.Key)
		dst = binary.AppendVarint(dst, d.When)
		dst = binary.AppendUvarint(dst, d.Offset)
	case KindTimestamp, KindRNG:
		dst = binary.AppendVarint(dst, d.Value)
	case KindBufferSize:
		dst = binary.AppendVarint(dst, int64(d.Output.Edge))
		dst = binary.AppendVarint(dst, int64(d.Output.From))
		dst = binary.AppendVarint(dst, int64(d.Output.To))
		dst = binary.AppendVarint(dst, d.Value)
	case KindService:
		dst = binary.AppendUvarint(dst, uint64(d.ServiceID))
		dst = binary.AppendUvarint(dst, uint64(len(d.Payload)))
		dst = append(dst, d.Payload...)
	case KindRPC:
		dst = binary.AppendUvarint(dst, uint64(d.Epoch))
		dst = binary.AppendUvarint(dst, d.Offset)
	}
	return dst
}
