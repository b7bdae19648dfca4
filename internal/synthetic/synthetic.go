// Package synthetic builds the configurable workload of §7.4–§7.5: a
// linear pipeline of a given depth and parallelism whose stages hold
// per-key state of a configurable size, used for the multiple/concurrent
// failure experiments, the memory/spill study, and the DSD ablation.
package synthetic

import (
	"encoding/binary"
	"time"

	"fmt"

	"clonos/internal/codec"
	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/operator"
	"clonos/internal/types"
)

// Config shapes the synthetic job.
type Config struct {
	// Parallelism of every stage (the paper used 5).
	Parallelism int
	// Depth is the number of stateful middle stages (graph depth is
	// Depth+2 counting source and sink; the paper used 5).
	Depth int
	// Keys is the key cardinality.
	Keys uint64
	// StateBytesPerKey is each stage's per-key state payload (the
	// paper's 100 MB per operator, scaled down).
	StateBytesPerKey int
	// CPUWorkIters adds per-record computation.
	CPUWorkIters int
}

// DefaultConfig returns a scaled-down version of the paper's setup.
func DefaultConfig() Config {
	return Config{Parallelism: 2, Depth: 3, Keys: 64, StateBytesPerKey: 1024, CPUWorkIters: 0}
}

// stageState is one key's state in a synthetic stage.
type stageState struct {
	Count   int64
	Payload []byte
}

func init() { codec.RegisterType(stageState{}, stageStateCodec{}) }

// stageStateCodec is the snapshot codec for stageState: the payload
// dominates the synthetic state footprint, so it is copied, not walked.
type stageStateCodec struct{}

// EncodeAppend implements codec.Codec.
func (stageStateCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	s, ok := v.(stageState)
	if !ok {
		return dst, fmt.Errorf("synthetic: stageStateCodec got %T", v)
	}
	dst = binary.AppendVarint(dst, s.Count)
	dst = binary.AppendUvarint(dst, uint64(len(s.Payload)))
	return append(dst, s.Payload...), nil
}

// EncodedSize implements codec.Sizer.
func (stageStateCodec) EncodedSize(v any) int {
	s, ok := v.(stageState)
	if !ok {
		return -1
	}
	return codec.VarintLen(s.Count) + codec.UvarintLen(uint64(len(s.Payload))) + len(s.Payload)
}

// Decode implements codec.Codec.
func (stageStateCodec) Decode(b []byte) (any, error) {
	var s stageState
	count, n := binary.Varint(b)
	if n <= 0 {
		return nil, codec.ErrShortBuffer
	}
	s.Count = count
	plen, w := binary.Uvarint(b[n:])
	if w <= 0 || uint64(len(b)-n-w) < plen {
		return nil, codec.ErrShortBuffer
	}
	if n+w+int(plen) != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	if plen > 0 {
		s.Payload = make([]byte, plen)
		copy(s.Payload, b[n+w:])
	}
	return s, nil
}

// Build constructs the synthetic pipeline over an int64 record topic.
func Build(topic *kafkasim.Topic, sink *kafkasim.SinkTopic, cfg Config) *job.Graph {
	g := job.NewGraph()
	src := g.AddVertex("src", cfg.Parallelism, &operator.KafkaSource{
		SourceName:     "syn",
		Topic:          topic,
		WatermarkEvery: 64,
	})
	prev := src
	for d := 0; d < cfg.Depth; d++ {
		name := fmt.Sprintf("stage%d", d)
		stage := g.AddVertex(name, cfg.Parallelism, nil, workOperator(name, cfg))
		// Hash shuffle between every stage, as in the paper's synthetic
		// setup (no operator fusion: every stage pays network and
		// determinant-sharing costs). The partition function becomes the
		// downstream element key, so it must fold the record value back
		// into the configured key space — keying by the raw value would
		// give every record its own key and grow each stage's "per-key"
		// state by StateBytesPerKey on every record, without bound.
		keys := cfg.Keys
		if keys == 0 {
			keys = 1
		}
		g.Connect(prev, stage, job.PartitionHash, func(v any) uint64 { return uint64(v.(int64)) % keys }, codec.Int64Codec{})
		prev = stage
	}
	sinkV := g.AddVertex("sink", 1, nil, operator.NewKafkaSink("sink", sink))
	g.Connect(prev, sinkV, job.PartitionHash, nil, codec.Int64Codec{})
	return g
}

// workOperator updates per-key state and passes the record on.
func workOperator(name string, cfg Config) operator.Operator {
	return operator.Map(name, func(ctx operator.Context, e types.Element) (any, bool, error) {
		st := ctx.State()
		s, _ := st.Get(e.Key).(stageState)
		if s.Payload == nil && cfg.StateBytesPerKey > 0 {
			s.Payload = make([]byte, cfg.StateBytesPerKey)
		}
		s.Count++
		if len(s.Payload) > 0 {
			s.Payload[int(s.Count)%len(s.Payload)]++
		}
		st.Put(e.Key, s)
		v := e.Value.(int64)
		for i := 0; i < cfg.CPUWorkIters; i++ {
			v = v*6364136223846793005 + 1442695040888963407
		}
		if cfg.CPUWorkIters > 0 {
			// Keep the routing key stable regardless of the mixing.
			v = e.Value.(int64)
		}
		return v, true, nil
	})
}

// Drive produces limit int64 records (limit <= 0: no limit) at the given
// rate, keyed round-robin over cfg.Keys, timestamped with wall time.
func Drive(topic *kafkasim.Topic, cfg Config, rate int, limit int64) *kafkasim.Generator {
	return kafkasim.NewGenerator(topic, rate, func(i int64) (kafkasim.Record, bool) {
		if limit > 0 && i >= limit {
			return kafkasim.Record{}, false
		}
		return kafkasim.Record{Key: uint64(i) % cfg.Keys, Ts: nowMs(), Value: i}, true
	})
}

// FillDeterministic synchronously loads n records with event times spaced
// stepMs apart, for reproducible finite tests.
func FillDeterministic(topic *kafkasim.Topic, cfg Config, n int64, baseTs, stepMs int64) {
	for i := int64(0); i < n; i++ {
		topic.Append(kafkasim.Record{Key: uint64(i) % cfg.Keys, Ts: baseTs + i*stepMs, Value: i})
	}
	topic.Close()
}

// nowMs returns the wall clock in Unix milliseconds.
func nowMs() int64 { return time.Now().UnixMilli() }
