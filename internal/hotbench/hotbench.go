// Package hotbench drives the zero-copy hot path — serialize → dispatch
// → transmit → deserialize → decode — end to end, outside any job
// topology, so its cost can be benchmarked and budgeted precisely.
//
// The same Loop backs three consumers: the micro-benchmarks in
// internal/netstack, the allocation-budget tests that fail CI when the
// hot path regresses, and cmd/clonos-hotpath, which emits the
// BENCH_hotpath.json trajectory baseline.
package hotbench

import (
	"fmt"
	"testing"
	"time"

	"clonos/internal/buffer"
	"clonos/internal/codec"
	"clonos/internal/netstack"
	"clonos/internal/nexmark"
	"clonos/internal/types"
)

// Loop wires a ChannelWriter straight into an Endpoint and Deserializer:
// each dispatched buffer is bound into a pooled message (aliasing the
// buffer, as outChannel.dispatch does), pushed, popped, and decoded to
// exhaustion. It is single-threaded; the sequencing mirrors the task
// main-thread hot path without the job-layer scaffolding.
type Loop struct {
	pool  *buffer.Pool
	ep    *netstack.Endpoint
	deser *netstack.Deserializer
	w     *netstack.ChannelWriter

	seq       uint64
	elemsOut  uint64
	elemsIn   uint64
	wireBytes uint64
}

// NewLoop builds a loop over poolBufs buffers of bufSize bytes encoding
// with c.
func NewLoop(bufSize, poolBufs int, c codec.Codec) *Loop {
	l := &Loop{}
	id := types.ChannelID{Edge: 1, From: 0, To: 0}
	l.pool = buffer.NewPool(poolBufs, bufSize)
	l.ep = netstack.NewEndpoint(id, 2*poolBufs, nil, true)
	l.deser = netstack.NewDeserializer(c)
	l.w = netstack.NewChannelWriter(l.pool, c, func(b *buffer.Buffer) error {
		l.seq++
		l.wireBytes += uint64(b.Len())
		m := netstack.NewMessage()
		m.Channel = id
		m.Seq = l.seq
		m.Bind(b)
		err := l.ep.Push(m)
		b.ReleaseTo(l.pool)
		if err != nil {
			m.Release()
			return err
		}
		return l.drain()
	})
	return l
}

// Write serializes one element into the loop.
func (l *Loop) Write(e types.Element) error {
	l.elemsOut++
	return l.w.WriteElement(e)
}

// Flush pushes out the partial buffer and consumes everything in flight.
func (l *Loop) Flush() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.drain()
}

// drain moves queued messages through the deserializer until empty.
func (l *Loop) drain() error {
	for {
		m := l.ep.Pop()
		if m == nil {
			return nil
		}
		l.deser.Push(m)
		for {
			_, ok, err := l.deser.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			l.elemsIn++
		}
	}
}

// Stats is a point-in-time snapshot of the loop's copy/throughput
// counters.
type Stats struct {
	ElemsOut  uint64 // elements written
	ElemsIn   uint64 // elements decoded on the receive side
	WireBytes uint64 // payload bytes dispatched
	// ScratchBytes counts sender-side bytes that took the copying
	// fallback (element straddled a buffer boundary or recovery cuts
	// pending); zero means every element encoded directly into its
	// network buffer.
	ScratchBytes uint64
	// CopiedBytes counts receiver-side bytes copied reassembling
	// elements that straddled message boundaries; zero means every
	// element decoded in place from the retained (aliased) payload.
	CopiedBytes uint64
}

// Stats returns the loop's counters so far.
func (l *Loop) Stats() Stats {
	return Stats{
		ElemsOut:     l.elemsOut,
		ElemsIn:      l.elemsIn,
		WireBytes:    l.wireBytes,
		ScratchBytes: l.w.ScratchBytes(),
		CopiedBytes:  l.deser.CopiedBytes(),
	}
}

// Verify checks the loop's conservation invariant: everything written
// was decoded (call after Flush).
func (l *Loop) Verify() error {
	if l.elemsIn != l.elemsOut {
		return fmt.Errorf("hotbench: wrote %d elements, decoded %d", l.elemsOut, l.elemsIn)
	}
	return nil
}

// Scenario is one benchmarked hot-path configuration.
type Scenario struct {
	Name     string
	BufSize  int
	PoolBufs int
	Codec    codec.Codec
	// Element returns the i-th element to write.
	Element func(i int) types.Element
}

// Scenarios returns the standard set tracked by BENCH_hotpath.json.
func Scenarios() []Scenario {
	// alignedPayload sizes a BytesCodec record so each wire element is
	// exactly 512 bytes (4 length + 1 kind + 1 key + 1 ts + payload):
	// elements tile 32 KiB buffers exactly, so a correct zero-copy path
	// moves no bytes through scratch on either side.
	alignedPayload := make([]byte, 512-4-1-1-1)
	// Pre-box the element so the benchmark measures the pipeline, not
	// the cost of boxing the []byte into types.Element.Value per call.
	alignedElem := types.Record(1, 0, alignedPayload)
	structElems := structElements()
	return []Scenario{
		{
			Name: "int64", BufSize: buffer.DefaultSize, PoolBufs: 8, Codec: codec.Int64Codec{},
			Element: func(i int) types.Element {
				return types.Record(uint64(i)&0xffff, int64(i)&0xffff, int64(i))
			},
		},
		{
			Name: "bytes512-aligned", BufSize: buffer.DefaultSize, PoolBufs: 8, Codec: codec.BytesCodec{},
			Element: func(i int) types.Element { return alignedElem },
		},
		{
			// A realistic struct edge: NEXMark bid events through the auto
			// codec (registry dispatch + the hand-written EventCodec), the
			// encoding every nil-codec edge gets.
			Name: "typed-struct", BufSize: buffer.DefaultSize, PoolBufs: 8, Codec: codec.Auto{},
			Element: func(i int) types.Element { return structElems[i&255] },
		},
	}
}

// structElements pre-boxes 256 distinct bid events so struct scenarios
// measure the pipeline, not per-call boxing, while still varying the
// encoded bytes call to call.
func structElements() []types.Element {
	elems := make([]types.Element, 256)
	for i := range elems {
		elems[i] = types.Record(uint64(i), int64(i), nexmark.Event{
			Kind: nexmark.KindBid,
			Bid: &nexmark.Bid{
				Auction:  uint64(1000 + i%101),
				Bidder:   uint64(i),
				Price:    int64(100 + 7*i),
				DateTime: int64(1_600_000_000_000 + i),
			},
		})
	}
	return elems
}

// Result is the machine-readable outcome of one scenario, the unit
// stored in BENCH_hotpath.json.
type Result struct {
	Scenario    string  `json:"scenario"`
	NsPerElem   float64 `json:"ns_per_elem"`
	ElemsPerSec float64 `json:"elems_per_sec"`
	MBPerSec    float64 `json:"mb_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_elem"`
	BytesPerOp  float64 `json:"alloc_bytes_per_elem"`
	// Copy counters over the whole run: the residual copying cost of the
	// zero-copy pipeline, as fractions of the bytes that crossed it.
	WireBytes       uint64  `json:"wire_bytes"`
	ScratchBytes    uint64  `json:"scratch_bytes"`
	CopiedBytes     uint64  `json:"copied_bytes"`
	ScratchFraction float64 `json:"scratch_fraction"`
	CopiedFraction  float64 `json:"copied_fraction"`
}

// Bench runs one scenario under the testing benchmark driver and
// reports per-element figures. It is used both by `go test -bench` (via
// the b parameter) and by cmd/clonos-hotpath (via testing.Benchmark).
func Bench(b *testing.B, sc Scenario) Stats {
	loop := NewLoop(sc.BufSize, sc.PoolBufs, sc.Codec)
	// Warm the element and message pools so steady state is measured.
	for i := 0; i < 256; i++ {
		if err := loop.Write(sc.Element(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := loop.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := loop.Write(sc.Element(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := loop.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if err := loop.Verify(); err != nil {
		b.Fatal(err)
	}
	st := loop.Stats()
	if st.ElemsOut > 0 {
		b.SetBytes(int64(st.WireBytes / st.ElemsOut))
	}
	b.ReportMetric(float64(st.ScratchBytes)/float64(b.N), "scratchB/op")
	b.ReportMetric(float64(st.CopiedBytes)/float64(b.N), "copiedB/op")
	return st
}

// Measure runs one scenario via testing.Benchmark and converts it to a
// Result.
func Measure(sc Scenario) Result {
	var st Stats
	r := testing.Benchmark(func(b *testing.B) {
		st = Bench(b, sc)
	})
	perElem := float64(st.WireBytes) / float64(st.ElemsOut)
	ns := float64(r.NsPerOp())
	res := Result{
		Scenario:     sc.Name,
		NsPerElem:    ns,
		AllocsPerOp:  float64(r.AllocsPerOp()),
		BytesPerOp:   float64(r.AllocedBytesPerOp()),
		WireBytes:    st.WireBytes,
		ScratchBytes: st.ScratchBytes,
		CopiedBytes:  st.CopiedBytes,
	}
	if ns > 0 {
		res.ElemsPerSec = float64(time.Second) / ns
		res.MBPerSec = res.ElemsPerSec * perElem / (1 << 20)
	}
	if st.WireBytes > 0 {
		res.ScratchFraction = float64(st.ScratchBytes) / float64(st.WireBytes)
		res.CopiedFraction = float64(st.CopiedBytes) / float64(st.WireBytes)
	}
	return res
}
