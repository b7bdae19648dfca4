package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"clonos/internal/buffer"
	"clonos/internal/causal"
	"clonos/internal/checkpoint"
	"clonos/internal/codec"
	"clonos/internal/hotbench"
	"clonos/internal/inflight"
	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/operator"
	"clonos/internal/services"
	"clonos/internal/statestore"
	"clonos/internal/types"
)

// recorder keeps the benchmark's own spans in memory. The layer replays
// are single-threaded, so it needs no lock.
type recorder struct {
	spans []span
}

// do runs f inside a span caused by the span parent (0: none). count is
// the number of items f handles, for per-item averages.
func (r *recorder) do(parent int64, name string, count int, f func()) {
	r.tree(parent, name, count, func(int64) { f() })
}

// tree is do for a span with children: f receives the span's ID to pass
// on as their parent. Spans of one tree share the root's name as their
// trace identifier.
func (r *recorder) tree(parent int64, name string, count int, f func(id int64)) {
	id := int64(len(r.spans) + 1)
	trace := name
	if parent != 0 {
		trace = r.spans[parent-1].Trace
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Count: int64(count)})
	start := time.Now()
	f(id)
	s := &r.spans[id-1]
	s.Start, s.End = start.UnixNano(), start.UnixNano()+int64(time.Since(start))
}

// per returns the mean self time of the named spans per item, in ns:
// time their own child spans cover is not theirs.
func (r *recorder) per(name string) float64 {
	self := selfTimes(r.spans)
	var ns, items int64
	for _, s := range r.spans {
		if s.Name == name {
			ns += self[s.ID]
			items += s.Count
		}
	}
	return ratio(float64(ns), float64(items))
}

// replayEpoch is how many buffers the replays put into one checkpoint
// epoch: two epochs stay well inside the 512-buffer log pool, so the
// in-flight replay measures the in-memory path, as the paced workloads do.
const replayEpoch = 128

// replay pushes a workload's first replayRecords inputs, single-threaded,
// through each layer's public functions, cut into buffers of perBuffer
// records, with a span per buffer or call batch under one root span per
// layer. Each method replays one layer and reports its metrics into m.
type replay struct {
	w         workload
	cfg       job.Config
	g         *job.Graph
	edge      *job.Edge // carries the inputs into the workload's first operator
	codec     codec.Codec
	elems     []types.Element
	perBuffer int
	rec       *recorder
	m         map[string]float64
	err       error // first error of any layer call

	deltas [][]byte           // causal -> inflight: the delta piggybacked on buffer k
	svc    *services.Services // causal -> services, operator
	image  []byte             // statestore -> checkpoint: the operator state's snapshot
}

func replayLayers(w workload, in *inputs, perBuffer int, rec *recorder, m map[string]float64) error {
	g, err := buildGraph(w, kafkasim.NewTopic(w.Name, parallelism), kafkasim.NewSinkTopic(true))
	if err != nil {
		return err
	}
	r := &replay{w: w, cfg: jobConfig(w, false), g: g, edge: g.Edges[0], perBuffer: max(perBuffer, 1), rec: rec, m: m}
	r.codec = r.edge.CodecOrDefault()
	r.elems = make([]types.Element, replayRecords)
	for i := range r.elems {
		in := in.record(int64(i), int64(i))
		key := in.Key
		if r.edge.KeyOf != nil {
			key = r.edge.KeyOf(in.Value)
		}
		r.elems[i] = types.Record(key, in.Ts, in.Value)
	}
	for _, layer := range []struct {
		name string
		run  func(root int64)
	}{
		{"codec", r.codecs}, {"netstack", r.netstack}, {"causal", r.causal}, {"services", r.services},
		{"inflight", r.inflight}, {"operator+statestore", r.operatorAndState}, {"checkpoint", r.checkpointStore}, {"kafkasim", r.sink},
	} {
		rec.tree(0, layer.name+".replay", len(r.elems), layer.run)
	}
	return r.err
}

// note keeps the first error a layer call returns.
func (r *replay) note(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// batches calls f on each buffer's worth of elements in turn.
func (r *replay) batches(f func(k int, batch []types.Element)) {
	for k, lo := 0, 0; lo < len(r.elems); k, lo = k+1, lo+r.perBuffer {
		f(k, r.elems[lo:min(lo+r.perBuffer, len(r.elems))])
	}
}

// codecs: EncodeElement / DecodeElement with the edge's codec.
func (r *replay) codecs(root int64) {
	var wire []byte
	var wireBytes int
	r.batches(func(_ int, batch []types.Element) {
		r.rec.do(root, "codec.encode", len(batch), func() {
			wire = wire[:0]
			for _, e := range batch {
				var err error
				wire, err = codec.EncodeElement(wire, e, r.codec)
				r.note(err)
			}
		})
		wireBytes += len(wire)
		r.rec.do(root, "codec.decode", len(batch), func() {
			for b := wire; len(b) >= 4; {
				n := int(binary.BigEndian.Uint32(b))
				_, err := codec.DecodeElement(b[4:4+n], r.codec)
				r.note(err)
				b = b[4+n:]
			}
		})
	})
	r.m["codec.encode_ns_per_record"] = r.rec.per("codec.encode")
	r.m["codec.decode_ns_per_record"] = r.rec.per("codec.decode")
	r.m["codec.wire_bytes_per_record"] = float64(wireBytes) / float64(len(r.elems))
}

// netstack + buffer: writer -> endpoint -> deserializer, one flush per
// buffer, as the flush timer cuts them in the paced workloads.
func (r *replay) netstack(root int64) {
	loop := hotbench.NewLoop(r.cfg.BufferSize, r.cfg.ChannelBuffers, r.codec)
	r.batches(func(_ int, batch []types.Element) {
		r.rec.do(root, "netstack.roundtrip", len(batch), func() {
			for _, e := range batch {
				r.note(loop.Write(e))
			}
			r.note(loop.Flush())
		})
	})
	r.note(loop.Verify())
	st := loop.Stats()
	r.m["netstack.roundtrip_ns_per_record"] = r.rec.per("netstack.roundtrip")
	r.m["netstack.scratch_fraction"] = ratio(float64(st.ScratchBytes), float64(st.WireBytes))
	r.m["netstack.copied_fraction"] = ratio(float64(st.CopiedBytes), float64(st.WireBytes))
}

func (r *replay) channel() types.ChannelID { return types.ChannelID{Edge: r.edge.ID} }

// causal: the sender logs its determinants and encodes the delta for
// each buffer; the receiver ingests it; both truncate two epochs behind.
func (r *replay) causal(root int64) {
	dsd := r.cfg.DSD
	if dsd <= 0 {
		dsd = r.g.Depth()
	}
	ch := r.channel()
	up := causal.NewManager(types.TaskID{Vertex: r.edge.From.ID}, dsd)
	down := causal.NewManager(types.TaskID{Vertex: r.edge.To.ID}, dsd)
	r.svc = services.New(services.Config{World: r.cfg.World}, up, nil, nil)
	r.batches(func(k int, batch []types.Element) {
		if e := types.EpochID(k / replayEpoch); k%replayEpoch == 0 {
			r.rec.do(root, "causal.epoch", 1, func() {
				up.StartEpochMain(e)
				up.StartEpochChannel(ch, e)
				if e >= 2 {
					up.Truncate(e - 2)
					down.Truncate(e - 2)
				}
			})
		}
		dets := 2 // per buffer: the input order and the buffer size
		if r.w.Query != "" {
			dets += len(batch) // and q13's one service response per record
		}
		r.rec.do(root, "causal.append", dets, func() {
			up.AppendOrder(0)
			for i := 2; i < dets; i++ {
				up.AppendService(services.ServiceHTTP, []byte("side/0#12345678"))
			}
			up.AppendBufferSize(ch, r.cfg.BufferSize)
		})
		var delta []byte
		r.rec.do(root, "causal.delta_encode", 1, func() { delta = up.DeltaFor(ch) })
		r.rec.do(root, "causal.ingest", 1, func() { r.note(down.Ingest(delta)) })
		r.deltas = append(r.deltas, delta)
	})
	r.m["causal.append_ns_per_determinant"] = r.rec.per("causal.append")
	r.m["causal.delta_encode_ns_per_buffer"] = r.rec.per("causal.delta_encode")
	r.m["causal.ingest_ns_per_buffer"] = r.rec.per("causal.ingest")
}

// services: q13's one external call per record, logged as a
// determinant. The other workloads never call a service.
func (r *replay) services(root int64) {
	if r.w.Query != "" {
		r.batches(func(_ int, batch []types.Element) {
			r.rec.do(root, "services.httpget", len(batch), func() {
				for i := range batch {
					_, err := r.svc.HTTPGet(fmt.Sprintf("side/%d", i%100))
					r.note(err)
				}
			})
		})
	}
	r.m["services.httpget_ns_per_call"] = r.rec.per("services.httpget")
}

// inflight: the dispatch-time exchange and append of every buffer,
// truncation two epochs behind, then a read of what is retained, as a
// replay request would.
func (r *replay) inflight(root int64) {
	outPool := buffer.NewPool(r.cfg.ChannelBuffers, r.cfg.BufferSize)
	logPool := buffer.NewPool(r.cfg.LogPoolBuffers, r.cfg.BufferSize)
	log, err := inflight.NewLog(r.channel(), logPool, r.cfg.InFlight)
	if err != nil {
		r.note(err)
		return
	}
	defer log.Close()
	var seq uint64
	r.batches(func(k int, batch []types.Element) {
		e := types.EpochID(k / replayEpoch)
		if k%replayEpoch == 0 {
			r.rec.do(root, "inflight.truncate", 1, func() {
				log.StartEpoch(e)
				if e >= 2 {
					log.Truncate(e - 2)
				}
			})
		}
		b := outPool.Get()
		for _, el := range batch {
			// A buffer that is nearly full is all this layer needs.
			if b.Data, err = codec.EncodeElement(b.Data, el, r.codec); err != nil || b.Remaining() < 512 {
				break
			}
		}
		r.note(err)
		seq++
		b.Seq, b.Epoch, b.Delta = seq, e, r.deltas[k]
		r.rec.do(root, "inflight.append", 1, func() {
			outPool.Forfeit()
			outPool.Donate(logPool.Take())
			r.note(log.Append(b))
		})
	})
	first, _ := log.FirstEpoch()
	from, _ := log.FirstSeqOfEpoch(first)
	r.rec.do(root, "inflight.read", int(seq-from+1), func() {
		for s := from; s <= seq; s++ {
			_, _, _, err := log.ReadEntry(s)
			r.note(err)
		}
	})
	r.m["inflight.append_ns_per_buffer"] = r.rec.per("inflight.append")
	r.m["inflight.truncate_us_per_epoch"] = r.rec.per("inflight.truncate") / 1e3
	r.m["inflight.read_ns_per_buffer"] = r.rec.per("inflight.read")
}

// operatorAndState: the workload's first operator against a stub
// context, then statestore on the state that operator built, which has
// the workload's key count and value size.
func (r *replay) operatorAndState(root int64) {
	op := r.edge.To.Operators[0]
	store := statestore.NewStore()
	ctx := &stubContext{state: store.Keyed("op"), svc: r.svc, id: types.TaskID{Vertex: r.edge.To.ID}}
	r.batches(func(_ int, batch []types.Element) {
		r.rec.do(root, "operator.process", len(batch), func() {
			for _, e := range batch {
				r.note(op.ProcessRecord(ctx, 0, e))
			}
		})
	})
	r.rec.do(root, "statestore.snapshot", 1, func() {
		var err error
		r.image, err = store.Snapshot()
		r.note(err)
	})
	r.rec.do(root, "statestore.restore", 1, func() { r.note(statestore.NewStore().Restore(r.image)) })
	// Last, because a put creates the key where the operator keeps none.
	r.batches(func(_ int, batch []types.Element) {
		r.rec.do(root, "statestore.get_put", len(batch), func() {
			for _, e := range batch {
				ctx.state.Put(e.Key, ctx.state.Get(e.Key))
			}
		})
	})
	r.m["operator.process_ns_per_record"] = r.rec.per("operator.process")
	r.m["statestore.get_put_ns_per_record"] = r.rec.per("statestore.get_put")
	r.m["statestore.snapshot_ms"] = r.rec.per("statestore.snapshot") / 1e6
	r.m["statestore.snapshot_bytes"] = float64(len(r.image))
	r.m["statestore.restore_ms"] = r.rec.per("statestore.restore") / 1e6
}

// checkpointStore: the snapshot store takes one task snapshot per epoch.
func (r *replay) checkpointStore(root int64) {
	snaps := checkpoint.NewStore("")
	for e := types.CheckpointID(1); e <= 8; e++ {
		r.rec.do(root, "checkpoint.store_put", 1, func() {
			r.note(snaps.Put(&checkpoint.TaskSnapshot{Checkpoint: e, Task: types.TaskID{Vertex: r.edge.To.ID}, State: r.image}))
			snaps.MarkCompleted(e)
		})
	}
	r.m["checkpoint.store_put_ms"] = r.rec.per("checkpoint.store_put") / 1e6
}

// sink: kafkasim's sink append, per record.
func (r *replay) sink(root int64) {
	out := kafkasim.NewSinkTopic(true)
	var n uint64
	r.batches(func(_ int, batch []types.Element) {
		r.rec.do(root, "kafkasim.sink_append", len(batch), func() {
			for _, e := range batch {
				n++
				out.Append(kafkasim.SinkRecord{Key: e.Key, EventTs: e.Timestamp, EmitMs: e.Timestamp, Value: e.Value, Producer: "sink", Seq: n})
			}
		})
	})
	r.m["kafkasim.sink_append_ns"] = r.rec.per("kafkasim.sink_append")
}

// stubContext is the operator.Context the operator replay runs against:
// real keyed state and services, no task around them.
type stubContext struct {
	state   *statestore.KeyedState
	svc     *services.Services
	id      types.TaskID
	emitted int
}

func (c *stubContext) Emit(uint64, int64, any)                  { c.emitted++ }
func (c *stubContext) State() *statestore.KeyedState            { return c.state }
func (c *stubContext) NamedState(string) *statestore.KeyedState { return c.state }
func (c *stubContext) Services() *services.Services             { return c.svc }
func (c *stubContext) RegisterProcTimer(uint64, int64)          {}
func (c *stubContext) RegisterEventTimer(uint64, int64)         {}
func (c *stubContext) Watermark() int64                         { return 0 }
func (c *stubContext) TaskID() types.TaskID                     { return c.id }
func (c *stubContext) NumSubtasks() int                         { return parallelism }
func (c *stubContext) Epoch() uint64                            { return 0 }
func (c *stubContext) CausalDelta() []byte                      { return nil }

var _ operator.Context = (*stubContext)(nil)
