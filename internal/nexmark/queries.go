package nexmark

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"clonos/internal/codec"
	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/operator"
	"clonos/internal/types"
)

// Result is the uniform output record of every query, with a compact
// binary codec for the hot sink edges.
type Result struct {
	A uint64  // entity or window identifier
	B int64   // integral value (price, count)
	C float64 // fractional value (average, conversion)
	S string  // label
	T int64   // auxiliary time
}

func init() {
	// []int64 and map[uint64]int64, the other state shapes the queries
	// keep, are codec package built-ins.
	codec.RegisterType(Result{}, ResultCodec{})
	codec.RegisterType(q4Acc{}, q4AccCodec{})
}

// ResultCodec is the binary codec for Result values.
type ResultCodec struct{}

// EncodeAppend implements codec.Codec.
func (ResultCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	r, ok := v.(Result)
	if !ok {
		return dst, fmt.Errorf("nexmark: ResultCodec got %T", v)
	}
	dst = binary.AppendUvarint(dst, r.A)
	dst = binary.AppendVarint(dst, r.B)
	dst = binary.BigEndian.AppendUint64(dst, floatBits(r.C))
	dst = putString(dst, r.S)
	dst = binary.AppendVarint(dst, r.T)
	return dst, nil
}

// EncodedSize implements codec.Sizer.
func (ResultCodec) EncodedSize(v any) int {
	r, ok := v.(Result)
	if !ok {
		return -1
	}
	return codec.UvarintLen(r.A) + codec.VarintLen(r.B) + 8 + stringSize(r.S) + codec.VarintLen(r.T)
}

// Decode implements codec.Codec.
func (ResultCodec) Decode(b []byte) (any, error) {
	var r Result
	i := 0
	a, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return nil, fmt.Errorf("nexmark: truncated result")
	}
	i += n
	r.A = a
	bv, n := binary.Varint(b[i:])
	if n <= 0 {
		return nil, fmt.Errorf("nexmark: truncated result")
	}
	i += n
	r.B = bv
	if len(b)-i < 8 {
		return nil, fmt.Errorf("nexmark: truncated result")
	}
	r.C = floatFromBits(binary.BigEndian.Uint64(b[i:]))
	i += 8
	s, n, err := getString(b[i:])
	if err != nil {
		return nil, err
	}
	i += n
	r.S = s
	tv, n := binary.Varint(b[i:])
	if n <= 0 {
		return nil, fmt.Errorf("nexmark: truncated result")
	}
	i += n
	r.T = tv
	if i != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	return r, nil
}

// q4AccCodec is the typed snapshot codec for the Q4/Q6 auction-close
// accumulator.
type q4AccCodec struct{}

// EncodeAppend implements codec.Codec.
func (q4AccCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	a, ok := v.(q4Acc)
	if !ok {
		return dst, fmt.Errorf("nexmark: q4AccCodec got %T", v)
	}
	have := byte(0)
	if a.HaveAuction {
		have = 1
	}
	dst = append(dst, have)
	dst = binary.AppendUvarint(dst, a.Category)
	dst = binary.AppendUvarint(dst, a.Seller)
	dst = binary.AppendVarint(dst, a.Expires)
	dst = binary.AppendVarint(dst, a.Reserve)
	dst = binary.AppendVarint(dst, a.Best)
	return dst, nil
}

// EncodedSize implements codec.Sizer.
func (q4AccCodec) EncodedSize(v any) int {
	a, ok := v.(q4Acc)
	if !ok {
		return -1
	}
	return 1 + codec.UvarintLen(a.Category) + codec.UvarintLen(a.Seller) +
		codec.VarintLen(a.Expires) + codec.VarintLen(a.Reserve) + codec.VarintLen(a.Best)
}

// Decode implements codec.Codec.
func (q4AccCodec) Decode(b []byte) (any, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("nexmark: truncated q4Acc")
	}
	c := &cursor{b: b, i: 1}
	a := q4Acc{
		HaveAuction: b[0] != 0,
		Category:    c.uv(), Seller: c.uv(),
		Expires: c.sv(), Reserve: c.sv(), Best: c.sv(),
	}
	if c.err != nil {
		return nil, fmt.Errorf("nexmark: truncated q4Acc")
	}
	if c.i != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	return a, nil
}

func floatBits(f float64) uint64     { return uint64FromFloat(f) }
func floatFromBits(u uint64) float64 { return floatFromUint64(u) }

// QueryConfig parameterizes the query topologies.
type QueryConfig struct {
	// Parallelism of every non-sink vertex.
	Parallelism int
	// WindowMs / SlideMs / SessionGapMs scale the windowed queries.
	WindowMs     int64
	SlideMs      int64
	SessionGapMs int64
	// SideURLCardinality bounds Q13's side-input key space.
	SideURLCardinality uint64
	// WatermarkEvery configures the source's watermark period.
	WatermarkEvery int64
}

// DefaultQueryConfig returns experiment-scaled defaults.
func DefaultQueryConfig(p int) QueryConfig {
	return QueryConfig{
		Parallelism:        p,
		WindowMs:           1000,
		SlideMs:            250,
		SessionGapMs:       500,
		SideURLCardinality: 100,
		WatermarkEvery:     100,
	}
}

// QueryNames lists the implemented queries in the paper's Figure 5 order
// (Q10 is excluded by the paper itself: it requires GCP access).
var QueryNames = []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q11", "Q12", "Q13", "Q14"}

// Build constructs the dataflow graph of one query over a NEXMark topic.
func Build(name string, topic *kafkasim.Topic, sink *kafkasim.SinkTopic, cfg QueryConfig) (*job.Graph, error) {
	b := &builder{g: job.NewGraph(), topic: topic, sink: sink, cfg: cfg}
	switch name {
	case "Q1":
		return b.q1(), nil
	case "Q2":
		return b.q2(), nil
	case "Q3":
		return b.q3(), nil
	case "Q4":
		return b.q4(), nil
	case "Q5":
		return b.q5(), nil
	case "Q6":
		return b.q6(), nil
	case "Q7":
		return b.q7(), nil
	case "Q8":
		return b.q8(), nil
	case "Q9":
		return b.q9(), nil
	case "Q11":
		return b.q11(), nil
	case "Q12":
		return b.q12(), nil
	case "Q13":
		return b.q13(), nil
	case "Q14":
		return b.q14(), nil
	default:
		return nil, fmt.Errorf("nexmark: unknown query %q", name)
	}
}

type builder struct {
	g     *job.Graph
	topic *kafkasim.Topic
	sink  *kafkasim.SinkTopic
	cfg   QueryConfig
}

// source adds the NEXMark source vertex.
func (b *builder) source() *job.Vertex {
	return b.g.AddVertex("source", b.cfg.Parallelism, &operator.KafkaSource{
		SourceName:     "nexmark",
		Topic:          b.topic,
		WatermarkEvery: b.cfg.WatermarkEvery,
	})
}

// sinkVertex adds the measured sink.
func (b *builder) sinkVertex() *job.Vertex {
	return b.g.AddVertex("sink", 1, nil, operator.NewKafkaSink("kafka-sink", b.sink))
}

// connectResult wires an edge carrying Result values, hash-keyed by A.
func (b *builder) connectResult(from, to *job.Vertex) {
	b.g.Connect(from, to, job.PartitionHash, func(v any) uint64 { return v.(Result).A }, ResultCodec{})
}

// asEvent returns the Event in v.
func asEvent(v any) Event { return v.(Event) }

// bidMap builds a vertex mapping bids through f (dropping non-bids).
func (b *builder) bidMap(name string, f func(ctx operator.Context, bid *Bid, ts int64) (Result, bool, error)) *job.Vertex {
	return b.g.AddVertex(name, b.cfg.Parallelism, nil, operator.Map(name, func(ctx operator.Context, e types.Element) (any, bool, error) {
		ev := asEvent(e.Value)
		if ev.Kind != KindBid {
			return nil, false, nil
		}
		r, keep, err := f(ctx, ev.Bid, e.Timestamp)
		if err != nil || !keep {
			return nil, false, err
		}
		return r, true, nil
	}))
}

// Q1: currency conversion — dollar prices to euro (price * 0.908).
func (b *builder) q1() *job.Graph {
	src := b.source()
	conv := b.bidMap("q1-convert", func(_ operator.Context, bid *Bid, ts int64) (Result, bool, error) {
		return Result{A: bid.Auction, B: bid.Price * 908 / 1000, T: bid.DateTime}, true, nil
	})
	sink := b.sinkVertex()
	b.g.Connect(src, conv, job.PartitionForward, nil, EventCodec{})
	b.connectResult(conv, sink)
	return b.g
}

// Q2: selection — bids on auctions with ID % 123 == 0 (relaxed modulus so
// scaled-down runs still produce output).
func (b *builder) q2() *job.Graph {
	src := b.source()
	sel := b.bidMap("q2-filter", func(_ operator.Context, bid *Bid, ts int64) (Result, bool, error) {
		if bid.Auction%5 != 0 {
			return Result{}, false, nil
		}
		return Result{A: bid.Auction, B: bid.Price}, true, nil
	})
	sink := b.sinkVertex()
	b.g.Connect(src, sel, job.PartitionForward, nil, EventCodec{})
	b.connectResult(sel, sink)
	return b.g
}

// Q3: local item suggestion — persons from OR/ID/CA joined with their
// category-10 auctions (incremental full-history join).
func (b *builder) q3() *job.Graph {
	src := b.source()
	people := b.g.AddVertex("q3-people", b.cfg.Parallelism, nil, operator.Map("people", func(_ operator.Context, e types.Element) (any, bool, error) {
		ev := asEvent(e.Value)
		if ev.Kind != KindPerson {
			return nil, false, nil
		}
		p := ev.Person
		if p.State != "OR" && p.State != "ID" && p.State != "CA" {
			return nil, false, nil
		}
		return Result{A: p.ID, S: p.Name + "," + p.City + "," + p.State}, true, nil
	}))
	auctions := b.g.AddVertex("q3-auctions", b.cfg.Parallelism, nil, operator.Map("auctions", func(_ operator.Context, e types.Element) (any, bool, error) {
		ev := asEvent(e.Value)
		if ev.Kind != KindAuction || ev.Auction.Category != 10 {
			return nil, false, nil
		}
		return Result{A: ev.Auction.Seller, B: int64(ev.Auction.ID)}, true, nil
	}))
	joinV := b.g.AddVertex("q3-join", b.cfg.Parallelism, nil, operator.HashJoin("join", func(l, r any) any {
		person := l.(Result)
		auction := r.(Result)
		return Result{A: person.A, B: auction.B, S: person.S}
	}))
	sink := b.sinkVertex()
	b.g.Connect(src, people, job.PartitionForward, nil, EventCodec{})
	b.g.Connect(src, auctions, job.PartitionForward, nil, EventCodec{})
	b.connectResult(people, joinV)
	b.connectResult(auctions, joinV)
	b.connectResult(joinV, sink)
	return b.g
}

// q4Acc is the auction-close state of Q4/Q6.
type q4Acc struct {
	HaveAuction bool
	Category    uint64
	Seller      uint64
	Expires     int64
	Reserve     int64
	Best        int64
}

// closer builds the winning-bid operator: auctions and their bids meet
// keyed by auction ID; at the auction's expiry (event time) the winning
// bid is emitted as Result{A: category, B: price, T: seller}.
func (b *builder) closer(name string) *job.Vertex {
	op := operator.NewProcess(name, nil)
	op.OnRecord = func(ctx operator.Context, _ int, e types.Element) error {
		ev := asEvent(e.Value)
		st := ctx.State()
		switch ev.Kind {
		case KindAuction:
			a := ev.Auction
			acc, _ := st.Get(e.Key).(q4Acc)
			acc.HaveAuction = true
			acc.Category = a.Category
			acc.Seller = a.Seller
			acc.Expires = a.Expires
			acc.Reserve = a.Reserve
			st.Put(e.Key, acc)
			ctx.RegisterEventTimer(e.Key, a.Expires)
		case KindBid:
			bid := ev.Bid
			acc, _ := st.Get(e.Key).(q4Acc)
			if bid.Price > acc.Best {
				acc.Best = bid.Price
				st.Put(e.Key, acc)
			}
		}
		return nil
	}
	op.OnEvent = func(ctx operator.Context, key uint64, when int64) error {
		st := ctx.State()
		acc, ok := st.Get(key).(q4Acc)
		if !ok || !acc.HaveAuction || acc.Expires != when {
			return nil
		}
		st.Delete(key)
		if acc.Best >= acc.Reserve {
			ctx.Emit(key, when, Result{A: acc.Category, B: acc.Best, T: int64(acc.Seller)})
		}
		return nil
	}
	return b.g.AddVertex(name, b.cfg.Parallelism, nil, op)
}

// bidAuctionKey routes by the bid's auction; non-bids (dropped by the
// downstream filter) route to key 0.
func bidAuctionKey(v any) uint64 {
	if ev := asEvent(v); ev.Kind == KindBid {
		return ev.Bid.Auction
	}
	return 0
}

// bidBidderKey routes by the bid's bidder; non-bids route to key 0.
func bidBidderKey(v any) uint64 {
	if ev := asEvent(v); ev.Kind == KindBid {
		return ev.Bid.Bidder
	}
	return 0
}

// auctionKey routes auctions and bids to the same key space.
func auctionKey(v any) uint64 {
	ev := asEvent(v)
	switch ev.Kind {
	case KindAuction:
		return ev.Auction.ID
	case KindBid:
		return ev.Bid.Auction
	default:
		return 0
	}
}

// Q4: average closing price per category.
func (b *builder) q4() *job.Graph {
	src := b.source()
	close := b.closer("q4-close")
	avg := b.g.AddVertex("q4-avg", b.cfg.Parallelism, nil, operator.KeyedReduce("avg", func(_ operator.Context, acc any, e types.Element) (any, error) {
		a, _ := acc.(Result)
		a.A = e.Key
		a.B++
		a.C += (float64(e.Value.(Result).B) - a.C) / float64(a.B)
		return a, nil
	}))
	sink := b.sinkVertex()
	b.g.Connect(src, close, job.PartitionHash, auctionKey, EventCodec{})
	b.connectResult(close, avg)
	b.connectResult(avg, sink)
	return b.g
}

// windowMax builds the combiner stage of the Q5/Q7 aggregation tree: it
// keeps the maximum Result.B per window (records arrive keyed by window
// end, timestamped end-1) and emits it when the watermark passes.
func (b *builder) windowMax(name string, parallelism int) *job.Vertex {
	op := operator.NewProcess(name, nil)
	op.OnRecord = func(ctx operator.Context, _ int, e types.Element) error {
		st := ctx.State()
		var r Result
		switch v := e.Value.(type) {
		case Result:
			r = v
		case operator.WindowResult:
			// Output of an upstream window stage: carry the window end
			// as the routing identifier and the aggregate as the value.
			r = Result{A: uint64(v.End), B: v.Value.(int64), T: int64(v.Key)}
		default:
			return fmt.Errorf("nexmark: %s got %T", name, e.Value)
		}
		cur, ok := st.Get(e.Key).(Result)
		if !ok {
			ctx.RegisterEventTimer(e.Key, e.Timestamp)
			cur = r
		} else if r.B > cur.B {
			cur = r
		}
		st.Put(e.Key, cur)
		return nil
	}
	op.OnEvent = func(ctx operator.Context, key uint64, when int64) error {
		st := ctx.State()
		if cur, ok := st.Get(key).(Result); ok {
			st.Delete(key)
			ctx.Emit(key, when, cur)
		}
		return nil
	}
	return b.g.AddVertex(name, parallelism, nil, op)
}

// Q5: hot items — the auction with the most bids per sliding window,
// computed with an aggregation tree (count → partial max → final max) as
// the paper describes for skew handling.
func (b *builder) q5() *job.Graph {
	src := b.source()
	count := b.g.AddVertex("q5-count", b.cfg.Parallelism, nil,
		operator.Filter("bids", func(_ operator.Context, e types.Element) (bool, error) {
			return asEvent(e.Value).Kind == KindBid, nil
		}),
		operator.Window("count", operator.WindowSpec{Kind: operator.SlidingEventTime, Size: b.cfg.WindowMs, Slide: b.cfg.SlideMs}, operator.Count(), true),
	)
	partial := b.windowMax("q5-partial", b.cfg.Parallelism)
	final := b.windowMax("q5-final", b.cfg.Parallelism)
	sink := b.sinkVertex()
	b.g.Connect(src, count, job.PartitionHash, bidAuctionKey, EventCodec{})
	// Partial stage: spread each window over parallel combiner groups.
	b.g.Connect(count, partial, job.PartitionHash, func(v any) uint64 {
		wr := v.(operator.WindowResult)
		return hashPair(uint64(wr.End), wr.Key%4)
	}, nil)
	b.g.Connect(partial, final, job.PartitionHash, nil, ResultCodec{})
	b.connectResult(final, sink)
	return b.g
}

// hashPair mixes two words into a key.
func hashPair(a, b uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 ^ b
	return bits.RotateLeft64(x, 31) * 0xBF58476D1CE4E5B9
}

// Q6: average selling price per seller, over the seller's last 10 closed
// auctions.
func (b *builder) q6() *job.Graph {
	src := b.source()
	close := b.closer("q6-close")
	last10 := b.g.AddVertex("q6-avg", b.cfg.Parallelism, nil, operator.NewProcess("last10", func(ctx operator.Context, _ int, e types.Element) error {
		st := ctx.State()
		prices, _ := st.Get(e.Key).([]int64)
		prices = append(prices, e.Value.(Result).B)
		if len(prices) > 10 {
			prices = prices[len(prices)-10:]
		}
		st.Put(e.Key, prices)
		var sum int64
		for _, p := range prices {
			sum += p
		}
		ctx.Emit(e.Key, e.Timestamp, Result{A: e.Key, C: float64(sum) / float64(len(prices))})
		return nil
	}))
	sink := b.sinkVertex()
	b.g.Connect(src, close, job.PartitionHash, auctionKey, EventCodec{})
	// Re-key winning bids by seller.
	b.g.Connect(close, last10, job.PartitionHash, func(v any) uint64 { return uint64(v.(Result).T) }, ResultCodec{})
	b.connectResult(last10, sink)
	return b.g
}

// Q7: highest bid per tumbling window, again via an aggregation tree.
func (b *builder) q7() *job.Graph {
	src := b.source()
	partialWin := b.g.AddVertex("q7-partial", b.cfg.Parallelism, nil,
		operator.Filter("bids", func(_ operator.Context, e types.Element) (bool, error) {
			return asEvent(e.Value).Kind == KindBid, nil
		}),
		operator.Window("maxprice", operator.WindowSpec{Kind: operator.TumblingEventTime, Size: b.cfg.WindowMs},
			operator.MaxBy(func(v any) float64 { return float64(asEvent(v).Bid.Price) }), true),
	)
	toResult := b.g.AddVertex("q7-project", b.cfg.Parallelism, nil, operator.Map("project", func(_ operator.Context, e types.Element) (any, bool, error) {
		wr := e.Value.(operator.WindowResult)
		if wr.Value == nil {
			return nil, false, nil
		}
		bid := asEvent(wr.Value).Bid
		return Result{A: uint64(wr.End), B: bid.Price, T: int64(bid.Bidder)}, true, nil
	}))
	final := b.windowMax("q7-final", b.cfg.Parallelism)
	sink := b.sinkVertex()
	// Partial max over bidder groups to spread the skew.
	b.g.Connect(src, partialWin, job.PartitionHash, func(v any) uint64 { return bidBidderKey(v) % 16 }, EventCodec{})
	b.g.Connect(partialWin, toResult, job.PartitionForward, nil, nil)
	b.connectResult(toResult, final)
	b.connectResult(final, sink)
	return b.g
}

// Q8: monitor new users — persons who created auctions in the same
// tumbling window (windowed join).
func (b *builder) q8() *job.Graph {
	src := b.source()
	people := b.g.AddVertex("q8-people", b.cfg.Parallelism, nil, operator.Map("people", func(_ operator.Context, e types.Element) (any, bool, error) {
		ev := asEvent(e.Value)
		if ev.Kind != KindPerson {
			return nil, false, nil
		}
		return Result{A: ev.Person.ID, S: ev.Person.Name}, true, nil
	}))
	sellers := b.g.AddVertex("q8-sellers", b.cfg.Parallelism, nil, operator.Map("sellers", func(_ operator.Context, e types.Element) (any, bool, error) {
		ev := asEvent(e.Value)
		if ev.Kind != KindAuction {
			return nil, false, nil
		}
		return Result{A: ev.Auction.Seller, B: int64(ev.Auction.ID)}, true, nil
	}))
	joinV := b.g.AddVertex("q8-join", b.cfg.Parallelism, nil, operator.WindowJoin("wjoin", b.cfg.WindowMs, func(l, r any) any {
		return Result{A: l.(Result).A, B: r.(Result).B, S: l.(Result).S}
	}))
	sink := b.sinkVertex()
	b.g.Connect(src, people, job.PartitionForward, nil, EventCodec{})
	b.g.Connect(src, sellers, job.PartitionForward, nil, EventCodec{})
	b.connectResult(people, joinV)
	b.connectResult(sellers, joinV)
	b.connectResult(joinV, sink)
	return b.g
}

// Q9: winning bids — the highest bid at or above the reserve for each
// closed auction (the relational core reused by Q4/Q6, surfaced as its
// own output stream).
func (b *builder) q9() *job.Graph {
	src := b.source()
	close := b.closer("q9-close")
	project := b.g.AddVertex("q9-project", b.cfg.Parallelism, nil, operator.Map("project", func(_ operator.Context, e types.Element) (any, bool, error) {
		r := e.Value.(Result)
		// closer emits Result{A: category, B: price, T: seller}; re-key
		// the winning bid by auction (the record key at the closer).
		return Result{A: e.Key, B: r.B, T: r.T}, true, nil
	}))
	sink := b.sinkVertex()
	b.g.Connect(src, close, job.PartitionHash, auctionKey, EventCodec{})
	b.g.Connect(close, project, job.PartitionForward, nil, ResultCodec{})
	b.connectResult(project, sink)
	return b.g
}

// Q11: user sessions — bids per bidder per session window.
func (b *builder) q11() *job.Graph {
	src := b.source()
	sess := b.g.AddVertex("q11-sessions", b.cfg.Parallelism, nil,
		operator.Filter("bids", func(_ operator.Context, e types.Element) (bool, error) {
			return asEvent(e.Value).Kind == KindBid, nil
		}),
		operator.Window("sessions", operator.WindowSpec{Kind: operator.SessionEventTime, Size: b.cfg.SessionGapMs}, operator.Count(), true),
	)
	project := b.g.AddVertex("q11-project", b.cfg.Parallelism, nil, operator.Map("project", func(_ operator.Context, e types.Element) (any, bool, error) {
		wr := e.Value.(operator.WindowResult)
		return Result{A: wr.Key, B: wr.Value.(int64), T: wr.End - wr.Start}, true, nil
	}))
	sink := b.sinkVertex()
	b.g.Connect(src, sess, job.PartitionHash, bidBidderKey, EventCodec{})
	b.g.Connect(sess, project, job.PartitionForward, nil, nil)
	b.connectResult(project, sink)
	return b.g
}

// Q12: processing-time windows — bids per bidder per wall-clock window.
// This query is inherently nondeterministic (the paper's motivating case).
func (b *builder) q12() *job.Graph {
	src := b.source()
	win := b.g.AddVertex("q12-ptwin", b.cfg.Parallelism, nil,
		operator.Filter("bids", func(_ operator.Context, e types.Element) (bool, error) {
			return asEvent(e.Value).Kind == KindBid, nil
		}),
		operator.Window("ptcount", operator.WindowSpec{Kind: operator.TumblingProcessingTime, Size: b.cfg.WindowMs}, operator.Count(), false),
	)
	sink := b.sinkVertex()
	b.g.Connect(src, win, job.PartitionHash, bidBidderKey, EventCodec{})
	b.g.Connect(win, sink, job.PartitionHash, nil, nil)
	return b.g
}

// Q13: bounded side-input join — bids enriched through an external
// key-value service, exercising the HTTP causal service per record.
func (b *builder) q13() *job.Graph {
	src := b.source()
	cardinality := b.cfg.SideURLCardinality
	if cardinality == 0 {
		cardinality = 100
	}
	enrich := b.bidMap("q13-enrich", func(ctx operator.Context, bid *Bid, ts int64) (Result, bool, error) {
		side, err := ctx.Services().HTTPGet(fmt.Sprintf("side/%d", bid.Auction%cardinality))
		if err != nil {
			return Result{}, false, err
		}
		return Result{A: bid.Auction, B: bid.Price, S: string(side)}, true, nil
	})
	sink := b.sinkVertex()
	b.g.Connect(src, enrich, job.PartitionForward, nil, EventCodec{})
	b.connectResult(enrich, sink)
	return b.g
}

// Q14: calculation — per-bid arithmetic plus a wall-clock processing
// timestamp obtained through the Timestamp service.
func (b *builder) q14() *job.Graph {
	src := b.source()
	calc := b.bidMap("q14-calc", func(ctx operator.Context, bid *Bid, ts int64) (Result, bool, error) {
		price := float64(bid.Price) * 0.908
		if price <= 500 {
			return Result{}, false, nil
		}
		now, err := ctx.Services().CurrentTimeMillis()
		if err != nil {
			return Result{}, false, err
		}
		bucket := "expensive"
		if price <= 5000 {
			bucket = "normal"
		}
		// The Beam Q14 "expensive computation": a short checksum loop.
		var check uint64
		for i := uint64(0); i < 16; i++ {
			check = hashPair(check^bid.Auction, bid.Bidder+i)
		}
		return Result{A: bid.Auction, B: int64(check & 0xFFFF), C: price, S: bucket, T: now}, true, nil
	})
	sink := b.sinkVertex()
	b.g.Connect(src, calc, job.PartitionForward, nil, EventCodec{})
	b.connectResult(calc, sink)
	return b.g
}
