package nexmark

import (
	"fmt"
	"math/rand"
	"time"

	"clonos/internal/kafkasim"
)

// GeneratorConfig mirrors the NEXMark generator parameters. Event i is a
// pure function of (Seed, i, FirstEventTs), so regenerating a prefix is
// deterministic regardless of rate or batching.
type GeneratorConfig struct {
	Seed int64
	// Proportions out of their sum: defaults 1:3:46 (the NEXMark mix).
	PersonProportion, AuctionProportion, BidProportion int
	// HotAuctionRatio is the share (out of 100) of bids targeting the
	// most recent auctions (skew); HotBidderRatio likewise for bidders.
	HotAuctionRatio, HotBidderRatio int
	// ActiveAuctions is the window of recent auctions cold bids pick from.
	ActiveAuctions int
	// ActivePersons is the window of recent persons used as bidders and
	// sellers.
	ActivePersons int
	// NumCategories is the auction category cardinality.
	NumCategories uint64
	// AuctionDurationMs is added to an auction's DateTime for Expires.
	AuctionDurationMs int64
	// ExtraBytes pads every event with that many bytes of filler, as
	// the NEXMark generator's "extra" field does to reach realistic
	// record sizes (0 disables padding).
	ExtraBytes int
	// FirstEventTs pins event time of event 0; 0 means wall clock at
	// generator start (ingestion-style timestamps, as in the paper's
	// latency measurement).
	FirstEventTs int64
	// InterEventDelayUs spaces event times; 0 derives it from the rate.
	InterEventDelayUs int64
}

// DefaultGeneratorConfig returns the standard NEXMark mix.
func DefaultGeneratorConfig(seed int64) GeneratorConfig {
	return GeneratorConfig{
		Seed:              seed,
		PersonProportion:  1,
		AuctionProportion: 3,
		BidProportion:     46,
		HotAuctionRatio:   85,
		HotBidderRatio:    80,
		ActiveAuctions:    200,
		ActivePersons:     500,
		NumCategories:     5,
		AuctionDurationMs: 2000,
	}
}

var (
	firstNames = []string{"Peter", "Paul", "Luke", "John", "Saul", "Vicky", "Kate", "Julie", "Sarah", "Deiter", "Walter"}
	lastNames  = []string{"Shultz", "Abrams", "Spencer", "White", "Bartels", "Walton", "Smith", "Jones", "Noris"}
	cities     = []string{"Phoenix", "Los Angeles", "San Francisco", "Boise", "Portland", "Bend", "Redmond", "Seattle", "Kent", "Cheyenne"}
	states     = []string{"AZ", "CA", "ID", "OR", "WA", "WY"}
	items      = []string{"chair", "lamp", "couch", "desk", "bike", "skis", "guitar", "amp", "vase", "rug"}
)

// counts of each entity among the first i events.
func countsBefore(cfg GeneratorConfig, i int64) (persons, auctions, bids int64) {
	total := int64(cfg.PersonProportion + cfg.AuctionProportion + cfg.BidProportion)
	cycle := i / total
	rem := int(i % total)
	persons = cycle * int64(cfg.PersonProportion)
	auctions = cycle * int64(cfg.AuctionProportion)
	bids = cycle * int64(cfg.BidProportion)
	if rem > 0 {
		p := min64(int64(rem), int64(cfg.PersonProportion))
		persons += p
		rem -= int(p)
	}
	if rem > 0 {
		a := min64(int64(rem), int64(cfg.AuctionProportion))
		auctions += a
		rem -= int(a)
	}
	bids += int64(rem)
	return persons, auctions, bids
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// kindOf returns the event kind of sequence number i.
func kindOf(cfg GeneratorConfig, i int64) EventKind {
	total := int64(cfg.PersonProportion + cfg.AuctionProportion + cfg.BidProportion)
	rem := i % total
	switch {
	case rem < int64(cfg.PersonProportion):
		return KindPerson
	case rem < int64(cfg.PersonProportion+cfg.AuctionProportion):
		return KindAuction
	default:
		return KindBid
	}
}

// extraFor builds the deterministic padding of one event.
func extraFor(cfg GeneratorConfig, rng *rand.Rand) string {
	if cfg.ExtraBytes <= 0 {
		return ""
	}
	b := make([]byte, cfg.ExtraBytes)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// GenEvent deterministically produces event i with the given event time.
func GenEvent(cfg GeneratorConfig, i int64, ts int64) Event {
	rng := rand.New(rand.NewSource(cfg.Seed ^ (i * 0x5851F42D4C957F2D)))
	persons, auctions, _ := countsBefore(cfg, i)
	switch kindOf(cfg, i) {
	case KindPerson:
		id := uint64(persons) // this event creates person #persons
		return Event{Kind: KindPerson, Person: &Person{
			ID:       id,
			Name:     firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))],
			Email:    fmt.Sprintf("p%d@example.com", id),
			City:     cities[rng.Intn(len(cities))],
			State:    states[rng.Intn(len(states))],
			DateTime: ts,
			Extra:    extraFor(cfg, rng),
		}}
	case KindAuction:
		id := uint64(auctions)
		seller := pickRecent(rng, persons, int64(cfg.ActivePersons), 100)
		initial := 1 + rng.Int63n(1000)
		return Event{Kind: KindAuction, Auction: &Auction{
			ID:          id,
			ItemName:    items[rng.Intn(len(items))],
			Description: fmt.Sprintf("auction %d", id),
			InitialBid:  initial,
			Reserve:     initial + rng.Int63n(1000),
			DateTime:    ts,
			Expires:     ts + cfg.AuctionDurationMs,
			Seller:      seller,
			Category:    uint64(rng.Int63n(int64(cfg.NumCategories))) + 10,
			Extra:       extraFor(cfg, rng),
		}}
	default:
		auction := pickRecent(rng, auctions, int64(cfg.ActiveAuctions), cfg.HotAuctionRatio)
		bidder := pickRecent(rng, persons, int64(cfg.ActivePersons), cfg.HotBidderRatio)
		return Event{Kind: KindBid, Bid: &Bid{
			Auction:  auction,
			Bidder:   bidder,
			Price:    1 + rng.Int63n(10_000),
			DateTime: ts,
			Extra:    extraFor(cfg, rng),
		}}
	}
}

// pickRecent selects an entity ID: with hotRatio% probability one of the
// 16 newest, otherwise uniform over the last `window` created. count is
// the number created so far (>=0 works even before any exist: id 0).
func pickRecent(rng *rand.Rand, count, window int64, hotRatio int) uint64 {
	if count <= 0 {
		return 0
	}
	if int(rng.Int63n(100)) < hotRatio {
		hot := min64(16, count)
		return uint64(count - 1 - rng.Int63n(hot))
	}
	w := min64(window, count)
	return uint64(count - 1 - rng.Int63n(w))
}

// Driver feeds NEXMark events into a kafkasim topic at a target rate,
// stamping event times with the wall clock (ingestion-time style, so sink
// latency is end-to-end).
type Driver struct {
	gen *kafkasim.Generator
}

// NewDriver builds a driver producing `limit` events (limit <= 0 means
// no limit) at rate events/second into topic.
func NewDriver(topic *kafkasim.Topic, cfg GeneratorConfig, rate int, limit int64) *Driver {
	g := kafkasim.NewGenerator(topic, rate, func(i int64) (kafkasim.Record, bool) {
		if limit > 0 && i >= limit {
			return kafkasim.Record{}, false
		}
		ts := cfg.FirstEventTs
		if ts == 0 {
			ts = time.Now().UnixMilli()
		} else if cfg.InterEventDelayUs > 0 {
			ts += i * cfg.InterEventDelayUs / 1000
		}
		ev := GenEvent(cfg, i, ts)
		return kafkasim.Record{Key: uint64(i), Ts: ts, Value: ev}, true
	})
	return &Driver{gen: g}
}

// Start launches the driver.
func (d *Driver) Start() { d.gen.Start() }

// Stop halts the driver.
func (d *Driver) Stop() { d.gen.Stop() }

// GenerateAll synchronously fills a topic with n events using a fixed
// event-time progression (for finite, fully deterministic tests).
func GenerateAll(topic *kafkasim.Topic, cfg GeneratorConfig, n int64, baseTs int64, stepMs int64) {
	for i := int64(0); i < n; i++ {
		ts := baseTs + i*stepMs
		topic.Append(kafkasim.Record{Key: uint64(i), Ts: ts, Value: GenEvent(cfg, i, ts)})
	}
	topic.Close()
}
