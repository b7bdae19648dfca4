package main

import (
	"math/rand"
	"sync"

	"clonos/internal/kafkasim"
	"clonos/internal/nexmark"
)

// inputs is a workload's seeded record sequence, built before the clock
// starts. Record i is a pure function of (seed, i); only its timestamp,
// the due time, is filled in when it is offered.
type inputs struct {
	// values holds the record payloads pre-boxed, so offering a record
	// allocates nothing; record i carries values[i % len(values)].
	//
	// Synthetic: int64 base+j, with base drawn from the seed, so the seed
	// sets which key the stages' round-robin starts on. len(values) is a
	// multiple of every workload's key count, which keeps that round-robin
	// unbroken across the wrap.
	//
	// NEXMark: nexmark.Event j of the seed's generator.
	values []any
	base   int64
	// bids[j] is values[j]'s bid (Price 0 for persons and auctions); nil
	// for synthetic workloads. q13 turns each bid into one
	// Result{A: auction, B: price}; bids sharing (auction, price) cannot be
	// told apart at the sink, so slot maps the pair to the first such j.
	bids []nexmark.Bid
	slot map[[2]int64]int
}

func buildInputs(w workload, seed int64) *inputs {
	if w.Query == "" {
		in := &inputs{base: rand.New(rand.NewSource(seed)).Int63n(1 << 40), values: make([]any, synValues)}
		for j := range in.values {
			in.values[j] = in.base + int64(j)
		}
		return in
	}
	cfg := nexmark.DefaultGeneratorConfig(seed)
	in := &inputs{values: make([]any, nexmarkPool), bids: make([]nexmark.Bid, nexmarkPool)}
	var wg sync.WaitGroup
	const shards = 4
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j := s; j < nexmarkPool; j += shards {
				ev := nexmark.GenEvent(cfg, int64(j), 0)
				in.values[j] = ev
				if ev.Kind == nexmark.KindBid {
					in.bids[j] = *ev.Bid
				}
			}
		}(s)
	}
	wg.Wait()
	in.slot = make(map[[2]int64]int, nexmarkPool)
	for j, b := range in.bids {
		k := [2]int64{int64(b.Auction), b.Price}
		if _, seen := in.slot[k]; !seen && b.Price != 0 {
			in.slot[k] = j
		}
	}
	return in
}

// record returns input i stamped with its due time (Unix ms). The log
// key alternates so the source partitions fill evenly and the source's
// strict round-robin never waits on an empty partition.
func (in *inputs) record(i int64, dueMs int64) kafkasim.Record {
	return kafkasim.Record{Key: uint64(i), Ts: dueMs, Value: in.values[i%int64(len(in.values))]}
}

// multiplicity reports how often values[j] occurs among the first n
// inputs.
func (in *inputs) multiplicity(j int, n int64) int64 {
	m := int64(len(in.values))
	k := n / m
	if int64(j) < n%m {
		k++
	}
	return k
}

// emits reports whether input i produces a sink record: the synthetic
// pipeline is 1:1, q13 passes bids only.
func (in *inputs) emits(i int64) bool {
	return in.bids == nil || in.bids[i%int64(len(in.bids))].Price != 0
}

// slotOf maps a sink record's value to the index in values of the input
// that produces it (the first such input, if several do).
func (in *inputs) slotOf(v any) (int, bool) {
	switch v := v.(type) {
	case int64:
		j := v - in.base
		return int(j), in.bids == nil && j >= 0 && j < int64(len(in.values))
	case nexmark.Result:
		j, ok := in.slot[[2]int64{int64(v.A), v.B}]
		return j, ok
	}
	return 0, false
}

// want returns, per slot, how many sink records the first n inputs must
// produce.
func (in *inputs) want(n int64) []int64 {
	out := make([]int64, len(in.values))
	for j := range out {
		switch {
		case in.bids == nil:
			out[j] = in.multiplicity(j, n)
		case in.bids[j].Price != 0:
			out[in.slot[[2]int64{int64(in.bids[j].Auction), in.bids[j].Price}]] += in.multiplicity(j, n)
		}
	}
	return out
}

// outputs reports how many sink records the first n inputs produce.
func (in *inputs) outputs(n int64) int64 {
	var sum int64
	for _, c := range in.want(n) {
		sum += c
	}
	return sum
}
