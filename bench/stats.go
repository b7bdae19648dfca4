package main

import (
	"math"
	"sort"
)

// latencyHist counts sink latencies in the 1 ms buckets the sink's
// arrival stamp resolves. Records that never arrived are kept apart:
// they sit beyond every bucket, so a percentile that reaches them is
// +Inf and they always count as late.
type latencyHist struct {
	counts  []int64 // counts[l] = records with latency in [l, l+1) ms
	maxMs   int64   // highest latency of a record that arrived
	n       int64   // records that arrived
	missing int64   // records offered but never delivered
}

func (h *latencyHist) add(ms int64) {
	if ms < 0 {
		ms = 0
	}
	for int64(len(h.counts)) <= ms {
		h.counts = append(h.counts, make([]int64, len(h.counts)+64)...)
	}
	h.counts[ms]++
	h.maxMs = max(h.maxMs, ms)
	h.n++
}

// percentile returns the p-quantile (0 < p < 1) in ms, interpolating
// linearly inside the 1 ms bucket the rank falls into.
func (h *latencyHist) percentile(p float64) float64 {
	total := h.n + h.missing
	if total == 0 {
		return math.NaN()
	}
	rank := p * float64(total)
	var cum float64
	for l, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			return float64(l) + (rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return math.Inf(1)
}

// supports reports whether the p-quantile has at least ten samples
// beyond it, the rule for the highest percentile worth reporting.
func (h *latencyHist) supports(p float64) bool {
	return float64(h.n+h.missing)*(1-p) >= 10
}

// lateShare is the share of offered records that were not at the sink
// within limitMs of their due time; undelivered records are late.
func (h *latencyHist) lateShare(limitMs int64) float64 {
	total := h.n + h.missing
	if total == 0 {
		return 0
	}
	late := h.missing
	for l := limitMs + 1; l < int64(len(h.counts)); l++ {
		late += h.counts[l]
	}
	return float64(late) / float64(total)
}

// median returns the middle value (mean of the middle two for an even
// count); NaN for an empty slice. The input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// finite maps NaN and the infinities to 0: a median over no samples is
// reported as 0, the value of a layer that did nothing.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// segmentStat is one metric over the segments of a window: the median
// segment is the reported value, min and max are kept beside it.
type segmentStat struct{ Median, Min, Max float64 }

func overSegments(v []float64) segmentStat {
	if len(v) == 0 {
		return segmentStat{math.NaN(), math.NaN(), math.NaN()}
	}
	st := segmentStat{Median: median(v), Min: v[0], Max: v[0]}
	for _, x := range v {
		st.Min = math.Min(st.Min, x)
		st.Max = math.Max(st.Max, x)
	}
	return st
}

// quartiles reproduces Python's statistics.quantiles(v, n=4), the rule
// the PR driver applies to ten runs of a metric. It needs two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// span is one traced interval recorded by the benchmark's own files.
// Parent is the ID of the span that caused it (0 for a root); spans of
// one replay share a Trace identifier.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"` // items handled inside the span
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once, and only where they lie inside the parent).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}
