package operator

import (
	"fmt"

	"clonos/internal/types"
)

// AggregateFn is an incremental window aggregate.
type AggregateFn struct {
	// Create returns a fresh accumulator.
	Create func() any
	// Add folds one record into the accumulator.
	Add func(acc any, e types.Element) any
	// Result finalizes the accumulator into the emitted value.
	Result func(acc any) any
}

// Count aggregates the number of records.
func Count() AggregateFn {
	return AggregateFn{
		Create: func() any { return int64(0) },
		Add:    func(acc any, _ types.Element) any { return acc.(int64) + 1 },
		Result: func(acc any) any { return acc },
	}
}

// SumFloat aggregates the sum of extract(value).
func SumFloat(extract func(v any) float64) AggregateFn {
	return AggregateFn{
		Create: func() any { return float64(0) },
		Add:    func(acc any, e types.Element) any { return acc.(float64) + extract(e.Value) },
		Result: func(acc any) any { return acc },
	}
}

// avgAcc is the accumulator of AvgFloat.
type avgAcc struct {
	Sum float64
	N   int64
}

// AvgFloat aggregates the mean of extract(value).
func AvgFloat(extract func(v any) float64) AggregateFn {
	return AggregateFn{
		Create: func() any { return avgAcc{} },
		Add: func(acc any, e types.Element) any {
			a := acc.(avgAcc)
			return avgAcc{Sum: a.Sum + extract(e.Value), N: a.N + 1}
		},
		Result: func(acc any) any {
			a := acc.(avgAcc)
			if a.N == 0 {
				return float64(0)
			}
			return a.Sum / float64(a.N)
		},
	}
}

// maxAcc is the accumulator of MaxBy.
type maxAcc struct {
	Best  any
	Score float64
	Valid bool
}

// MaxBy keeps the record value with the highest score.
func MaxBy(score func(v any) float64) AggregateFn {
	return AggregateFn{
		Create: func() any { return maxAcc{} },
		Add: func(acc any, e types.Element) any {
			a := acc.(maxAcc)
			s := score(e.Value)
			if !a.Valid || s > a.Score {
				return maxAcc{Best: e.Value, Score: s, Valid: true}
			}
			return a
		},
		Result: func(acc any) any { return acc.(maxAcc).Best },
	}
}

// WindowKind selects the windowing discipline.
type WindowKind int

const (
	// TumblingEventTime assigns each record to one fixed event-time window.
	TumblingEventTime WindowKind = iota
	// SlidingEventTime assigns each record to size/slide overlapping windows.
	SlidingEventTime
	// SessionEventTime groups records separated by less than the gap.
	SessionEventTime
	// TumblingProcessingTime windows by the (causally logged) wall clock.
	TumblingProcessingTime
)

// WindowSpec configures a window operator.
type WindowSpec struct {
	Kind  WindowKind
	Size  int64 // window length (ms); session gap for SessionEventTime
	Slide int64 // slide for SlidingEventTime
}

// WindowResult is emitted once per fired window when the operator is
// built with EmitWindowResult; otherwise the bare aggregate is emitted.
type WindowResult struct {
	Key   uint64
	Start int64
	End   int64
	Value any
}

// Window builds a keyed window aggregation operator. Emitted records carry
// the window's end-1 as timestamp and the user key; the value is the
// finalized aggregate (or a WindowResult when wrap is true).
func Window(name string, spec WindowSpec, agg AggregateFn, wrap bool) Operator {
	return &windowOp{Base: Base{name}, spec: spec, agg: agg, wrap: wrap}
}

type windowOp struct {
	Base
	spec WindowSpec
	agg  AggregateFn
	wrap bool
}

// windows returns the [start] list of windows an event-time ts joins.
func (w *windowOp) windows(ts int64) []int64 {
	switch w.spec.Kind {
	case TumblingEventTime, TumblingProcessingTime:
		return []int64{floorTo(ts, w.spec.Size)}
	case SlidingEventTime:
		var starts []int64
		last := floorTo(ts, w.spec.Slide)
		for s := last; s > ts-w.spec.Size; s -= w.spec.Slide {
			starts = append(starts, s)
		}
		return starts
	default:
		return nil
	}
}

func floorTo(ts, size int64) int64 {
	s := ts - ts%size
	if ts < 0 && ts%size != 0 {
		s -= size
	}
	return s
}

func (w *windowOp) ProcessRecord(ctx Context, _ int, e types.Element) error {
	if w.spec.Kind == SessionEventTime {
		return w.processSession(ctx, e)
	}
	ts := e.Timestamp
	if w.spec.Kind == TumblingProcessingTime {
		now, err := ctx.Services().CurrentTimeMillis()
		if err != nil {
			return err
		}
		ts = now
	}
	st := ctx.State()
	wins, _ := st.Get(e.Key).(map[int64]any)
	if wins == nil {
		wins = make(map[int64]any)
	}
	for _, start := range w.windows(ts) {
		acc, ok := wins[start]
		if !ok {
			acc = w.agg.Create()
			end := start + w.spec.Size
			if w.spec.Kind == TumblingProcessingTime {
				ctx.RegisterProcTimer(e.Key, end)
			} else {
				ctx.RegisterEventTimer(e.Key, end-1)
			}
		}
		wins[start] = w.agg.Add(acc, e)
	}
	st.Put(e.Key, wins)
	return nil
}

// fire emits and clears the window [start, start+size).
func (w *windowOp) fire(ctx Context, key uint64, start int64) error {
	st := ctx.State()
	wins, _ := st.Get(key).(map[int64]any)
	acc, ok := wins[start]
	if !ok {
		return nil // already fired or never populated
	}
	delete(wins, start)
	if len(wins) == 0 {
		st.Delete(key)
	} else {
		st.Put(key, wins)
	}
	end := start + w.spec.Size
	v := w.agg.Result(acc)
	if w.wrap {
		v = WindowResult{Key: key, Start: start, End: end, Value: v}
	}
	ctx.Emit(key, end-1, v)
	return nil
}

func (w *windowOp) OnEventTimer(ctx Context, key uint64, when int64) error {
	if w.spec.Kind == SessionEventTime {
		return w.fireSession(ctx, key, when)
	}
	return w.fire(ctx, key, when+1-w.spec.Size)
}

func (w *windowOp) OnProcTimer(ctx Context, key uint64, when int64) error {
	if w.spec.Kind != TumblingProcessingTime {
		return fmt.Errorf("operator %s: unexpected processing-time timer", w.OpName)
	}
	return w.fire(ctx, key, when-w.spec.Size)
}

// sessionState is one open session window of a key.
type sessionState struct {
	Start int64
	End   int64 // last event ts + gap: the session closes at End
	Acc   any
}

func (w *windowOp) processSession(ctx Context, e types.Element) error {
	gap := w.spec.Size
	st := ctx.State()
	sessions, _ := st.Get(e.Key).([]sessionState)
	// Build the new single-record session, then merge every overlapping
	// existing session into it.
	cur := sessionState{Start: e.Timestamp, End: e.Timestamp + gap, Acc: w.agg.Add(w.agg.Create(), e)}
	var kept []sessionState
	for _, s := range sessions {
		if s.Start < cur.End && cur.Start < s.End {
			if s.Start < cur.Start {
				cur.Start = s.Start
			}
			if s.End > cur.End {
				cur.End = s.End
			}
			cur.Acc = mergeAccs(w.agg, s.Acc, cur.Acc)
		} else {
			kept = append(kept, s)
		}
	}
	kept = append(kept, cur)
	st.Put(e.Key, kept)
	ctx.RegisterEventTimer(e.Key, cur.End-1)
	return nil
}

// mergeAccs merges session accumulators. Count-like int64 and float sums
// merge additively; other accumulator types fall back to keeping the
// later accumulator (callers needing richer merges should aggregate lists).
func mergeAccs(agg AggregateFn, a, b any) any {
	switch av := a.(type) {
	case int64:
		return av + b.(int64)
	case float64:
		return av + b.(float64)
	case avgAcc:
		bv := b.(avgAcc)
		return avgAcc{Sum: av.Sum + bv.Sum, N: av.N + bv.N}
	default:
		return b
	}
}

func (w *windowOp) fireSession(ctx Context, key uint64, when int64) error {
	st := ctx.State()
	sessions, _ := st.Get(key).([]sessionState)
	var kept []sessionState
	for _, s := range sessions {
		if s.End-1 == when {
			v := w.agg.Result(s.Acc)
			if w.wrap {
				v = WindowResult{Key: key, Start: s.Start, End: s.End, Value: v}
			}
			ctx.Emit(key, s.End-1, v)
		} else {
			kept = append(kept, s) // extended or different session: stale timer
		}
	}
	if len(kept) == 0 {
		st.Delete(key)
	} else {
		st.Put(key, kept)
	}
	return nil
}
