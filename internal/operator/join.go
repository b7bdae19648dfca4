package operator

import "clonos/internal/types"

// HashJoin is a full-history two-input equi-join on the record key
// (Nexmark Q3's incremental join): each side is retained in keyed state
// forever, and every arrival emits the combinations with the opposite
// side seen so far.
func HashJoin(name string, combine func(left, right any) any) Operator {
	return &hashJoinOp{Base: Base{name}, combine: combine}
}

type hashJoinOp struct {
	Base
	combine func(left, right any) any
}

func (j *hashJoinOp) ProcessRecord(ctx Context, port int, e types.Element) error {
	mine := ctx.NamedState("left")
	other := ctx.NamedState("right")
	if port == 1 {
		mine, other = other, mine
	}
	mine.AppendList(e.Key, e.Value)
	for _, v := range other.List(e.Key) {
		l, r := e.Value, v
		if port == 1 {
			l, r = v, e.Value
		}
		ctx.Emit(e.Key, e.Timestamp, j.combine(l, r))
	}
	return nil
}

// joinAcc buffers both sides of one key's window.
type joinAcc struct {
	Left  []any
	Right []any
}

// WindowJoin joins the two inputs per key within tumbling event-time
// windows (Nexmark Q8): matches are emitted when the window fires.
func WindowJoin(name string, size int64, combine func(left, right any) any) Operator {
	return &windowJoinOp{Base: Base{name}, size: size, combine: combine}
}

type windowJoinOp struct {
	Base
	size    int64
	combine func(left, right any) any
}

func (j *windowJoinOp) ProcessRecord(ctx Context, port int, e types.Element) error {
	start := floorTo(e.Timestamp, j.size)
	st := ctx.State()
	wins, _ := st.Get(e.Key).(map[int64]*joinAcc)
	if wins == nil {
		wins = make(map[int64]*joinAcc)
	}
	acc, ok := wins[start]
	if !ok {
		acc = &joinAcc{}
		wins[start] = acc
		ctx.RegisterEventTimer(e.Key, start+j.size-1)
	}
	if port == 0 {
		acc.Left = append(acc.Left, e.Value)
	} else {
		acc.Right = append(acc.Right, e.Value)
	}
	st.Put(e.Key, wins)
	return nil
}

func (j *windowJoinOp) OnEventTimer(ctx Context, key uint64, when int64) error {
	start := when + 1 - j.size
	st := ctx.State()
	wins, _ := st.Get(key).(map[int64]*joinAcc)
	acc, ok := wins[start]
	if !ok {
		return nil
	}
	delete(wins, start)
	if len(wins) == 0 {
		st.Delete(key)
	} else {
		st.Put(key, wins)
	}
	for _, l := range acc.Left {
		for _, r := range acc.Right {
			ctx.Emit(key, when, j.combine(l, r))
		}
	}
	return nil
}
