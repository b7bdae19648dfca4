package job

import (
	"fmt"

	"clonos/internal/operator"
	"clonos/internal/services"
	"clonos/internal/statestore"
	"clonos/internal/timers"
	"clonos/internal/types"
)

// tsRefreshHandler is the reserved timer handler ID of the Timestamp
// service's cache-refresh timer.
const tsRefreshHandler int32 = -1

// chain executes a vertex's fused operators inside one task. Each
// operator gets its own context whose Emit feeds the next operator; the
// last context's Emit feeds the task's output.
type chain struct {
	task *Task
	ops  []operator.Operator
	ctxs []*opContext
}

// opContext implements operator.Context for one chained operator.
type opContext struct {
	task   *Task
	chain  *chain
	index  int
	scope  string
	emitFn func(key uint64, ts int64, v any) // next operator or task output

	// Keyed-state handles resolved so far, by unscoped name ("state" is
	// State's), so that a per-record State() builds no name and asks the
	// store nothing. They are handles into the store of generation
	// stateGen: Store.Restore replaces every KeyedState, and the first
	// call after one resolves afresh — lazily, as before, so a state
	// still comes to exist (and enters snapshots) on first use.
	named    map[string]*statestore.KeyedState
	stateGen uint64
}

func newChain(t *Task) *chain {
	c := &chain{task: t, ops: t.vertex.Operators}
	for i, op := range c.ops {
		ctx := &opContext{task: t, chain: c, index: i, scope: t.vertex.Name + "." + op.Name()}
		c.ctxs = append(c.ctxs, ctx)
	}
	for i := range c.ctxs {
		i := i
		if i+1 < len(c.ctxs) {
			c.ctxs[i].emitFn = func(key uint64, ts int64, v any) {
				c.deliver(i+1, 0, types.Record(key, ts, v))
			}
		} else {
			c.ctxs[i].emitFn = func(key uint64, ts int64, v any) {
				c.task.emitOutput(key, ts, v)
			}
		}
	}
	return c
}

// sourceContext returns the context handed to a source function: it emits
// into the head of the chain (or straight to output when the chain is
// empty).
func (c *chain) sourceContext() *opContext {
	ctx := &opContext{task: c.task, chain: c, index: -1, scope: c.task.vertex.Name + ".source"}
	if len(c.ops) > 0 {
		ctx.emitFn = func(key uint64, ts int64, v any) {
			c.deliver(0, 0, types.Record(key, ts, v))
		}
	} else {
		ctx.emitFn = func(key uint64, ts int64, v any) {
			c.task.emitOutput(key, ts, v)
		}
	}
	return ctx
}

// open calls Open on every operator in order.
func (c *chain) open() error {
	for i, op := range c.ops {
		if err := op.Open(c.ctxs[i]); err != nil {
			return fmt.Errorf("open %s: %w", op.Name(), err)
		}
	}
	return nil
}

// close calls Close on every operator in order.
func (c *chain) close() error {
	var first error
	for i, op := range c.ops {
		if err := op.Close(c.ctxs[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// deliver feeds a record to operator i.
func (c *chain) deliver(i, port int, e types.Element) {
	if err := c.ops[i].ProcessRecord(c.ctxs[i], port, e); err != nil {
		c.task.fail(fmt.Errorf("%s: %w", c.ops[i].Name(), err))
	}
}

// processInput feeds a record arriving from the task's input edge `port`
// into the head of the chain, or straight to output for a pass-through
// vertex.
func (c *chain) processInput(port int, e types.Element) {
	if len(c.ops) == 0 {
		c.task.emitOutput(e.Key, e.Timestamp, e.Value)
		return
	}
	c.deliver(0, port, e)
}

// onWatermark notifies every operator of a combined-watermark advance.
func (c *chain) onWatermark(wm int64) {
	for i, op := range c.ops {
		if err := op.OnWatermark(c.ctxs[i], wm); err != nil {
			c.task.fail(fmt.Errorf("%s watermark: %w", op.Name(), err))
			return
		}
	}
}

// onEventTimer routes a fired event-time timer to its owning operator.
func (c *chain) onEventTimer(tm timers.Timer) {
	i := int(tm.HandlerID)
	if i < 0 || i >= len(c.ops) {
		c.task.fail(fmt.Errorf("event timer for unknown handler %d", tm.HandlerID))
		return
	}
	if err := c.ops[i].OnEventTimer(c.ctxs[i], tm.Key, tm.When); err != nil {
		c.task.fail(fmt.Errorf("%s event timer: %w", c.ops[i].Name(), err))
	}
}

// onProcTimer routes a fired processing-time timer to its owner: the
// Timestamp service's cache refresh or an operator.
func (c *chain) onProcTimer(tm timers.Timer) {
	if tm.HandlerID == tsRefreshHandler {
		if err := c.task.svcs.OnRefreshTimer(); err != nil {
			c.task.fail(err)
		}
		return
	}
	i := int(tm.HandlerID)
	if i < 0 || i >= len(c.ops) {
		c.task.fail(fmt.Errorf("proc timer for unknown handler %d", tm.HandlerID))
		return
	}
	if err := c.ops[i].OnProcTimer(c.ctxs[i], tm.Key, tm.When); err != nil {
		c.task.fail(fmt.Errorf("%s proc timer: %w", c.ops[i].Name(), err))
	}
}

// Emit implements operator.Context.
func (ctx *opContext) Emit(key uint64, ts int64, v any) { ctx.emitFn(key, ts, v) }

// State implements operator.Context.
func (ctx *opContext) State() *statestore.KeyedState { return ctx.NamedState("state") }

// NamedState implements operator.Context.
func (ctx *opContext) NamedState(name string) *statestore.KeyedState {
	store := ctx.task.store
	if gen := store.Generation(); ctx.named == nil || ctx.stateGen != gen {
		ctx.named, ctx.stateGen = make(map[string]*statestore.KeyedState), gen
	}
	st, ok := ctx.named[name]
	if !ok {
		st = store.Keyed(ctx.scope + "." + name)
		ctx.named[name] = st
	}
	return st
}

// Services implements operator.Context.
func (ctx *opContext) Services() *services.Services { return ctx.task.svcs }

// RegisterProcTimer implements operator.Context. Operator callbacks run
// on the task main thread, which owns the timer service.
//
//clonos:mainthread
func (ctx *opContext) RegisterProcTimer(key uint64, when int64) {
	ctx.task.timerSvc.RegisterProc(timers.Timer{HandlerID: int32(ctx.index), Key: key, When: when})
}

// RegisterEventTimer implements operator.Context.
//
//clonos:mainthread
func (ctx *opContext) RegisterEventTimer(key uint64, when int64) {
	ctx.task.timerSvc.RegisterEvent(timers.Timer{HandlerID: int32(ctx.index), Key: key, When: when})
}

// Watermark implements operator.Context. Operator callbacks run on the
// task main thread, so the direct curWm read is safe.
//
//clonos:mainthread
func (ctx *opContext) Watermark() int64 { return ctx.task.curWm }

// TaskID implements operator.Context.
func (ctx *opContext) TaskID() types.TaskID { return ctx.task.id }

// NumSubtasks implements operator.Context.
func (ctx *opContext) NumSubtasks() int { return ctx.task.vertex.Parallelism }

// Epoch implements operator.Context.
func (ctx *opContext) Epoch() uint64 { return uint64(ctx.task.epoch) }

// CausalDelta implements operator.Context (§5.5 exactly-once output).
func (ctx *opContext) CausalDelta() []byte {
	if ctx.task.causal == nil {
		return nil
	}
	return ctx.task.causal.DeltaForExternal("external")
}
