package netstack

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"clonos/internal/buffer"
	"clonos/internal/codec"
	"clonos/internal/types"
)

func ch(edge, from, to int32) types.ChannelID {
	return types.ChannelID{Edge: types.EdgeID(edge), From: from, To: to}
}

func msg(id types.ChannelID, seq uint64, data ...byte) *Message {
	return &Message{Channel: id, Seq: seq, Data: data}
}

func TestEndpointFIFO(t *testing.T) {
	ep := NewEndpoint(ch(1, 0, 0), 4, nil, true)
	for i := uint64(1); i <= 3; i++ {
		if err := ep.Push(msg(ep.ID(), i, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(1); i <= 3; i++ {
		m := ep.Pop()
		if m == nil || m.Data[0] != i {
			t.Fatalf("pop %d: got %v", i, m)
		}
	}
	if ep.Pop() != nil {
		t.Fatal("pop on empty endpoint returned message")
	}
}

func TestEndpointRejectsOutOfSequence(t *testing.T) {
	ep := NewEndpoint(ch(1, 0, 0), 4, nil, true)
	if err := ep.Push(msg(ep.ID(), 5)); err != nil {
		t.Fatal(err)
	}
	if err := ep.Push(msg(ep.ID(), 7)); err == nil {
		t.Fatal("gap in seq accepted")
	}
	if err := ep.Push(msg(ep.ID(), 5)); err == nil {
		t.Fatal("duplicate seq accepted")
	}
	if err := ep.Push(msg(ep.ID(), 6)); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointAnchorsOnFirstSeq(t *testing.T) {
	// A fresh standby endpoint accepts replay starting mid-stream.
	ep := NewEndpoint(ch(1, 0, 0), 4, nil, true)
	if err := ep.Push(msg(ep.ID(), 100)); err != nil {
		t.Fatal(err)
	}
	if got := ep.LastPushed(); got != 100 {
		t.Fatalf("LastPushed = %d, want 100", got)
	}
}

func TestEndpointBackpressure(t *testing.T) {
	ep := NewEndpoint(ch(1, 0, 0), 1, nil, true)
	if err := ep.Push(msg(ep.ID(), 1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ep.Push(msg(ep.ID(), 2)) }()
	select {
	case <-done:
		t.Fatal("push on full endpoint did not block")
	case <-time.After(20 * time.Millisecond):
	}
	ep.Pop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("push never unblocked")
	}
}

func TestEndpointBreakUnblocksSender(t *testing.T) {
	ep := NewEndpoint(ch(1, 0, 0), 1, nil, true)
	_ = ep.Push(msg(ep.ID(), 1))
	done := make(chan error, 1)
	go func() { done <- ep.Push(msg(ep.ID(), 2)) }()
	time.Sleep(10 * time.Millisecond)
	ep.Break()
	select {
	case err := <-done:
		if !errors.Is(err, ErrChannelBroken) {
			t.Fatalf("err = %v, want ErrChannelBroken", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Break did not unblock sender")
	}
	if ep.Len() != 0 {
		t.Fatal("Break did not drop queue")
	}
}

func TestEndpointRebindFencesPredecessor(t *testing.T) {
	ep := NewEndpoint(ch(1, 0, 0), 4, nil, true)
	old := func(seq uint64) *Message { return &Message{Channel: ep.ID(), Seq: seq, Gen: 1} }
	new_ := func(seq uint64) *Message { return &Message{Channel: ep.ID(), Seq: seq, Gen: 2} }
	// Unbound endpoint accepts any generation (normal operation).
	for i := uint64(1); i <= 3; i++ {
		if err := ep.Push(old(i)); err != nil {
			t.Fatal(err)
		}
	}
	if lp := ep.Rebind(2); lp != 3 {
		t.Fatalf("Rebind returned %d, want 3", lp)
	}
	// The predecessor's lingering send is rejected after the rebind...
	if err := ep.Push(old(4)); !errors.Is(err, ErrChannelBroken) {
		t.Fatalf("stale-generation push: err = %v, want ErrChannelBroken", err)
	}
	// ...while the replacement continues the FIFO stream.
	if err := ep.Push(new_(4)); err != nil {
		t.Fatal(err)
	}
	if lp := ep.LastPushed(); lp != 4 {
		t.Fatalf("LastPushed = %d, want 4", lp)
	}
}

func TestEndpointRebindEjectsBlockedSender(t *testing.T) {
	ep := NewEndpoint(ch(1, 0, 0), 1, nil, true)
	if err := ep.Push(&Message{Channel: ep.ID(), Seq: 1, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	// The predecessor's last send parks on the credit limit (the receiver
	// is busy) and stays there across the crash and recovery.
	done := make(chan error, 1)
	go func() { done <- ep.Push(&Message{Channel: ep.ID(), Seq: 2, Gen: 1}) }()
	select {
	case <-done:
		t.Fatal("push on full endpoint did not block")
	case <-time.After(20 * time.Millisecond):
	}
	ep.Rebind(2)
	select {
	case err := <-done:
		if !errors.Is(err, ErrChannelBroken) {
			t.Fatalf("err = %v, want ErrChannelBroken", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Rebind did not eject the parked stale sender")
	}
	// The fenced send must not have become visible.
	if lp := ep.LastPushed(); lp != 1 {
		t.Fatalf("LastPushed = %d, want 1", lp)
	}
}

func TestNetworkAttachSendDetach(t *testing.T) {
	n := NewNetwork()
	id := ch(2, 1, 3)
	if err := n.Send(msg(id, 1)); !errors.Is(err, ErrChannelBroken) {
		t.Fatalf("send to unknown channel: %v", err)
	}
	ep := NewEndpoint(id, 4, nil, true)
	n.Attach(ep)
	if err := n.Send(msg(id, 1)); err != nil {
		t.Fatal(err)
	}
	if n.Endpoint(id) != ep {
		t.Fatal("lookup returned wrong endpoint")
	}
	n.Detach(id)
	if n.Endpoint(id) != nil {
		t.Fatal("detach left endpoint registered")
	}
	if err := ep.Push(msg(id, 2)); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("push on closed endpoint: %v", err)
	}
}

func TestNetworkReplaceEndpoint(t *testing.T) {
	n := NewNetwork()
	id := ch(1, 0, 0)
	old := NewEndpoint(id, 4, nil, true)
	n.Attach(old)
	_ = n.Send(msg(id, 1))
	old.Break()
	// Standby attaches a fresh endpoint; replay starts at seq 1 again.
	fresh := NewEndpoint(id, 4, nil, true)
	n.Attach(fresh)
	if err := n.Send(msg(id, 1)); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 1 {
		t.Fatal("fresh endpoint did not receive")
	}
}

func TestGateNextRoundRobin(t *testing.T) {
	n := NewNetwork()
	ids := []types.ChannelID{ch(1, 0, 0), ch(1, 1, 0)}
	g := NewGate(n, ids, 4, true)
	abort := make(chan struct{})
	if err := n.Send(msg(ids[0], 1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(msg(ids[1], 1, 20)); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		idx, m, err := g.Next(abort)
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			t.Fatal("nil message")
		}
		seen[idx] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("round robin did not serve both channels: %v", seen)
	}
}

func TestGateBlockedChannelNotServed(t *testing.T) {
	n := NewNetwork()
	ids := []types.ChannelID{ch(1, 0, 0), ch(1, 1, 0)}
	g := NewGate(n, ids, 4, true)
	abort := make(chan struct{})
	_ = n.Send(msg(ids[0], 1, 10))
	_ = n.Send(msg(ids[1], 1, 20))
	g.Block(0)
	idx, m, err := g.Next(abort)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || m.Data[0] != 20 {
		t.Fatalf("served blocked channel: idx=%d", idx)
	}
	g.Unblock(0)
	idx, _, err = g.Next(abort)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("unblocked channel not served: idx=%d", idx)
	}
}

func TestGateNextAbort(t *testing.T) {
	n := NewNetwork()
	g := NewGate(n, []types.ChannelID{ch(1, 0, 0)}, 4, true)
	abort := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Next(abort)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(abort)
	select {
	case err := <-done:
		if !errors.Is(err, ErrGateClosed) {
			t.Fatalf("err = %v, want ErrGateClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("abort did not unblock Next")
	}
}

func TestGateNextFrom(t *testing.T) {
	n := NewNetwork()
	ids := []types.ChannelID{ch(1, 0, 0), ch(1, 1, 0)}
	g := NewGate(n, ids, 4, true)
	abort := make(chan struct{})
	_ = n.Send(msg(ids[1], 1, 42))
	// Data arrives on channel 0 later; NextFrom(1) must still serve 1.
	m, err := g.NextFrom(1, abort)
	if err != nil || m.Data[0] != 42 {
		t.Fatalf("NextFrom: m=%v err=%v", m, err)
	}
	done := make(chan *Message, 1)
	go func() {
		m, _ := g.NextFrom(0, abort)
		done <- m
	}()
	time.Sleep(10 * time.Millisecond)
	_ = n.Send(msg(ids[0], 1, 7))
	select {
	case m := <-done:
		if m.Data[0] != 7 {
			t.Fatalf("NextFrom(0) got %v", m.Data)
		}
	case <-time.After(time.Second):
		t.Fatal("NextFrom never returned")
	}
}

func collectElements(t *testing.T, d *Deserializer, data []byte) []types.Element {
	t.Helper()
	d.Feed(data)
	var out []types.Element
	for {
		e, ok, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func TestWriterAndDeserializerRoundTrip(t *testing.T) {
	pool := buffer.NewPool(4, 32)
	var dispatched [][]byte
	w := NewChannelWriter(pool, codec.Int64Codec{}, func(b *buffer.Buffer) error {
		dispatched = append(dispatched, append([]byte(nil), b.Data...))
		pool.Put(b)
		return nil
	})
	const n = 20
	for i := int64(0); i < n; i++ {
		if err := w.WriteElement(types.Record(uint64(i), i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(dispatched) < 2 {
		t.Fatalf("expected spanning across >= 2 buffers, got %d", len(dispatched))
	}
	d := NewDeserializer(codec.Int64Codec{})
	var got []types.Element
	for _, b := range dispatched {
		got = append(got, collectElements(t, d, b)...)
	}
	if len(got) != n {
		t.Fatalf("decoded %d elements, want %d", len(got), n)
	}
	for i, e := range got {
		if e.Value.(int64) != int64(i) {
			t.Fatalf("element %d = %v", i, e.Value)
		}
	}
	if d.Pending() != 0 {
		t.Fatalf("deserializer has %d leftover bytes", d.Pending())
	}
}

// TestWriterRecoveryCutsReproduceBuffers drives a writer the way guided
// replay drives a task's writers: every dispatch must have the next
// recorded size, and at each element boundary the writer is flushed when
// it holds exactly the next recorded size — that is an early cut, since
// any later write could only grow the buffer past it. The replayed buffers
// are the recorded ones byte for byte, however the original run's
// timing-dependent flushes fell.
func TestWriterRecoveryCutsReproduceBuffers(t *testing.T) {
	pool := buffer.NewPool(8, 64)
	keep := func(out *[][]byte) func(*buffer.Buffer) error {
		return func(b *buffer.Buffer) error {
			*out = append(*out, append([]byte(nil), b.Data...))
			pool.Put(b)
			return nil
		}
	}
	// First run: early flushes at timing-dependent element boundaries,
	// full buffers in between (the records straddle buffer ends).
	var original [][]byte
	w := NewChannelWriter(pool, codec.Int64Codec{}, keep(&original))
	for i := int64(0); i < 40; i++ {
		if err := w.WriteElement(types.Record(uint64(i), i, i)); err != nil {
			t.Fatal(err)
		}
		if i == 3 || i == 4 || i == 17 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Recovery run: the same elements, cut by the recorded sizes alone.
	var replayed [][]byte
	dispatch := keep(&replayed)
	w2 := NewChannelWriter(pool, codec.Int64Codec{}, func(b *buffer.Buffer) error {
		if k := len(replayed); k >= len(original) || b.Len() != len(original[k]) {
			t.Fatalf("dispatch %d of %d bytes diverges from the recorded sizes", k, b.Len())
		}
		return dispatch(b)
	})
	for i := int64(0); i < 40; i++ {
		if err := w2.WriteElement(types.Record(uint64(i), i, i)); err != nil {
			t.Fatal(err)
		}
		if k := len(replayed); k < len(original) && w2.PendingBytes() == len(original[k]) {
			if err := w2.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(replayed) != len(original) || w2.PendingBytes() != 0 {
		t.Fatalf("replayed %d buffers (%d bytes left), want %d", len(replayed), w2.PendingBytes(), len(original))
	}
	for i := range original {
		if !bytes.Equal(replayed[i], original[i]) {
			t.Fatalf("buffer %d differs after recovery", i)
		}
	}
}

func TestWriterClosedPool(t *testing.T) {
	pool := buffer.NewPool(1, 16)
	w := NewChannelWriter(pool, codec.Int64Codec{}, func(b *buffer.Buffer) error { return nil })
	pool.Close()
	if err := w.WriteElement(types.Record(0, 0, int64(1))); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("err = %v, want ErrWriterClosed", err)
	}
}

func TestDeserializerSpanningAcrossFeeds(t *testing.T) {
	enc, err := codec.EncodeElement(nil, types.Record(1, 2, int64(3)), codec.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeserializer(codec.Int64Codec{})
	// Feed one byte at a time; element must only appear at the end.
	for i, b := range enc {
		d.Feed([]byte{b})
		e, ok, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if i < len(enc)-1 && ok {
			t.Fatalf("element completed early at byte %d", i)
		}
		if i == len(enc)-1 {
			if !ok {
				t.Fatal("element not completed at final byte")
			}
			if e.Value.(int64) != 3 {
				t.Fatalf("value = %v", e.Value)
			}
		}
	}
}

func TestDeserializerReset(t *testing.T) {
	d := NewDeserializer(codec.Int64Codec{})
	d.Feed([]byte{0, 0, 0, 9, 1}) // partial element
	if d.Pending() == 0 {
		t.Fatal("no pending bytes")
	}
	d.Reset()
	if d.Pending() != 0 {
		t.Fatal("reset did not clear pending bytes")
	}
}

// TestGateBlockKeepsCredit pins that a channel blocked for barrier
// alignment keeps its credit: a push to it at credit parks, and proceeds
// once the gate is unblocked and serves the channel again.
func TestGateBlockKeepsCredit(t *testing.T) {
	n := NewNetwork()
	ids := []types.ChannelID{ch(1, 0, 0)}
	g := NewGate(n, ids, 1, true)
	if err := n.Send(msg(ids[0], 1)); err != nil {
		t.Fatal(err)
	}
	g.Block(0)
	done := make(chan error, 1)
	go func() { done <- n.Send(msg(ids[0], 2)) }()
	select {
	case err := <-done:
		t.Fatalf("push to a blocked channel at credit returned (err=%v) instead of parking", err)
	case <-time.After(50 * time.Millisecond):
	}
	if l := g.Endpoint(0).Len(); l != 1 {
		t.Fatalf("blocked channel holds %d buffers, credit is 1", l)
	}
	if _, _, ok := g.TryNext(); ok {
		t.Fatal("blocked channel served")
	}
	g.Unblock(0)
	abort := make(chan struct{})
	for want := uint64(1); want <= 2; want++ {
		idx, m, err := g.Next(abort)
		if err != nil || idx != 0 || m.Seq != want {
			t.Fatalf("next: idx=%d m=%v err=%v, want seq %d", idx, m, err, want)
		}
		if want == 1 {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(time.Second):
				t.Fatal("parked push did not proceed after Unblock freed its credit")
			}
		}
	}
}
