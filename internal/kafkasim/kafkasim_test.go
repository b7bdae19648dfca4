package kafkasim

import (
	"testing"
	"time"
)

func TestPartitionAppendGet(t *testing.T) {
	p := NewPartition()
	if _, ok := p.Get(0); ok {
		t.Fatal("empty partition returned a record")
	}
	p.Append(Record{Key: 1, Ts: 10, Value: "a"})
	p.Append(Record{Key: 2, Ts: 20, Value: "b"})
	r, ok := p.Get(1)
	if !ok || r.Value != "b" {
		t.Fatalf("get(1) = %v,%v", r, ok)
	}
	if _, ok := p.Get(2); ok {
		t.Fatal("past-end offset returned a record")
	}
	if _, ok := p.Get(-1); ok {
		t.Fatal("negative offset returned a record")
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestPartitionReplayable(t *testing.T) {
	// The core property lineage replay relies on: any retained offset
	// returns the identical record on every read.
	p := NewPartition()
	for i := 0; i < 100; i++ {
		p.Append(Record{Key: uint64(i), Ts: int64(i), Value: int64(i)})
	}
	for pass := 0; pass < 3; pass++ {
		for i := int64(0); i < 100; i++ {
			r, ok := p.Get(i)
			if !ok || r.Value.(int64) != i {
				t.Fatalf("pass %d offset %d: %v,%v", pass, i, r, ok)
			}
		}
	}
}

func TestTopicRouting(t *testing.T) {
	top := NewTopic("t", 3)
	for i := uint64(0); i < 9; i++ {
		top.Append(Record{Key: i})
	}
	for pi, p := range top.Partitions {
		if p.Len() != 3 {
			t.Fatalf("partition %d has %d records", pi, p.Len())
		}
		for off := int64(0); off < p.Len(); off++ {
			r, _ := p.Get(off)
			if int(r.Key%3) != pi {
				t.Fatalf("record key %d in partition %d", r.Key, pi)
			}
		}
	}
	if top.TotalLen() != 9 {
		t.Fatalf("total = %d", top.TotalLen())
	}
}

func TestTopicClose(t *testing.T) {
	top := NewTopic("t", 2)
	top.Close()
	for _, p := range top.Partitions {
		if !p.Closed() {
			t.Fatal("partition not closed")
		}
	}
}

func TestSinkTopicDedup(t *testing.T) {
	s := NewSinkTopic(true)
	s.Append(SinkRecord{Producer: "a", Seq: 1, Value: 1})
	s.Append(SinkRecord{Producer: "a", Seq: 2, Value: 2})
	s.Append(SinkRecord{Producer: "a", Seq: 2, Value: 2}) // duplicate
	s.Append(SinkRecord{Producer: "a", Seq: 1, Value: 1}) // replayed older
	s.Append(SinkRecord{Producer: "b", Seq: 1, Value: 3}) // other producer
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	if s.Duplicates() != 2 {
		t.Fatalf("dups = %d, want 2", s.Duplicates())
	}
}

func TestSinkTopicNoDedup(t *testing.T) {
	s := NewSinkTopic(false)
	s.Append(SinkRecord{Producer: "a", Seq: 1})
	s.Append(SinkRecord{Producer: "a", Seq: 1})
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2 (dedup off)", s.Len())
	}
}

func TestSinkTopicSince(t *testing.T) {
	s := NewSinkTopic(false)
	for i := uint64(0); i < 5; i++ {
		s.Append(SinkRecord{Key: i})
	}
	tail := s.Since(3)
	if len(tail) != 2 || tail[0].Key != 3 {
		t.Fatalf("since(3) = %v", tail)
	}
	if s.Since(99) != nil {
		t.Fatal("since past end returned records")
	}
	if got := len(s.All()); got != 5 {
		t.Fatalf("all = %d", got)
	}
}

// TestLogsSpanChunks reads a partition and a sink that hold several chunks
// back by offset and from cursors on, before and inside every chunk.
func TestLogsSpanChunks(t *testing.T) {
	const n = 3*chunkLen + 7
	p, s := NewPartition(), NewSinkTopic(false)
	for i := uint64(0); i < n; i++ {
		p.Append(Record{Key: i})
		s.Append(SinkRecord{Key: i})
	}
	if p.Len() != n || s.Len() != n {
		t.Fatalf("len = %d and %d, want %d", p.Len(), s.Len(), n)
	}
	for i := int64(0); i < n; i++ {
		if r, ok := p.Get(i); !ok || r.Key != uint64(i) {
			t.Fatalf("get(%d) = %v,%v", i, r, ok)
		}
	}
	if _, ok := p.Get(n); ok {
		t.Fatal("past-end offset returned a record")
	}
	for _, from := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3 * chunkLen, n - 1} {
		tail := s.Since(from)
		if len(tail) != n-from {
			t.Fatalf("since(%d) has %d records, want %d", from, len(tail), n-from)
		}
		for i, r := range tail {
			if r.Key != uint64(from+i) {
				t.Fatalf("since(%d)[%d] has key %d", from, i, r.Key)
			}
		}
	}
	if s.Since(n) != nil {
		t.Fatal("since past end returned records")
	}
}

func TestSinkStampsArrival(t *testing.T) {
	s := NewSinkTopic(false)
	before := time.Now().UnixMilli()
	s.Append(SinkRecord{Key: 1})
	after := time.Now().UnixMilli()
	r := s.All()[0]
	if r.ArrivalMs < before || r.ArrivalMs > after {
		t.Fatalf("arrival %d outside [%d,%d]", r.ArrivalMs, before, after)
	}
}

func TestGeneratorProducesAllRecords(t *testing.T) {
	top := NewTopic("t", 2)
	g := NewGenerator(top, 0, func(i int64) (Record, bool) {
		return Record{Key: uint64(i), Value: i}, i < 500
	})
	g.Start()
	select {
	case <-g.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("generator produced %d records", top.TotalLen())
	}
	g.Stop()
	if got := top.TotalLen(); got != 500 {
		t.Fatalf("generator produced %d records, want 500", got)
	}
	for _, p := range top.Partitions {
		if !p.Closed() {
			t.Fatal("generator did not close topic at end of input")
		}
	}
}

func TestGeneratorRatePacing(t *testing.T) {
	top := NewTopic("t", 1)
	g := NewGenerator(top, 1000, func(i int64) (Record, bool) {
		return Record{Key: uint64(i)}, true
	})
	start := time.Now()
	g.Start()
	time.Sleep(300 * time.Millisecond)
	g.Stop()
	elapsed := time.Since(start).Seconds()
	n := float64(top.TotalLen())
	// Within a generous factor of the target rate (batching granularity).
	if n < 100 || n > elapsed*1000*2+128 {
		t.Fatalf("produced %v records in %.2fs at rate 1000", n, elapsed)
	}
}

func TestGeneratorStopIdempotent(t *testing.T) {
	g := NewGenerator(NewTopic("t", 1), 0, func(i int64) (Record, bool) { return Record{}, false })
	g.Start()
	g.Stop()
	g.Stop()
}

func TestSinkTopicDeltaStore(t *testing.T) {
	s := NewSinkTopic(true)
	s.Append(SinkRecord{Producer: "a", Seq: 1, Epoch: 1, Delta: []byte("d1")})
	s.Append(SinkRecord{Producer: "a", Seq: 2, Epoch: 2, Delta: []byte("d2")})
	s.Append(SinkRecord{Producer: "b", Seq: 1, Epoch: 1, Delta: []byte("d3")})
	s.Append(SinkRecord{Producer: "a", Seq: 3, Epoch: 2}) // no delta
	if s.StoredDeltaCount() != 3 {
		t.Fatalf("stored = %d", s.StoredDeltaCount())
	}
	chunks := s.DeltasFor("a")
	if len(chunks) != 2 || string(chunks[0].Delta) != "d1" || chunks[1].Epoch != 2 {
		t.Fatalf("chunks = %+v", chunks)
	}
	// Records returned to consumers never carry deltas.
	for _, r := range s.All() {
		if r.Delta != nil {
			t.Fatal("delta leaked into consumer records")
		}
	}
	// A deduplicated record's delta is still stored.
	s.Append(SinkRecord{Producer: "a", Seq: 2, Epoch: 2, Delta: []byte("d2-replay")})
	if s.Len() != 4 {
		t.Fatalf("dedup failed: len=%d", s.Len())
	}
	if len(s.DeltasFor("a")) != 3 {
		t.Fatal("replayed record's delta not stored")
	}
	s.TruncateDeltas(1)
	for _, c := range s.DeltasFor("a") {
		if c.Epoch <= 1 {
			t.Fatalf("epoch %d chunk survived truncation", c.Epoch)
		}
	}
	if len(s.DeltasFor("b")) != 0 {
		t.Fatal("producer b chunk survived truncation")
	}
}
