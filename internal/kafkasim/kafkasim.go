// Package kafkasim simulates the partitioned, offset-addressable,
// replayable log cluster the paper uses as data source and sink (Kafka).
// Source partitions are replayable from any retained offset, which is
// what lets lineage-based replay terminate at the sources; the sink topic
// timestamps arrivals and deduplicates by producer sequence, providing
// the idempotent sink of §5.5 and the measurement point for throughput
// and latency.
package kafkasim

import (
	"fmt"
	"sync"
	"time"
)

// chunkLen is how many entries one chunk of a log holds.
const chunkLen = 1024

// chunked is an append-only sequence stored in chunks of chunkLen entries.
// A simulated broker log only ever grows, and as one slice each regrowth
// would copy everything stored so far — tens of megabytes, inside the
// log's lock, at moments fixed by the record count — so an append here
// costs the same whatever the log already holds.
//
//clonos:external storage of a simulated broker log (Partition, SinkTopic), durable outside the recovery domain
type chunked[T any] struct {
	chunks [][]T
	n      int
}

func (c *chunked[T]) append(v T) {
	if c.n == len(c.chunks)*chunkLen {
		c.chunks = append(c.chunks, make([]T, 0, chunkLen))
	}
	last := &c.chunks[len(c.chunks)-1]
	*last = append(*last, v)
	c.n++
}

// at returns entry i; 0 <= i < c.n.
func (c *chunked[T]) at(i int) T { return c.chunks[i/chunkLen][i%chunkLen] }

// since returns a copy of the entries from index from on; 0 <= from < c.n.
func (c *chunked[T]) since(from int) []T {
	out := make([]T, 0, c.n-from)
	out = append(out, c.chunks[from/chunkLen][from%chunkLen:]...)
	for _, ch := range c.chunks[from/chunkLen+1:] {
		out = append(out, ch...)
	}
	return out
}

// Record is one log entry of a source partition.
type Record struct {
	Key   uint64
	Ts    int64 // event time, Unix ms
	Value any
}

// Partition is one FIFO, offset-addressable log.
//
//clonos:external simulated broker log, durable outside the recovery domain; tasks re-read it by offset instead of snapshotting it
type Partition struct {
	mu      sync.Mutex
	cond    *sync.Cond
	records chunked[Record]
	closed  bool
}

// NewPartition creates an empty partition.
func NewPartition() *Partition {
	p := &Partition{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Append adds a record.
func (p *Partition) Append(r Record) {
	p.mu.Lock()
	p.records.append(r)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Get returns the record at offset, or false if not yet produced.
func (p *Partition) Get(offset int64) (Record, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset < 0 || offset >= int64(p.records.n) {
		return Record{}, false
	}
	return p.records.at(int(offset)), true
}

// Len reports the high-water offset.
func (p *Partition) Len() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.records.n)
}

// Close marks the partition finished; blocked waits return.
func (p *Partition) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Closed reports whether no more records will be appended.
func (p *Partition) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Topic is a set of partitions.
type Topic struct {
	Name       string
	Partitions []*Partition
}

// NewTopic creates a topic with n partitions.
func NewTopic(name string, n int) *Topic {
	t := &Topic{Name: name}
	for i := 0; i < n; i++ {
		t.Partitions = append(t.Partitions, NewPartition())
	}
	return t
}

// Append routes a record to partition key % n.
func (t *Topic) Append(r Record) {
	t.Partitions[int(r.Key%uint64(len(t.Partitions)))].Append(r)
}

// Close closes all partitions.
func (t *Topic) Close() {
	for _, p := range t.Partitions {
		p.Close()
	}
}

// TotalLen sums the partition high-water offsets.
func (t *Topic) TotalLen() int64 {
	var n int64
	for _, p := range t.Partitions {
		n += p.Len()
	}
	return n
}

// SinkRecord is one record delivered to a sink topic.
type SinkRecord struct {
	Key uint64
	// EventTs is the record's event time; ArrivalMs the wall-clock
	// arrival at the sink, so latency = ArrivalMs - EmitMs.
	EventTs   int64
	ArrivalMs int64
	// EmitMs is the wall-clock time the record entered the system at
	// the source; end-to-end latency is measured against it.
	EmitMs int64
	Value  any
	// Producer and Seq identify the sink subtask and its per-task
	// output sequence number, the idempotence key.
	Producer string
	Seq      uint64
	// Epoch is the producer's checkpoint epoch, used to truncate
	// stored determinants after checkpoints (§5.5).
	Epoch uint64
	// Delta carries the producer's piggybacked causal-log delta when
	// exactly-once output is enabled (§5.5); the topic stores it and
	// returns it to a recovering producer.
	Delta []byte
}

// DeltaChunk is one stored determinant delta of a producer.
type DeltaChunk struct {
	Seq   uint64
	Epoch uint64
	Delta []byte
}

// SinkTopic is the measured output: it deduplicates by (producer, seq),
// making the sink idempotent — valid here because Clonos' causally guided
// replay regenerates byte-identical output, unlike plain re-execution of
// nondeterministic operators (§5.5).
//
//clonos:external simulated downstream sink, durable outside the recovery domain; producer-sequence dedup (not snapshots) keeps it consistent across recovery
type SinkTopic struct {
	mu      sync.Mutex
	records chunked[SinkRecord]
	lastSeq map[string]uint64
	deltas  map[string][]DeltaChunk
	dups    uint64
	dedup   bool
}

// NewSinkTopic creates a sink. dedup enables idempotent (exactly-once)
// appends; disable it to observe at-least-once duplicates.
func NewSinkTopic(dedup bool) *SinkTopic {
	return &SinkTopic{
		lastSeq: make(map[string]uint64),
		deltas:  make(map[string][]DeltaChunk),
		dedup:   dedup,
	}
}

// Append delivers one record, stamping its arrival time. Duplicate
// (producer, seq) pairs are dropped when deduplication is on. A record
// carrying a determinant delta (§5.5 exactly-once output) has the delta
// stored for later retrieval by a recovering producer.
func (s *SinkTopic) Append(r SinkRecord) {
	r.ArrivalMs = time.Now().UnixMilli()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Store piggybacked determinants even for records the idempotence
	// check will drop: a recovering producer resends deduplicated
	// records whose deltas may carry determinants not yet stored (the
	// replica merge is idempotent by absolute log index).
	if len(r.Delta) > 0 && r.Producer != "" {
		s.deltas[r.Producer] = append(s.deltas[r.Producer], DeltaChunk{Seq: r.Seq, Epoch: r.Epoch, Delta: r.Delta})
		r.Delta = nil // records returned to consumers carry no delta
	}
	if s.dedup && r.Producer != "" {
		if last, ok := s.lastSeq[r.Producer]; ok && r.Seq <= last {
			s.dups++
			return
		}
		s.lastSeq[r.Producer] = r.Seq
	}
	s.records.append(r)
}

// DeltasFor returns the stored determinant chunks of a producer, in
// append order — the §5.5 recovery retrieval.
func (s *SinkTopic) DeltasFor(producer string) []DeltaChunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]DeltaChunk(nil), s.deltas[producer]...)
}

// TruncateDeltas drops stored determinant chunks of epochs <= upTo for
// every producer (the checkpoint completed; they are no longer needed).
func (s *SinkTopic) TruncateDeltas(upTo uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p, chunks := range s.deltas {
		kept := chunks[:0]
		for _, c := range chunks {
			if c.Epoch > upTo {
				kept = append(kept, c)
			}
		}
		s.deltas[p] = append([]DeltaChunk(nil), kept...)
	}
}

// StoredDeltaCount reports the total retained determinant chunks.
func (s *SinkTopic) StoredDeltaCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, chunks := range s.deltas {
		n += len(chunks)
	}
	return n
}

// Len reports delivered (post-dedup) record count.
func (s *SinkTopic) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records.n
}

// Duplicates reports how many duplicate records were suppressed.
func (s *SinkTopic) Duplicates() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dups
}

// Since returns records with index >= from (a cheap poll cursor).
func (s *SinkTopic) Since(from int) []SinkRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < 0 || from >= s.records.n {
		return nil
	}
	return s.records.since(from)
}

// All returns a copy of every delivered record.
func (s *SinkTopic) All() []SinkRecord { return s.Since(0) }

// Generator feeds a topic at a target rate from a deterministic record
// source, simulating the benchmark driver that loads Kafka.
type Generator struct {
	topic *Topic
	rate  int // records/second; <= 0 means as fast as possible
	next  func(i int64) (Record, bool)

	stop     chan struct{}
	finished chan struct{}
	done     sync.WaitGroup
}

// NewGenerator builds a generator producing next(i) for i = 0,1,2,...
// until next reports false, paced at rate records/second.
func NewGenerator(topic *Topic, rate int, next func(i int64) (Record, bool)) *Generator {
	return &Generator{
		topic:    topic,
		rate:     rate,
		next:     next,
		stop:     make(chan struct{}),
		finished: make(chan struct{}),
	}
}

// Done is closed when the producer goroutine exits — either the record
// source was exhausted (and the topic closed) or Stop was called. It
// lets callers wait for end-of-input without polling the topic.
func (g *Generator) Done() <-chan struct{} { return g.finished }

// Start launches the producer goroutine.
func (g *Generator) Start() {
	g.done.Add(1)
	go g.run()
}

// Stop halts production and waits for the producer to exit.
func (g *Generator) Stop() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	g.done.Wait()
}

func (g *Generator) run() {
	defer g.done.Done()
	defer close(g.finished)
	const batch = 64
	var i int64
	start := time.Now()
	for {
		select {
		case <-g.stop:
			return
		default:
		}
		for b := 0; b < batch; b++ {
			r, ok := g.next(i)
			if !ok {
				g.topic.Close()
				return
			}
			g.topic.Append(r)
			i++
		}
		if g.rate > 0 {
			// Pace: sleep until the produced count matches the rate.
			ahead := time.Duration(i)*time.Second/time.Duration(g.rate) - time.Since(start)
			if ahead > time.Millisecond {
				select {
				case <-g.stop:
					return
				case <-time.After(ahead):
				}
			}
		}
	}
}

// String describes a partition assignment, used in logs.
func AssignmentString(topic string, part int) string {
	return fmt.Sprintf("%s[%d]", topic, part)
}
