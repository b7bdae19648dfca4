package causal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"clonos/internal/types"
)

// Delta wire format, piggybacked on every network buffer (§4.3):
//
//	numSets uvarint
//	per set:
//	  origin vertex varint | origin subtask varint | hops uvarint
//	  numLogs uvarint
//	  per log:
//	    flag byte (1 = main, 0 = channel)
//	    channel? edge varint | from varint | to varint
//	    firstAbs uvarint | n uvarint | n determinants
//
// Sets are ordered by origin with the sender's own set first; a set's
// logs are ordered main first, then channels by (edge, from, to). The
// counts precede what they count, so an encoder decides what to send
// before writing any of it (Manager.DeltaFor), and deltaReader is the one
// parser: Store.IngestDelta and DecodeDelta both iterate it.

// LogKey identifies one log of a task: its main-thread log or the log of
// one of its output channels.
type LogKey struct {
	Main    bool
	Channel types.ChannelID
}

// MainLogKey is the key of a task's main-thread log.
var MainLogKey = LogKey{Main: true}

// ChannelLogKey returns the key of an output channel's log.
func ChannelLogKey(id types.ChannelID) LogKey { return LogKey{Channel: id} }

// compareKeys orders log keys as a set lists them on the wire.
func compareKeys(a, b LogKey) int {
	if a.Main != b.Main {
		if a.Main {
			return -1
		}
		return 1
	}
	x, y := a.Channel, b.Channel
	return cmp.Or(cmp.Compare(x.Edge, y.Edge), cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
}

// insertSorted inserts v, whose sort key is key, into the sorted s. The
// sets and logs of a delta are listed in orders kept this way as they are
// created, so encoding never sorts.
func insertSorted[T, K any](s []T, key K, v T, compare func(T, K) int) []T {
	at, _ := slices.BinarySearchFunc(s, key, compare)
	return slices.Insert(s, at, v)
}

func appendSetHeader(dst []byte, origin types.TaskID, hops, numLogs int) []byte {
	dst = binary.AppendVarint(dst, int64(origin.Vertex))
	dst = binary.AppendVarint(dst, int64(origin.Subtask))
	dst = binary.AppendUvarint(dst, uint64(hops))
	return binary.AppendUvarint(dst, uint64(numLogs))
}

func appendLogKey(dst []byte, key LogKey) []byte {
	if key.Main {
		return append(dst, 1)
	}
	dst = append(dst, 0)
	dst = binary.AppendVarint(dst, int64(key.Channel.Edge))
	dst = binary.AppendVarint(dst, int64(key.Channel.From))
	return binary.AppendVarint(dst, int64(key.Channel.To))
}

var errTruncated = errors.New("causal: truncated delta")

// deltaReader iterates a delta in place: nextLog steps to the next log's
// run and sets the header fields; next decodes that run's determinants one
// at a time, and whatever the caller leaves undecoded nextLog steps over.
// The first error sticks, and everything after it reads as zero.
type deltaReader struct {
	b   []byte
	i   int
	err error

	sets, logs uint64 // sets after the current one; logs left in it
	left       uint64 // determinants of the current run not yet decoded

	// Header of the current run.
	origin types.TaskID
	hops   int
	key    LogKey
	start  uint64
	n      uint64

	// payloadBytes sums the SERVICE payload lengths next has stepped
	// over. Kept payloads are carved from slab, allocated once with
	// room for slabHint bytes, so one delta costs one payload allocation.
	payloadBytes int
	slabHint     int
	slab         []byte
}

func (r *deltaReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.i = len(r.b)
}

func (r *deltaReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.i += n
	return v
}

func (r *deltaReader) varint() int64 {
	v, n := binary.Varint(r.b[r.i:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.i += n
	return v
}

func (r *deltaReader) byte() byte {
	if r.i >= len(r.b) {
		r.fail(errTruncated)
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// readDelta starts reading b; slabHint is the payload total checkDelta
// reported for it, or 0 when no payload will be kept.
func readDelta(b []byte, slabHint int) deltaReader {
	r := deltaReader{b: b, slabHint: slabHint}
	r.sets = r.uvarint()
	return r
}

// nextLog advances to the next log run, reporting false at the end of the
// delta or on error.
func (r *deltaReader) nextLog() bool {
	r.skip(r.left)
	for r.logs == 0 {
		if r.sets == 0 || r.err != nil {
			return false
		}
		r.sets--
		r.origin = types.TaskID{Vertex: types.VertexID(r.varint()), Subtask: int32(r.varint())}
		r.hops = int(r.uvarint())
		r.logs = r.uvarint()
	}
	r.logs--
	r.key = MainLogKey
	if r.byte() == 0 {
		r.key = ChannelLogKey(types.ChannelID{Edge: types.EdgeID(r.varint()), From: int32(r.varint()), To: int32(r.varint())})
	}
	r.start, r.n = r.uvarint(), r.uvarint()
	if r.start+r.n < r.start {
		r.fail(fmt.Errorf("causal: delta run [%d, +%d) overflows the log index", r.start, r.n))
	}
	r.left = r.n
	return r.err == nil
}

// next decodes the current run's next determinant into d. With keep, a
// SERVICE payload is copied into the reader's slab; without (skip), it is
// only measured.
func (r *deltaReader) next(d *Determinant, keep bool) {
	r.left--
	*d = Determinant{Kind: Kind(r.byte())}
	switch d.Kind {
	case KindEpoch:
		d.Epoch = types.EpochID(r.uvarint())
	case KindOrder:
		d.Channel = int32(r.varint())
	case KindTimer:
		d.Handler = int32(r.varint())
		d.Key = r.uvarint()
		d.When = r.varint()
		d.Offset = r.uvarint()
	case KindTimestamp, KindRNG, KindBufferSize:
		d.Value = r.varint()
	case KindService:
		d.ServiceID = uint16(r.uvarint())
		n := r.uvarint()
		if uint64(len(r.b)-r.i) < n {
			r.fail(errors.New("causal: truncated service payload"))
			return
		}
		r.payloadBytes += int(n)
		if keep && n > 0 {
			d.Payload = r.carve(r.b[r.i : r.i+int(n)])
		}
		r.i += int(n)
	case KindRPC:
		d.Epoch = types.EpochID(r.uvarint())
		d.Offset = r.uvarint()
	default:
		r.fail(fmt.Errorf("causal: unknown determinant kind %d", uint8(d.Kind)))
	}
}

// skip steps over the next n determinants of the current run.
func (r *deltaReader) skip(n uint64) {
	var d Determinant
	for ; n > 0 && r.err == nil; n-- {
		r.next(&d, false)
	}
}

// carve copies p into the slab and returns the copy, capped so that no
// append through it can reach a neighbour.
func (r *deltaReader) carve(p []byte) []byte {
	if cap(r.slab)-len(r.slab) < len(p) {
		r.slab = make([]byte, 0, max(len(p), r.slabHint-r.payloadBytes+len(p)))
	}
	at := len(r.slab)
	r.slab = append(r.slab, p...)
	return r.slab[at:len(r.slab):len(r.slab)]
}

// checkDelta walks a whole delta without keeping anything and returns the
// total length of its SERVICE payloads. Ingestion validates first so that
// a corrupt delta is rejected before any of it reaches a replica.
func checkDelta(b []byte) (payloadBytes int, err error) {
	rd := readDelta(b, 0)
	for rd.nextLog() {
	}
	return rd.payloadBytes, rd.err
}

// Run is a contiguous determinant run with its absolute start index.
type Run struct {
	Start uint64
	Ents  []Determinant
}

// ForwardSet is one origin task's logs as a delta carries them.
type ForwardSet struct {
	Origin types.TaskID
	Hops   int
	Logs   map[LogKey]Run
}

// DecodeDelta parses a delta into its sets: the inspectable form, for
// tests and tools. The replication path itself never builds it
// (Store.IngestDelta appends straight into the replica logs).
func DecodeDelta(b []byte) ([]ForwardSet, error) {
	payloadBytes, err := checkDelta(b)
	if err != nil {
		return nil, err
	}
	var sets []ForwardSet
	rd := readDelta(b, payloadBytes)
	for open := ^uint64(0); rd.nextLog(); {
		// rd.sets counts down as sets open: a change means a new one.
		if rd.sets != open {
			open = rd.sets
			sets = append(sets, ForwardSet{Origin: rd.origin, Hops: rd.hops, Logs: make(map[LogKey]Run)})
		}
		ents := make([]Determinant, rd.n)
		for k := range ents {
			rd.next(&ents[k], true)
		}
		sets[len(sets)-1].Logs[rd.key] = Run{Start: rd.start, Ents: ents}
	}
	return sets, rd.err
}
