package causal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"clonos/internal/types"
)

// Delta wire format, piggybacked on every network buffer (§4.3):
//
//	numSets uvarint
//	per set (one run of one origin task's log):
//	  origin vertex varint | origin subtask varint | hops uvarint
//	  firstAbs uvarint | n uvarint | n determinants
//
// A task keeps one log, so a set is one run. Sets are ordered by origin
// with the sender's own set first. The count precedes what it counts, so
// an encoder decides what to send before writing any of it
// (Manager.DeltaFor), and deltaReader is the one parser: Store.IngestDelta
// and DecodeDelta both iterate it.

func appendSetHeader(dst []byte, origin types.TaskID, hops int) []byte {
	dst = binary.AppendVarint(dst, int64(origin.Vertex))
	dst = binary.AppendVarint(dst, int64(origin.Subtask))
	return binary.AppendUvarint(dst, uint64(hops))
}

var errTruncated = errors.New("causal: truncated delta")

// deltaReader iterates a delta in place: nextRun steps to the next set's
// run and sets the header fields; next decodes that run's determinants one
// at a time, and whatever the caller leaves undecoded nextRun steps over.
// The first error sticks, and everything after it reads as zero.
type deltaReader struct {
	b   []byte
	i   int
	err error

	sets uint64 // sets after the current one
	left uint64 // determinants of the current run not yet decoded

	// Header of the current run.
	origin types.TaskID
	hops   int
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

// nextRun advances to the next set's run, reporting false at the end of
// the delta or on error.
func (r *deltaReader) nextRun() bool {
	r.skip(r.left)
	if r.sets == 0 || r.err != nil {
		return false
	}
	r.sets--
	r.origin = types.TaskID{Vertex: types.VertexID(r.varint()), Subtask: int32(r.varint())}
	r.hops = int(r.uvarint())
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
	case KindTimestamp, KindRNG:
		d.Value = r.varint()
	case KindBufferSize:
		d.Output = types.ChannelID{Edge: types.EdgeID(r.varint()), From: int32(r.varint()), To: int32(r.varint())}
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
	for rd.nextRun() {
	}
	return rd.payloadBytes, rd.err
}

// Run is a contiguous determinant run with its absolute start index.
type Run struct {
	Start uint64
	Ents  []Determinant
}

// ForwardSet is one run of an origin task's log as a delta carries it.
type ForwardSet struct {
	Origin types.TaskID
	Hops   int
	Run
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
	for rd.nextRun() {
		ents := make([]Determinant, rd.n)
		for k := range ents {
			rd.next(&ents[k], true)
		}
		sets = append(sets, ForwardSet{Origin: rd.origin, Hops: rd.hops, Run: Run{Start: rd.start, Ents: ents}})
	}
	return sets, rd.err
}
