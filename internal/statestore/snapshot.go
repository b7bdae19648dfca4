package statestore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"clonos/internal/codec"
)

// Snapshot wire format (version 3, the binary frame):
//
//	magic    0x00 'C' ('S' full | 'D' delta | 'F' in-flight) version
//	full:    uvarint nStates, then per state (sorted by name):
//	         uvarint len(name) | name | uvarint nEntries,
//	         then per entry (sorted by key): uvarint key | framed value
//	delta:   the changes section in full-snapshot layout, then a deletes
//	         section: uvarint nStates, per state name | uvarint nKeys |
//	         sorted uvarint keys
//	in-flight: see inflight.go — the logged pre-barrier input of an
//	         unaligned checkpoint, one section per not-yet-barriered
//	         channel (deserializer prefix + captured messages).
//
// Values are codec.EncodeAnyFramed frames (type tag | uvarint len |
// payload) written by the registered codec of each value's type. This is
// the only image format: bytes that do not start with the magic of the
// expected kind are ErrCorrupt.
//
// No image outlives its process, so a reader accepts exactly the version
// it writes.
const (
	snapshotVersion   = 3
	magicKindFull     = 'S'
	magicKindDelta    = 'D'
	magicKindInFlight = 'F'
	magicByte0        = 0x00
	magicByte1        = 'C'
	snapshotHeadLen   = 4
)

func appendMagic(dst []byte, kind byte) []byte {
	return append(dst, magicByte0, magicByte1, kind, snapshotVersion)
}

// checkMagic validates the frame header for kind.
func checkMagic(b []byte, kind byte) error {
	if len(b) < snapshotHeadLen || b[0] != magicByte0 || b[1] != magicByte1 || b[2] != kind {
		return fmt.Errorf("%w: malformed snapshot header % x", ErrCorrupt, b[:min(len(b), snapshotHeadLen)])
	}
	if b[3] != snapshotVersion {
		return fmt.Errorf("statestore: unsupported snapshot version %d (want %d)", b[3], snapshotVersion)
	}
	return nil
}

// sectionSize is the number of bytes appendSection writes for runs. A
// value that cannot be encoded (codec.FramedSize is -1: its type, or one
// nested in it, has no registered codec) leaves the sum short, and still
// positive — its key is at least one byte — which is of no consequence:
// appendSection returns the error that names the value.
func sectionSize(runs []keyRun, values bool) int {
	size := codec.UvarintLen(uint64(len(runs)))
	for _, r := range runs {
		size += codec.UvarintLen(uint64(len(r.st.name))) + len(r.st.name) + codec.UvarintLen(uint64(len(r.keys)))
		for _, k := range r.keys {
			size += codec.UvarintLen(k)
			if values {
				size += codec.FramedSize(r.st.data[k])
			}
		}
	}
	return size
}

// appendSection encodes one planned section (see Store.plan): sorted
// names and sorted keys, so identical logical state yields identical
// bytes — the audit fingerprint and guided replay both rely on that.
// With values it is a name→(key→value) section, without a deletes one.
func appendSection(dst []byte, runs []keyRun, values bool) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(runs)))
	var err error
	for _, r := range runs {
		dst = binary.AppendUvarint(dst, uint64(len(r.st.name)))
		dst = append(dst, r.st.name...)
		dst = binary.AppendUvarint(dst, uint64(len(r.keys)))
		for _, k := range r.keys {
			dst = binary.AppendUvarint(dst, k)
			if !values {
				continue
			}
			if dst, err = codec.EncodeAnyFramed(dst, r.st.data[k]); err != nil {
				return nil, fmt.Errorf("statestore: encode %s[%d]: %w", r.st.name, k, err)
			}
		}
	}
	return dst, nil
}

// ErrCorrupt marks a snapshot, delta or in-flight frame whose bytes do
// not parse: not a frame of the expected kind at all, cut short, trailed
// by extra bytes, or holding a count or length that the bytes left
// cannot satisfy. It wraps the codec error that says which.
var ErrCorrupt = errors.New("statestore: corrupt frame")

// frameReader walks a frame's bytes, latching the first error; after
// one, every read returns zero.
type frameReader struct {
	b   []byte
	i   int
	err error
}

func (r *frameReader) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%w at byte %d: %w", ErrCorrupt, r.i, err)
	}
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.b[r.i:])
	if w <= 0 {
		r.fail(codec.ErrShortBuffer)
		return 0
	}
	r.i += w
	return v
}

// count reads a number of elements that take at least minBytes each. A
// count the remaining bytes cannot hold is corrupt: it is never trusted
// for an allocation.
func (r *frameReader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64((len(r.b)-r.i)/minBytes) {
		r.fail(codec.ErrShortBuffer)
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string, aliasing the frame.
func (r *frameReader) bytes() []byte {
	n := r.count(1)
	r.i += n
	return r.b[r.i-n : r.i]
}

// done returns the latched error, or ErrCorrupt for unread bytes.
func (r *frameReader) done() error {
	if r.i != len(r.b) {
		r.fail(codec.ErrTrailingBytes)
	}
	return r.err
}

// readStateSection decodes a section written by appendSection with
// values.
func readStateSection(r *frameReader) map[string]map[uint64]any {
	out := make(map[string]map[uint64]any)
	for n := r.count(2); n > 0 && r.err == nil; n-- {
		name := string(r.bytes())
		entries := r.count(3)
		data := make(map[uint64]any, entries)
		for ; entries > 0 && r.err == nil; entries-- {
			key := r.uvarint()
			v, used, err := codec.DecodeAnyFramed(r.b[r.i:])
			if err != nil {
				r.fail(fmt.Errorf("decode %s[%d]: %w", name, key, err))
			}
			r.i += used
			data[key] = v
		}
		out[name] = data
	}
	return out
}

// readDeletes decodes a section written by appendSection without values.
func readDeletes(r *frameReader) map[string][]uint64 {
	out := make(map[string][]uint64)
	for n := r.count(2); n > 0 && r.err == nil; n-- {
		name := string(r.bytes())
		keys := make([]uint64, r.count(1))
		for i := range keys {
			keys[i] = r.uvarint()
		}
		out[name] = keys
	}
	return out
}
