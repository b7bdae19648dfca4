package statestore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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
// payload), so registered types encode through the reflection-free tier
// and anything else falls back to a gob-tagged frame. The leading 0x00
// distinguishes the frame from legacy gob images: a gob stream begins
// with a message byte count, which is never zero, so Restore/ApplyDelta
// can decode pre-binary snapshots with the old reflective path.
//
// Version 3 added the 'F' in-flight kind; the 'S'/'D' layouts are
// unchanged, so readers accept version 2 images of those kinds (the
// committed legacy baseline) alongside version-3 ones.
const (
	snapshotVersion    = 3
	minSnapshotVersion = 2
	magicKindFull      = 'S'
	magicKindDelta     = 'D'
	magicKindInFlight  = 'F'
	legacyFirstByte    = 0x00
	snapshotHeadLen    = 4
	magicChecksByte1   = 'C'
)

func appendMagic(dst []byte, kind byte) []byte {
	return append(dst, legacyFirstByte, magicChecksByte1, kind, snapshotVersion)
}

// checkMagic validates the frame header for kind and returns whether b is
// a binary frame at all (false means legacy gob).
func checkMagic(b []byte, kind byte) (bool, error) {
	if len(b) == 0 || b[0] != legacyFirstByte {
		return false, nil
	}
	if len(b) < snapshotHeadLen || b[1] != magicChecksByte1 || b[2] != kind {
		return false, fmt.Errorf("statestore: malformed snapshot header % x", b[:min(len(b), snapshotHeadLen)])
	}
	if b[3] < minSnapshotVersion || b[3] > snapshotVersion {
		return false, fmt.Errorf("statestore: unsupported snapshot version %d (want %d..%d)", b[3], minSnapshotVersion, snapshotVersion)
	}
	return true, nil
}

// sectionSize is the number of bytes appendSection writes for runs. A
// value whose codec cannot size it (codec.FramedSize < 0: a user codec
// without EncodedSize, or the gob fallback) counts as nothing, which
// leaves the fill pass to grow its buffer by append.
func sectionSize(runs []keyRun, values bool) int {
	size := codec.UvarintLen(uint64(len(runs)))
	for _, r := range runs {
		size += codec.UvarintLen(uint64(len(r.st.name))) + len(r.st.name) + codec.UvarintLen(uint64(len(r.keys)))
		for _, k := range r.keys {
			size += codec.UvarintLen(k)
			if values {
				size += max(codec.FramedSize(r.st.data[k]), 0)
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
// not parse: cut short, trailed by extra bytes, or holding a count or
// length that the bytes left cannot satisfy. It wraps the codec error
// that says which.
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

// readBinaryDelta decodes the body of a delta frame: a changes section,
// then the deletes written by appendSection without values.
func readBinaryDelta(r *frameReader) delta {
	d := delta{Changes: readStateSection(r), Deletes: make(map[string][]uint64)}
	for n := r.count(2); n > 0 && r.err == nil; n-- {
		name := string(r.bytes())
		keys := make([]uint64, r.count(1))
		for i := range keys {
			keys[i] = r.uvarint()
		}
		d.Deletes[name] = keys
	}
	return d
}

// decodeLegacySnapshot decodes a pre-binary (gob) full snapshot image.
func decodeLegacySnapshot(b []byte) (map[string]map[uint64]any, error) {
	var flat map[string]map[uint64]any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&flat); err != nil {
		return nil, fmt.Errorf("statestore: restore: %w", err)
	}
	return flat, nil
}

// decodeLegacyDelta decodes a pre-binary (gob) delta image.
func decodeLegacyDelta(b []byte) (delta, error) {
	var d delta
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&d); err != nil {
		return d, fmt.Errorf("statestore: apply delta: %w", err)
	}
	return d, nil
}
