package audit

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"clonos/internal/codec"
	"clonos/internal/statestore"
)

// Fingerprint computes a deterministic digest of a task's recoverable
// state: keyed state, encoded timer state, and the watermark-merge state
// (per-channel watermarks in input order plus the merged watermark).
//
// The keyed state is walked in sorted (name, key) order (Store.Walk, the
// order and the key scratch Snapshot itself uses) and each value is
// hashed as its registry frame (codec.EncodeAnyFramed) into a reused
// scratch buffer; a nil value encodes as its own tag, so no sentinel is
// needed. The registered codecs emit map contents in sorted key order,
// so the bytes are deterministic; a correct restore reproduces the
// identical walk, and snapshot-time and restore-time fingerprints match
// bit-for-bit.
//
// The zero return value is reserved for "no fingerprint recorded"
// (TaskSnapshot.Fingerprint of audit-off snapshots); a digest that lands
// on 0 is nudged to 1.
func Fingerprint(store *statestore.Store, timers []byte, chanWms []int64, curWm int64) (uint64, error) {
	h := fnv.New64a()
	var scratch [8]byte
	writeU64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	var buf []byte
	err := store.Walk(func(ks *statestore.KeyedState, keys []uint64) error {
		io.WriteString(h, ks.Name())
		for _, key := range keys {
			writeU64(key)
			var err error
			if buf, err = codec.EncodeAnyFramed(buf[:0], ks.Get(key)); err != nil {
				return fmt.Errorf("audit: fingerprint %s[%d]: %w", ks.Name(), key, err)
			}
			h.Write(buf)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	h.Write(timers)
	for _, wm := range chanWms {
		writeU64(uint64(wm))
	}
	writeU64(uint64(curWm))
	fp := h.Sum64()
	if fp == 0 {
		fp = 1
	}
	return fp, nil
}
