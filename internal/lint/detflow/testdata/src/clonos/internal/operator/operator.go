// Package operator carries the hand-written state codecs, so it gets the
// map-iteration-order rule: persisted bytes must not depend on Go's
// randomized map walk.
package operator

import "clonos/internal/codec"

// badMapCodec encodes entries in map order.
func badMapCodec(dst []byte, m map[int64]int64) []byte {
	for k, v := range m { // want `map iteration order reaches EncodeAppend`
		dst, _ = codec.EncodeAppend(dst, k)
		dst, _ = codec.EncodeAppend(dst, v)
	}
	return dst
}

// okSortedCodec is the sanctioned sorted-keys idiom.
func okSortedCodec(dst []byte, m map[int64]int64) []byte {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortInt64s(keys)
	for _, k := range keys {
		dst, _ = codec.EncodeAppend(dst, k)
		dst, _ = codec.EncodeAppend(dst, m[k])
	}
	return dst
}

// okMapSize sums sizes in map order: a sum does not depend on it.
func okMapSize(m map[int64]int64) int {
	n := 0
	for k, v := range m {
		n += codec.FramedSize(k) + codec.FramedSize(v)
	}
	return n
}

func sortInt64s(k []int64) {}
