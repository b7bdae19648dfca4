package codec

import "reflect"

// RegisteredCodecs returns the codec of every concrete type in the
// registry, built-in shapes included, for the external tests that walk
// it.
func RegisteredCodecs() map[reflect.Type]SizedCodec {
	out := make(map[reflect.Type]SizedCodec)
	for t, e := range registry.Load().byType {
		out[t] = e.c
	}
	return out
}
