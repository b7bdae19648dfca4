// Stub of the codec package: any call into it is a replay-sensitive sink
// for the detflow taint tier.
package codec

// EncodeAppend mimics the real encode entry point.
func EncodeAppend(dst []byte, v any) ([]byte, error) { return dst, nil }

// FramedSize mimics the size pass: it returns a number, not bytes.
func FramedSize(v any) int { return 0 }
