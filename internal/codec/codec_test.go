package codec

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"clonos/internal/types"
)

func roundTrip(t *testing.T, e types.Element, c Codec) types.Element {
	t.Helper()
	b, err := EncodeElement(nil, e, c)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(b) < 4 {
		t.Fatalf("encoded %d bytes, want >= 4", len(b))
	}
	got, err := DecodeElement(b[4:], c)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestRecordRoundTripInt64(t *testing.T) {
	e := types.Record(42, 1234, int64(-77))
	got := roundTrip(t, e, Int64Codec{})
	if got.Kind != types.KindRecord || got.Key != 42 || got.Timestamp != 1234 || got.Value.(int64) != -77 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestRecordRoundTripString(t *testing.T) {
	e := types.Record(7, -5, "hello stream")
	got := roundTrip(t, e, StringCodec{})
	if got.Value.(string) != "hello stream" || got.Timestamp != -5 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestRecordRoundTripFloat64(t *testing.T) {
	e := types.Record(1, 2, 3.14159)
	got := roundTrip(t, e, Float64Codec{})
	if got.Value.(float64) != 3.14159 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestRecordRoundTripBytes(t *testing.T) {
	payload := []byte{0, 1, 2, 255}
	got := roundTrip(t, types.Record(0, 0, payload), BytesCodec{})
	b := got.Value.([]byte)
	if string(b) != string(payload) {
		t.Fatalf("round trip mismatch: %v", b)
	}
}

// jsonCodec is a user codec written against Codec alone: no EncodedSize.
// That is all an edge asks of a codec pinned to it (edges are unframed);
// only RegisterType needs a SizedCodec.
type jsonCodec struct{}

func (jsonCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

func (jsonCodec) Decode(b []byte) (v any, err error) { return v, json.Unmarshal(b, &v) }

func TestRecordRoundTripJSON(t *testing.T) {
	got := roundTrip(t, types.Record(3, 9, map[string]any{"a": "b"}), jsonCodec{})
	m := got.Value.(map[string]any)
	if m["a"] != "b" {
		t.Fatalf("round trip mismatch: %v", m)
	}
}

func TestWatermarkRoundTrip(t *testing.T) {
	got := roundTrip(t, types.Watermark(99), Int64Codec{})
	if got.Kind != types.KindWatermark || got.Timestamp != 99 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestBarrierRoundTrip(t *testing.T) {
	got := roundTrip(t, types.Barrier(17), Int64Codec{})
	if got.Kind != types.KindBarrier || got.Checkpoint != 17 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestEndOfStreamRoundTrip(t *testing.T) {
	got := roundTrip(t, types.EndOfStream(), Int64Codec{})
	if got.Kind != types.KindEndOfStream {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestWrongTypeErrors(t *testing.T) {
	if _, err := (Int64Codec{}).EncodeAppend(nil, "nope"); err == nil {
		t.Fatal("Int64Codec accepted a string")
	}
	if _, err := (Float64Codec{}).EncodeAppend(nil, 3); err == nil {
		t.Fatal("Float64Codec accepted an int")
	}
	if _, err := (StringCodec{}).EncodeAppend(nil, 3); err == nil {
		t.Fatal("StringCodec accepted an int")
	}
	if _, err := (BytesCodec{}).EncodeAppend(nil, "s"); err == nil {
		t.Fatal("BytesCodec accepted a string")
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, err := DecodeElement(nil, Int64Codec{}); err == nil {
		t.Fatal("decoding empty input succeeded")
	}
	if _, err := DecodeElement([]byte{byte(types.KindWatermark)}, Int64Codec{}); err == nil {
		t.Fatal("decoding truncated watermark succeeded")
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	if _, err := DecodeElement([]byte{200, 1, 2}, Int64Codec{}); err == nil {
		t.Fatal("decoding unknown kind succeeded")
	}
}

func TestEncodeAppendsToDst(t *testing.T) {
	prefix := []byte{9, 9}
	b, err := EncodeElement(prefix, types.Record(1, 1, int64(1)), Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 9 || b[1] != 9 {
		t.Fatal("prefix clobbered")
	}
}

func TestQuickInt64RoundTrip(t *testing.T) {
	f := func(key uint64, ts, v int64) bool {
		got := roundTrip(t, types.Record(key, ts, v), Int64Codec{})
		return got.Key == key && got.Timestamp == ts && got.Value.(int64) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(key uint64, ts int64, s string) bool {
		got := roundTrip(t, types.Record(key, ts, s), StringCodec{})
		return got.Value.(string) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFloat64RoundTrip(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true // NaN != NaN; bits still round-trip
		}
		got := roundTrip(t, types.Record(0, 0, v), Float64Codec{})
		return got.Value.(float64) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
