package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"clonos/internal/types"
)

// builtinSamples covers every built-in tag with representative values,
// including zero values and shapes that exercise varint width edges.
func builtinSamples() []any {
	return []any{
		int64(0), int64(-1), int64(1 << 40), int64(-1 << 40),
		float64(0), float64(3.14159), float64(-1e300),
		"", "hello", strings.Repeat("x", 300),
		[]byte{}, []byte{1, 2, 3}, bytes.Repeat([]byte{7}, 1000),
		true, false,
		int(0), int(-42), int(1 << 30),
		uint64(0), uint64(1<<64 - 1),
		[]any{}, []any{int64(1), "two", 3.0, nil, []byte{4}},
		[]int64{}, []int64{-1, 0, 1 << 50},
		map[int64]any{}, map[int64]any{-5: "neg", 0: int64(0), 9: []any{true}},
		map[uint64]int64{}, map[uint64]int64{1: -1, 1 << 60: 1 << 60},
		map[string]any{}, map[string]any{"a": int64(1), "b": nil, "c": "s"},
	}
}

func TestEncodeAnyRoundTripBuiltins(t *testing.T) {
	for _, v := range builtinSamples() {
		enc, err := EncodeAny(nil, v)
		if err != nil {
			t.Fatalf("EncodeAny(%#v): %v", v, err)
		}
		got, err := DecodeAny(enc)
		if err != nil {
			t.Fatalf("DecodeAny(%#v): %v", v, err)
		}
		assertSemanticEqual(t, v, got)
	}
}

func TestEncodeAnyFramedRoundTripBuiltins(t *testing.T) {
	for _, v := range append(builtinSamples(), nil) {
		enc, err := EncodeAnyFramed(nil, v)
		if err != nil {
			t.Fatalf("EncodeAnyFramed(%#v): %v", v, err)
		}
		got, used, err := DecodeAnyFramed(enc)
		if err != nil {
			t.Fatalf("DecodeAnyFramed(%#v): %v", v, err)
		}
		if used != len(enc) {
			t.Fatalf("DecodeAnyFramed(%#v) consumed %d of %d bytes", v, used, len(enc))
		}
		assertSemanticEqual(t, v, got)
	}
}

// assertSemanticEqual compares with the convention the tier guarantees:
// empty slices/maps may decode as empty (not nil-vs-empty-identical).
func assertSemanticEqual(t *testing.T, want, got any) {
	t.Helper()
	if want == nil {
		if got != nil {
			t.Fatalf("round trip of nil gave %#v", got)
		}
		return
	}
	wv := reflect.ValueOf(want)
	if (wv.Kind() == reflect.Slice || wv.Kind() == reflect.Map) && wv.Len() == 0 {
		gv := reflect.ValueOf(got)
		if gv.Kind() != wv.Kind() || gv.Len() != 0 || gv.Type() != wv.Type() {
			t.Fatalf("round trip of %#v gave %#v", want, got)
		}
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip of %#v gave %#v", want, got)
	}
}

// regTestBlob is a byte string with a user-registered codec.
type regTestBlob []byte
type regTestBlobCodec struct{}

func (regTestBlobCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	return append(dst, v.(regTestBlob)...), nil
}
func (regTestBlobCodec) EncodedSize(v any) int        { return len(v.(regTestBlob)) }
func (regTestBlobCodec) Decode(b []byte) (any, error) { return regTestBlob(bytes.Clone(b)), nil }

// TestFramedLengthWidth crosses the 128-byte and 16 KiB boundaries of
// the frame's length varint, for a built-in codec ([]byte) and a
// registered one (regTestBlob): the length is written at final width up
// front.
func TestFramedLengthWidth(t *testing.T) {
	RegisterType(regTestBlob(nil), regTestBlobCodec{})
	for _, n := range []int{0, 1, 126, 127, 128, 129, 1 << 14, 1<<14 + 1} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i)
		}
		for _, v := range []any{payload, regTestBlob(payload)} {
			if got, want := FramedSize(v), 1+UvarintLen(uint64(n))+n; got != want {
				t.Fatalf("n=%d %T: FramedSize = %d, want %d", n, v, got, want)
			}
			// Prefix garbage ensures the frame respects the dst offset.
			enc, err := EncodeAnyFramed([]byte{0xAA, 0xBB}, v)
			if err != nil {
				t.Fatalf("n=%d %T: %v", n, v, err)
			}
			if want := 1 + UvarintLen(uint64(n)) + n; len(enc)-2 != want {
				t.Fatalf("n=%d %T: frame is %d bytes, want %d", n, v, len(enc)-2, want)
			}
			got, used, err := DecodeAnyFramed(enc[2:])
			if err != nil || used != len(enc)-2 {
				t.Fatalf("n=%d %T: decode used=%d err=%v", n, v, used, err)
			}
			if !bytes.Equal(reflect.ValueOf(got).Bytes(), payload) {
				t.Fatalf("n=%d %T: payload corrupted", n, v)
			}
		}
	}
}

func TestDecodeAnyRejectsTrailing(t *testing.T) {
	enc, err := EncodeAny(nil, int64(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAny(append(enc, 0)); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing byte after int64 not rejected: %v", err)
	}
	if _, err := DecodeAny([]byte{byte(TagNil), 1}); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing byte after nil not rejected: %v", err)
	}
}

func TestDecodeAnyUnknownTag(t *testing.T) {
	if _, err := DecodeAny([]byte{200, 1, 2}); err == nil {
		t.Fatal("unknown tag decoded without error")
	}
	if _, _, err := DecodeAnyFramed([]byte{200, 2, 1, 2}); err == nil {
		t.Fatal("unknown framed tag decoded without error")
	}
}

type regTestType struct{ A int64 }
type regTestCodec struct{}

func (regTestCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	return Int64Codec{}.EncodeAppend(dst, v.(regTestType).A)
}
func (regTestCodec) EncodedSize(v any) int { return VarintLen(v.(regTestType).A) }
func (regTestCodec) Decode(b []byte) (any, error) {
	v, err := Int64Codec{}.Decode(b)
	if err != nil {
		return nil, err
	}
	return regTestType{A: v.(int64)}, nil
}

type regTestCodec2 struct{ regTestCodec }

func TestRegisterType(t *testing.T) {
	RegisterType(regTestType{}, regTestCodec{})
	// Identical re-registration is a no-op.
	RegisterType(regTestType{}, regTestCodec{})
	// Conflicting re-registration panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("conflicting re-registration did not panic")
			}
		}()
		RegisterType(regTestType{}, regTestCodec2{})
	}()
	enc, err := EncodeAny(nil, regTestType{A: 41})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAny(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != (regTestType{A: 41}) {
		t.Fatalf("custom type round trip gave %#v", got)
	}
}

// TestReservedTag: tag 1 (once a reflective fallback's) stays unassigned,
// so every other tag keeps its number. Nothing encodes under it — an
// unregistered type is an error naming the type (statestore's
// TestUnregisteredTypeIsNamed has the table) — and a byte damaged into a
// 1 is a decode error.
func TestReservedTag(t *testing.T) {
	if TagNil != 0 || TagGob != 1 || TagInt64 != 2 || TagMapStringAny != 13 || firstCustomTag != 16 {
		t.Fatal("built-in tags renumbered")
	}
	if c := registry.Load().byTag[TagGob]; c != nil {
		t.Fatalf("reserved tag is assigned to %T", c)
	}
	if _, err := DecodeAny([]byte{byte(TagGob), 3, 1, 2}); err == nil {
		t.Error("DecodeAny accepted the reserved tag")
	}
	if _, _, err := DecodeAnyFramed([]byte{byte(TagGob), 2, 1, 2}); err == nil {
		t.Error("DecodeAnyFramed accepted the reserved tag")
	}
	type unregistered struct{ S string }
	if enc, err := EncodeAny(nil, unregistered{}); err == nil || !strings.Contains(err.Error(), "codec.unregistered") {
		t.Errorf("unregistered type encoded to % x, err %v", enc, err)
	}
}

// TestAutoMatchesEncodeAny pins Auto as a plain alias of the tier.
func TestAutoMatchesEncodeAny(t *testing.T) {
	for _, v := range []any{int64(5), "s", []byte{1}} {
		a, _ := Auto{}.EncodeAppend(nil, v)
		b, _ := EncodeAny(nil, v)
		if !bytes.Equal(a, b) {
			t.Fatalf("Auto encoding diverges from EncodeAny for %#v", v)
		}
	}
}

// TestEncodeAnyDeterministic pins byte determinism for map composites:
// fingerprints hash these bytes at snapshot and restore time.
func TestEncodeAnyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := map[string]any{}
	m2 := map[uint64]int64{}
	for i := 0; i < 200; i++ {
		m[strings.Repeat("k", rng.Intn(10)+1)+string(rune('a'+rng.Intn(26)))] = int64(i)
		m2[uint64(rng.Intn(1000))] = int64(i)
	}
	for _, v := range []any{m, m2} {
		first, err := EncodeAny(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			again, err := EncodeAny(nil, v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, again) {
				t.Fatalf("map encoding nondeterministic for %T", v)
			}
		}
	}
}

// TestCompositeCountBounded: a composite whose leading element count
// exceeds the bytes behind it is rejected before the count sizes an
// allocation (it used to reach makeslice and panic).
func TestCompositeCountBounded(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, c := range []Codec{AnySliceCodec{}, Int64SliceCodec{}, MapInt64AnyCodec{}, MapUint64Int64Codec{}, MapStringAnyCodec{}} {
		if _, err := c.Decode(huge); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("%T: count 1<<62 with no elements: %v, want ErrShortBuffer", c, err)
		}
		if _, err := c.Decode([]byte{3, 0}); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("%T: count 3 with one byte left: %v, want ErrShortBuffer", c, err)
		}
	}
}

// TestBuiltinTagsGolden pins the wire bytes of one record per built-in
// tag through Auto to what the last commit with a gob tier produced (hex
// captured there): retiring tag 1 renumbered nothing, so edges,
// snapshot frames and fingerprints of every in-tree type are unchanged.
func TestBuiltinTagsGolden(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{nil, "00000005002aa41300"},
		{int64(-77), "00000007002aa413029901"},
		{2.5, "0000000d002aa413034004000000000000"},
		{"hello", "0000000a002aa4130468656c6c6f"},
		{[]byte{9, 8, 7}, "00000008002aa41305090807"},
		{true, "00000006002aa4130601"},
		{int(-42), "00000006002aa4130753"},
		{uint64(1 << 40), "0000000b002aa41308808080808020"},
		{[]any{int64(1), "two", nil}, "00000010002aa4130903020102040374776f0000"},
		{[]int64{-1, 0, 1 << 50}, "00000010002aa4130a0301008080808080808004"},
		{map[int64]any{-5: "neg", 9: []any{true}}, "00000013002aa4130b020904036e656712090401060101"},
		{map[uint64]int64{1: -1, 1 << 60: 1 << 60}, "0000001a002aa4130c020101808080808080808010808080808080808020"},
		{map[string]any{"a": int64(1), "b": nil}, "0000000f002aa4130d02016102010201620000"},
	} {
		got, err := EncodeElement(nil, types.Record(42, 1234, tc.v), Auto{})
		if err != nil {
			t.Fatalf("%T: %v", tc.v, err)
		}
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("%T: wire bytes %x, want %s", tc.v, got, tc.want)
		}
	}
}
