package nexmark

// Differential tests for the NEXMark codecs: the hand-written binary
// encoding must round-trip every value exactly, agree with encoding/gob
// as a reflective oracle (decode(encode(v)) identical under both), and
// reject truncated or trailing bytes. Event generation is seeded, so a
// failure reproduces.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"clonos/internal/codec"
)

func init() {
	// The oracle encodes each value inside an interface field; gob wants
	// the concrete shapes registered for that. Only this test uses gob.
	gob.Register(Event{})
	gob.Register(Person{})
	gob.Register(Auction{})
	gob.Register(Bid{})
}

type gobBox struct{ V any }

// gobRoundTrip is the oracle: v through encoding/gob and back.
func gobRoundTrip(v any) (any, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobBox{V: v}); err != nil {
		return nil, err
	}
	var out gobBox
	err := gob.NewDecoder(&buf).Decode(&out)
	return out.V, err
}

func randString(rng *rand.Rand, max int) string {
	n := rng.Intn(max)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(rune('!' + rng.Intn(94)))
	}
	return sb.String()
}

func randPerson(rng *rand.Rand) Person {
	return Person{
		ID: rng.Uint64(), Name: randString(rng, 20), Email: randString(rng, 30),
		City: randString(rng, 15), State: randString(rng, 3),
		DateTime: rng.Int63() - rng.Int63(), Extra: randString(rng, 50),
	}
}

func randAuction(rng *rand.Rand) Auction {
	return Auction{
		ID: rng.Uint64(), ItemName: randString(rng, 20), Description: randString(rng, 80),
		InitialBid: rng.Int63(), Reserve: -rng.Int63(), DateTime: rng.Int63(),
		Expires: rng.Int63(), Seller: rng.Uint64(), Category: rng.Uint64() % 1000,
		Extra: randString(rng, 50),
	}
}

func randBid(rng *rand.Rand) Bid {
	return Bid{
		Auction: rng.Uint64(), Bidder: rng.Uint64(), Price: rng.Int63(),
		DateTime: rng.Int63() - rng.Int63(), Extra: randString(rng, 50),
	}
}

func randEvent(rng *rand.Rand) Event {
	switch rng.Intn(3) {
	case 0:
		p := randPerson(rng)
		return Event{Kind: KindPerson, Person: &p}
	case 1:
		a := randAuction(rng)
		return Event{Kind: KindAuction, Auction: &a}
	default:
		b := randBid(rng)
		return Event{Kind: KindBid, Bid: &b}
	}
}

// TestTypedMatchesGobSemantics round-trips each value through its
// registered codec (resolved the way an Auto edge resolves it) and
// through the gob oracle and requires identical results — a hand-written
// codec chooses the wire format, never the value semantics.
func TestTypedMatchesGobSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	typedC := codec.Auto{}
	for i := 0; i < 500; i++ {
		var v any
		switch i % 4 {
		case 0:
			v = randEvent(rng)
		case 1:
			v = randPerson(rng)
		case 2:
			v = randAuction(rng)
		default:
			v = randBid(rng)
		}
		tEnc, err := typedC.EncodeAppend(nil, v)
		if err != nil {
			t.Fatalf("typed encode %#v: %v", v, err)
		}
		tDec, err := typedC.Decode(tEnc)
		if err != nil {
			t.Fatalf("typed decode %#v: %v", v, err)
		}
		gDec, err := gobRoundTrip(v)
		if err != nil {
			t.Fatalf("gob round trip %#v: %v", v, err)
		}
		if !reflect.DeepEqual(tDec, v) {
			t.Fatalf("typed round trip diverged:\n  in:  %#v\n  out: %#v", v, tDec)
		}
		if !reflect.DeepEqual(tDec, gDec) {
			t.Fatalf("typed and gob decode disagree:\n  typed: %#v\n  gob:   %#v", tDec, gDec)
		}
	}
}

// TestEventCodecRejectsMutations pins strictness: every truncation must
// fail, and a trailing byte must fail with ErrTrailingBytes.
func TestEventCodecRejectsMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := EventCodec{}
	for i := 0; i < 100; i++ {
		e := randEvent(rng)
		enc, err := c.EncodeAppend(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := c.Decode(enc[:cut]); err == nil {
				// A truncated Extra (last field, length-prefixed) can only
				// fail; any success is a framing hole.
				t.Fatalf("truncated encoding (len %d of %d) decoded without error", cut, len(enc))
			}
		}
		if _, err := c.Decode(append(append([]byte(nil), enc...), 0)); !errors.Is(err, codec.ErrTrailingBytes) {
			t.Fatalf("trailing byte not rejected: %v", err)
		}
	}
}

// TestEventEncodeDeterministic pins re-encoding determinism for values
// the engine itself produced: encode → decode → encode must be
// byte-identical (guided replay re-encodes logged values and compares).
func TestEventEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	c := EventCodec{}
	for i := 0; i < 200; i++ {
		enc, err := c.EncodeAppend(nil, randEvent(rng))
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		re, err := c.EncodeAppend(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(enc, re) {
			t.Fatalf("encode->decode->encode not byte-identical:\n  in:  %x\n  out: %x", enc, re)
		}
	}
}

// FuzzEventCodecRoundTrip feeds arbitrary bytes to Decode, which must
// never panic; where they decode, the value must survive a semantic
// re-encode round trip. (Byte identity is not required here: Uvarint
// tolerates non-minimal varints, so foreign bytes can decode to a value
// whose canonical encoding is shorter.)
func FuzzEventCodecRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(44))
	c := EventCodec{}
	for i := 0; i < 8; i++ {
		enc, err := c.EncodeAppend(nil, randEvent(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := c.Decode(b)
		if err != nil {
			return
		}
		re, err := c.EncodeAppend(nil, v)
		if err != nil {
			t.Fatalf("re-encode of decoded value failed: %v", err)
		}
		v2, err := c.Decode(re)
		if err != nil {
			t.Fatalf("decode of re-encoded value failed: %v", err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("semantic round trip diverged:\n  first:  %#v\n  second: %#v", v, v2)
		}
	})
}
