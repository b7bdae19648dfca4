package statestore

// Framing tests for the version-3 in-flight section of unaligned
// checkpoints: byte round-trip, pinned rejection of malformed/truncated/
// foreign-version frames, and the empty-section edge case.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clonos/internal/codec"
	"clonos/internal/types"
)

func sampleInFlight() []InFlightChannel {
	return []InFlightChannel{
		{
			Channel: types.ChannelID{Edge: 3, From: 1, To: 0},
			Prefix:  []byte{0xde, 0xad, 0xbe},
			Msgs: []InFlightMessage{
				{Seq: 41, Epoch: 7, Data: []byte("first captured buffer"), Delta: []byte{1, 2, 3}},
				{Seq: 42, Epoch: 7, Data: []byte("second"), Delta: nil},
			},
		},
		{
			// A channel whose capture holds only a deserializer prefix.
			Channel: types.ChannelID{Edge: 0, From: 0, To: 1},
			Prefix:  []byte{0xff},
		},
	}
}

func TestInFlightRoundTrip(t *testing.T) {
	in := sampleInFlight()
	enc := EncodeInFlight(in)
	if len(enc) < snapshotHeadLen || enc[0] != magicByte0 || enc[2] != magicKindInFlight || enc[3] != snapshotVersion {
		t.Fatalf("in-flight frame header wrong: % x", enc[:snapshotHeadLen])
	}
	out, err := DecodeInFlight(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Normalize nil-vs-empty before comparing: the wire format cannot
	// distinguish them and neither can restore.
	for i := range out {
		if len(out[i].Prefix) == 0 {
			out[i].Prefix = nil
		}
		if len(out[i].Msgs) == 0 {
			out[i].Msgs = nil
		}
		for j := range out[i].Msgs {
			if len(out[i].Msgs[j].Data) == 0 {
				out[i].Msgs[j].Data = nil
			}
			if len(out[i].Msgs[j].Delta) == 0 {
				out[i].Msgs[j].Delta = nil
			}
		}
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\n in  %#v\n out %#v", in, out)
	}
}

func TestInFlightEmptyRoundTrip(t *testing.T) {
	enc := EncodeInFlight(nil)
	out, err := DecodeInFlight(enc)
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("empty section decoded %d channels", len(out))
	}
}

// TestInFlightMalformedHeaderRejected pins the header rejection message:
// a corrupt in-flight section must error, never silently drop input.
func TestInFlightMalformedHeaderRejected(t *testing.T) {
	_, err := DecodeInFlight([]byte{0x00, 'C', 'X', snapshotVersion, 0})
	if err == nil || !strings.Contains(err.Error(), "malformed in-flight section header") {
		t.Fatalf("malformed header not rejected: %v", err)
	}
	if _, err := DecodeInFlight(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
	// A full-snapshot frame is not an in-flight section.
	if _, err := DecodeInFlight([]byte{0x00, 'C', magicKindFull, snapshotVersion, 0}); err == nil {
		t.Fatal("full-snapshot magic accepted as in-flight section")
	}
}

// TestInFlightVersionRejected pins the version rejection message. Unlike
// the 'S'/'D' kinds there is no older in-flight layout to accept: the
// kind itself was introduced in version 3.
func TestInFlightVersionRejected(t *testing.T) {
	enc := EncodeInFlight(sampleInFlight())
	enc[3] = snapshotVersion - 1
	_, err := DecodeInFlight(enc)
	want := fmt.Sprintf("statestore: unsupported in-flight section version %d (want %d)", snapshotVersion-1, snapshotVersion)
	if err == nil || err.Error() != want {
		t.Fatalf("rejection message %q, want pinned %q", err, want)
	}
}

// TestInFlightTruncatedRejected proves every truncation point surfaces
// codec.ErrShortBuffer rather than a partial decode.
func TestInFlightTruncatedRejected(t *testing.T) {
	enc := EncodeInFlight(sampleInFlight())
	for cut := snapshotHeadLen; cut < len(enc); cut++ {
		if _, err := DecodeInFlight(enc[:cut]); !errors.Is(err, codec.ErrShortBuffer) {
			t.Fatalf("cut at %d/%d: got %v, want ErrShortBuffer", cut, len(enc), err)
		}
	}
}

// TestInFlightTrailingBytesRejected proves appended garbage is detected.
func TestInFlightTrailingBytesRejected(t *testing.T) {
	enc := append(EncodeInFlight(sampleInFlight()), 0x7f)
	if _, err := DecodeInFlight(enc); !errors.Is(err, codec.ErrTrailingBytes) {
		t.Fatalf("trailing byte not rejected: %v", err)
	}
}
