package statestore

import (
	"encoding/binary"
	"fmt"

	"clonos/internal/types"
)

// In-flight section wire format (version 3, kind 'F'):
//
//	magic    0x00 'C' 'F' 3
//	uvarint nChannels, then per channel:
//	  uvarint edge | uvarint from | uvarint to       (the ChannelID)
//	  uvarint len(prefix) | prefix                   (deserializer tail)
//	  uvarint nMsgs, then per message:
//	    uvarint seq | uvarint epoch |
//	    uvarint len(data) | data | uvarint len(delta) | delta
//
// This is the logged pre-barrier input of an unaligned checkpoint: for
// every channel whose barrier had not arrived when the task snapshotted,
// the partial element bytes already inside the deserializer (prefix) and
// every pre-barrier message consumed between the snapshot and that
// channel's barrier. Restore feeds the prefix back into the channel's
// deserializer and preloads the messages ahead of live replay, so the
// restored task re-consumes exactly the bytes the checkpoint covered.

// InFlightMessage is one captured in-flight buffer: the original seq and
// epoch stamps plus private copies of the payload and the piggybacked
// determinant delta.
type InFlightMessage struct {
	Seq   uint64
	Epoch types.EpochID
	Data  []byte
	Delta []byte
}

// InFlightChannel is the logged input of one not-yet-barriered channel.
type InFlightChannel struct {
	Channel types.ChannelID
	// Prefix is the deserializer's pending tail at snapshot time: the
	// head bytes of an element that straddled the last pre-snapshot
	// message boundary.
	Prefix []byte
	// Msgs are the pre-barrier messages consumed after the snapshot, in
	// delivery order, ending with the message that carried the barrier
	// (or end-of-stream) for this channel.
	Msgs []InFlightMessage
}

// EncodeInFlight serializes the logged channels as a version-3 'F' frame.
func EncodeInFlight(chans []InFlightChannel) []byte {
	size := snapshotHeadLen + 8
	for i := range chans {
		size += 32 + len(chans[i].Prefix)
		for j := range chans[i].Msgs {
			size += 24 + len(chans[i].Msgs[j].Data) + len(chans[i].Msgs[j].Delta)
		}
	}
	out := appendMagic(make([]byte, 0, size), magicKindInFlight)
	out = binary.AppendUvarint(out, uint64(len(chans)))
	for i := range chans {
		ch := &chans[i]
		out = binary.AppendUvarint(out, uint64(uint32(ch.Channel.Edge)))
		out = binary.AppendUvarint(out, uint64(uint32(ch.Channel.From)))
		out = binary.AppendUvarint(out, uint64(uint32(ch.Channel.To)))
		out = binary.AppendUvarint(out, uint64(len(ch.Prefix)))
		out = append(out, ch.Prefix...)
		out = binary.AppendUvarint(out, uint64(len(ch.Msgs)))
		for j := range ch.Msgs {
			m := &ch.Msgs[j]
			out = binary.AppendUvarint(out, m.Seq)
			out = binary.AppendUvarint(out, uint64(m.Epoch))
			out = binary.AppendUvarint(out, uint64(len(m.Data)))
			out = append(out, m.Data...)
			out = binary.AppendUvarint(out, uint64(len(m.Delta)))
			out = append(out, m.Delta...)
		}
	}
	return out
}

// DecodeInFlight parses a version-3 'F' frame. Byte slices in the result
// alias b; callers that outlive b must copy. A truncated or corrupt
// section is rejected with an error — restore must never silently drop
// logged input.
func DecodeInFlight(b []byte) ([]InFlightChannel, error) {
	if len(b) < snapshotHeadLen || b[0] != magicByte0 || b[1] != magicByte1 || b[2] != magicKindInFlight {
		return nil, fmt.Errorf("statestore: malformed in-flight section header % x", b[:min(len(b), snapshotHeadLen)])
	}
	if b[3] != snapshotVersion {
		return nil, fmt.Errorf("statestore: unsupported in-flight section version %d (want %d)", b[3], snapshotVersion)
	}
	r := frameReader{b: b, i: snapshotHeadLen}
	// A channel takes at least 5 bytes (three ids, two counts), a message 4.
	out := make([]InFlightChannel, 0, r.count(5))
	for n := cap(out); n > 0 && r.err == nil; n-- {
		var ch InFlightChannel
		edge, from, to := r.uvarint(), r.uvarint(), r.uvarint()
		ch.Channel = types.ChannelID{Edge: types.EdgeID(int32(uint32(edge))), From: int32(uint32(from)), To: int32(uint32(to))}
		ch.Prefix = r.bytes()
		ch.Msgs = make([]InFlightMessage, 0, r.count(4))
		for m := cap(ch.Msgs); m > 0 && r.err == nil; m-- {
			msg := InFlightMessage{Seq: r.uvarint(), Epoch: types.EpochID(r.uvarint())}
			msg.Data, msg.Delta = r.bytes(), r.bytes()
			ch.Msgs = append(ch.Msgs, msg)
		}
		out = append(out, ch)
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("statestore: in-flight section: %w", err)
	}
	return out, nil
}
