// Package nexmark implements the NEXMark benchmark (Tucker et al.) used in
// the paper's evaluation: the event model (persons, auctions, bids), a
// deterministic rate-controlled generator, a compact binary codec, and the
// queries Q1–Q8 and Q11–Q14 (Q10 is excluded by the paper itself) built as
// dataflow graphs on the engine.
package nexmark

import (
	"encoding/binary"
	"fmt"

	"clonos/internal/codec"
)

// EventKind discriminates the three NEXMark event types.
type EventKind uint8

const (
	// KindPerson is a new-person event.
	KindPerson EventKind = iota
	// KindAuction is a new-auction event.
	KindAuction
	// KindBid is a bid event.
	KindBid
)

// Person is a new marketplace user.
type Person struct {
	ID    uint64
	Name  string
	Email string
	City  string
	State string
	// DateTime is the event time in Unix ms.
	DateTime int64
	// Extra pads the record to realistic NEXMark sizes.
	Extra string
}

// Auction is a newly listed item.
type Auction struct {
	ID          uint64
	ItemName    string
	Description string
	InitialBid  int64
	Reserve     int64
	DateTime    int64
	// Expires is the auction close time in Unix ms.
	Expires  int64
	Seller   uint64
	Category uint64
	Extra    string
}

// Bid is one bid on an auction.
type Bid struct {
	Auction  uint64
	Bidder   uint64
	Price    int64
	DateTime int64
	Extra    string
}

// Event is the union flowing on the NEXMark stream.
type Event struct {
	Kind    EventKind
	Person  *Person
	Auction *Auction
	Bid     *Bid
}

// Time returns the event's own timestamp.
func (e Event) Time() int64 {
	switch e.Kind {
	case KindPerson:
		return e.Person.DateTime
	case KindAuction:
		return e.Auction.DateTime
	default:
		return e.Bid.DateTime
	}
}

func init() {
	// Every NEXMark shape that crosses an edge or lands in keyed state
	// encodes through its hand-written codec: Auto edges, snapshots and
	// fingerprints.
	codec.RegisterType(Event{}, EventCodec{})
	codec.RegisterType(Person{}, PersonCodec{})
	codec.RegisterType(Auction{}, AuctionCodec{})
	codec.RegisterType(Bid{}, BidCodec{})
}

// EventCodec is a hand-written binary codec for Event values.
type EventCodec struct{}

func putString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func stringSize(s string) int { return codec.UvarintLen(uint64(len(s))) + len(s) }

func getString(b []byte) (string, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", 0, fmt.Errorf("nexmark: truncated string")
	}
	return string(b[sz : sz+int(n)]), sz + int(n), nil
}

// encodePerson appends p's field encoding (no kind byte).
func encodePerson(dst []byte, p *Person) []byte {
	dst = binary.AppendUvarint(dst, p.ID)
	dst = putString(dst, p.Name)
	dst = putString(dst, p.Email)
	dst = putString(dst, p.City)
	dst = putString(dst, p.State)
	dst = binary.AppendVarint(dst, p.DateTime)
	return putString(dst, p.Extra)
}

func personSize(p *Person) int {
	return codec.UvarintLen(p.ID) + stringSize(p.Name) + stringSize(p.Email) + stringSize(p.City) +
		stringSize(p.State) + codec.VarintLen(p.DateTime) + stringSize(p.Extra)
}

// encodeAuction appends a's field encoding (no kind byte).
func encodeAuction(dst []byte, a *Auction) []byte {
	dst = binary.AppendUvarint(dst, a.ID)
	dst = putString(dst, a.ItemName)
	dst = putString(dst, a.Description)
	dst = binary.AppendVarint(dst, a.InitialBid)
	dst = binary.AppendVarint(dst, a.Reserve)
	dst = binary.AppendVarint(dst, a.DateTime)
	dst = binary.AppendVarint(dst, a.Expires)
	dst = binary.AppendUvarint(dst, a.Seller)
	dst = binary.AppendUvarint(dst, a.Category)
	return putString(dst, a.Extra)
}

func auctionSize(a *Auction) int {
	return codec.UvarintLen(a.ID) + stringSize(a.ItemName) + stringSize(a.Description) +
		codec.VarintLen(a.InitialBid) + codec.VarintLen(a.Reserve) + codec.VarintLen(a.DateTime) +
		codec.VarintLen(a.Expires) + codec.UvarintLen(a.Seller) + codec.UvarintLen(a.Category) + stringSize(a.Extra)
}

// encodeBid appends b's field encoding (no kind byte).
func encodeBid(dst []byte, b *Bid) []byte {
	dst = binary.AppendUvarint(dst, b.Auction)
	dst = binary.AppendUvarint(dst, b.Bidder)
	dst = binary.AppendVarint(dst, b.Price)
	dst = binary.AppendVarint(dst, b.DateTime)
	return putString(dst, b.Extra)
}

func bidSize(b *Bid) int {
	return codec.UvarintLen(b.Auction) + codec.UvarintLen(b.Bidder) + codec.VarintLen(b.Price) +
		codec.VarintLen(b.DateTime) + stringSize(b.Extra)
}

// EncodeAppend implements codec.Codec.
func (EventCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	e, ok := v.(Event)
	if !ok {
		return dst, fmt.Errorf("nexmark: EventCodec got %T", v)
	}
	dst = append(dst, byte(e.Kind))
	switch e.Kind {
	case KindPerson:
		return encodePerson(dst, e.Person), nil
	case KindAuction:
		return encodeAuction(dst, e.Auction), nil
	case KindBid:
		return encodeBid(dst, e.Bid), nil
	default:
		return dst, fmt.Errorf("nexmark: unknown event kind %d", e.Kind)
	}
}

// EncodedSize implements codec.Sizer.
func (EventCodec) EncodedSize(v any) int {
	e, ok := v.(Event)
	if !ok {
		return -1
	}
	switch e.Kind {
	case KindPerson:
		return 1 + personSize(e.Person)
	case KindAuction:
		return 1 + auctionSize(e.Auction)
	case KindBid:
		return 1 + bidSize(e.Bid)
	default:
		return -1
	}
}

// cursor walks a byte slice during decode, latching the first error.
type cursor struct {
	b   []byte
	i   int
	err error
}

func (c *cursor) uv() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.i:])
	if n <= 0 {
		c.err = fmt.Errorf("nexmark: truncated event")
		return 0
	}
	c.i += n
	return v
}

func (c *cursor) sv() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.i:])
	if n <= 0 {
		c.err = fmt.Errorf("nexmark: truncated event")
		return 0
	}
	c.i += n
	return v
}

func (c *cursor) str() string {
	if c.err != nil {
		return ""
	}
	s, n, err := getString(c.b[c.i:])
	if err != nil {
		c.err = err
		return ""
	}
	c.i += n
	return s
}

func decodePerson(c *cursor) Person {
	return Person{
		ID: c.uv(), Name: c.str(), Email: c.str(), City: c.str(),
		State: c.str(), DateTime: c.sv(), Extra: c.str(),
	}
}

func decodeAuction(c *cursor) Auction {
	return Auction{
		ID: c.uv(), ItemName: c.str(), Description: c.str(),
		InitialBid: c.sv(), Reserve: c.sv(), DateTime: c.sv(),
		Expires: c.sv(), Seller: c.uv(), Category: c.uv(), Extra: c.str(),
	}
}

func decodeBid(c *cursor) Bid {
	return Bid{
		Auction: c.uv(), Bidder: c.uv(), Price: c.sv(),
		DateTime: c.sv(), Extra: c.str(),
	}
}

// Decode implements codec.Codec.
func (EventCodec) Decode(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("nexmark: empty event")
	}
	c := &cursor{b: b, i: 1}
	var e Event
	switch EventKind(b[0]) {
	case KindPerson:
		p := decodePerson(c)
		e = Event{Kind: KindPerson, Person: &p}
	case KindAuction:
		a := decodeAuction(c)
		e = Event{Kind: KindAuction, Auction: &a}
	case KindBid:
		bid := decodeBid(c)
		e = Event{Kind: KindBid, Bid: &bid}
	default:
		return nil, fmt.Errorf("nexmark: unknown event kind %d", b[0])
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.i != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	return e, nil
}

// PersonCodec is the binary codec for bare Person values (the typed
// snapshot tier; events on edges use EventCodec).
type PersonCodec struct{}

// EncodeAppend implements codec.Codec.
func (PersonCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	p, ok := v.(Person)
	if !ok {
		return dst, fmt.Errorf("nexmark: PersonCodec got %T", v)
	}
	return encodePerson(dst, &p), nil
}

// EncodedSize implements codec.Sizer.
func (PersonCodec) EncodedSize(v any) int {
	p, ok := v.(Person)
	if !ok {
		return -1
	}
	return personSize(&p)
}

// Decode implements codec.Codec.
func (PersonCodec) Decode(b []byte) (any, error) {
	c := &cursor{b: b}
	p := decodePerson(c)
	if c.err != nil {
		return nil, c.err
	}
	if c.i != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	return p, nil
}

// AuctionCodec is the binary codec for bare Auction values.
type AuctionCodec struct{}

// EncodeAppend implements codec.Codec.
func (AuctionCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	a, ok := v.(Auction)
	if !ok {
		return dst, fmt.Errorf("nexmark: AuctionCodec got %T", v)
	}
	return encodeAuction(dst, &a), nil
}

// EncodedSize implements codec.Sizer.
func (AuctionCodec) EncodedSize(v any) int {
	a, ok := v.(Auction)
	if !ok {
		return -1
	}
	return auctionSize(&a)
}

// Decode implements codec.Codec.
func (AuctionCodec) Decode(b []byte) (any, error) {
	c := &cursor{b: b}
	a := decodeAuction(c)
	if c.err != nil {
		return nil, c.err
	}
	if c.i != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	return a, nil
}

// BidCodec is the binary codec for bare Bid values.
type BidCodec struct{}

// EncodeAppend implements codec.Codec.
func (BidCodec) EncodeAppend(dst []byte, v any) ([]byte, error) {
	bid, ok := v.(Bid)
	if !ok {
		return dst, fmt.Errorf("nexmark: BidCodec got %T", v)
	}
	return encodeBid(dst, &bid), nil
}

// EncodedSize implements codec.Sizer.
func (BidCodec) EncodedSize(v any) int {
	bid, ok := v.(Bid)
	if !ok {
		return -1
	}
	return bidSize(&bid)
}

// Decode implements codec.Codec.
func (BidCodec) Decode(b []byte) (any, error) {
	c := &cursor{b: b}
	bid := decodeBid(c)
	if c.err != nil {
		return nil, c.err
	}
	if c.i != len(b) {
		return nil, codec.ErrTrailingBytes
	}
	return bid, nil
}
