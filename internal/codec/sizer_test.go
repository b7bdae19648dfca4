package codec_test

// The Sizer contract, checked over the whole registry: this external test
// package links every in-tree package that registers a typed codec, so
// codec.RegisteredCodecs sees what a running job sees.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"clonos/internal/codec"
	"clonos/internal/nexmark"
	_ "clonos/internal/operator"
	_ "clonos/internal/synthetic"
)

// noCodec is a type nobody registered: it cannot be sized or encoded.
type noCodec struct{ S string }

// inTree lists the registry without the codecs that codec's own tests
// register (regTest*) — whether they are there depends on test order.
func inTree() (types []reflect.Type, codecs map[reflect.Type]codec.SizedCodec) {
	codecs = codec.RegisteredCodecs()
	for t, c := range codecs {
		if strings.HasPrefix(reflect.TypeOf(c).Name(), "regTest") {
			delete(codecs, t)
			continue
		}
		types = append(types, t)
	}
	// Map order must not leak into the seeded value stream.
	sort.Slice(types, func(i, j int) bool { return types[i].String() < types[j].String() })
	return types, codecs
}

// TestEveryInTreeCodecIsSizer: that a registered codec has EncodedSize is
// RegisterType's parameter type. What a type cannot say is that the walk
// below covers what a running job registers, and that each codec sizes
// its own type and refuses every other.
func TestEveryInTreeCodecIsSizer(t *testing.T) {
	types, codecs := inTree()
	if len(types) < 20 {
		t.Fatalf("registry holds %d types: the operator, nexmark and synthetic registrations are not linked in", len(types))
	}
	g := &gen{r: rand.New(rand.NewSource(14)), types: types}
	for _, typ := range types {
		if v := g.registered(typ, 1); codecs[typ].EncodedSize(v) < 0 {
			t.Errorf("%v: EncodedSize refuses its own type (%#v)", typ, v)
		}
		if n := codecs[typ].EncodedSize(noCodec{}); n >= 0 {
			t.Errorf("%v: EncodedSize of a foreign type = %d, want negative", typ, n)
		}
	}
}

// gen draws random values by reflection.
type gen struct {
	r     *rand.Rand
	types []reflect.Type
	// unregistered lets interface-typed slots hold a noCodec value.
	unregistered bool
}

// integer spreads magnitudes over every varint width.
func (g *gen) integer() uint64 { return g.r.Uint64() >> uint(g.r.Intn(64)) }

func (g *gen) length(max int) int {
	if g.r.Intn(8) == 0 {
		return 0
	}
	return g.r.Intn(max + 1)
}

// registered draws a value of a registered type, repaired where the type
// has an invariant its codec relies on.
func (g *gen) registered(t reflect.Type, depth int) any {
	v := g.value(t, depth).Interface()
	if e, ok := v.(nexmark.Event); ok {
		e.Kind %= 3 // the codec encodes the payload Kind names
		return e
	}
	return v
}

func (g *gen) any(depth int) any {
	if depth <= 0 {
		return int64(g.integer())
	}
	switch n := g.r.Intn(len(g.types) + 2); {
	case n == len(g.types):
		return nil
	case n == len(g.types)+1:
		if g.unregistered {
			return noCodec{S: "x"}
		}
		return nil
	default:
		return g.registered(g.types[n], depth-1)
	}
}

func (g *gen) value(t reflect.Type, depth int) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(g.r.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := int64(g.integer() >> 1)
		if g.r.Intn(2) == 0 {
			n = -n
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(g.integer())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(g.r.NormFloat64())
	case reflect.String:
		b := make([]byte, g.length(300))
		g.r.Read(b)
		v.SetString(string(b))
	case reflect.Slice:
		n := g.length(4)
		if t.Elem().Kind() == reflect.Uint8 {
			n = g.length(20000) // cross the 128 B and 16 KiB length widths
		}
		if n > 0 || g.r.Intn(2) == 0 {
			v.Set(reflect.MakeSlice(t, n, n))
		}
		for i := 0; i < n; i++ {
			v.Index(i).Set(g.value(t.Elem(), depth))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(t))
		for n := g.length(4); n > 0; n-- {
			v.SetMapIndex(g.value(t.Key(), depth), g.value(t.Elem(), depth))
		}
	case reflect.Pointer:
		v.Set(reflect.New(t.Elem()))
		v.Elem().Set(g.value(t.Elem(), depth))
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			v.Field(i).Set(g.value(t.Field(i).Type, depth))
		}
	case reflect.Interface:
		if x := g.any(depth); x != nil {
			v.Set(reflect.ValueOf(x))
		}
	default:
		panic("sizer_test: no generator for " + t.String())
	}
	return v
}

// refFramed frames v from its unframed encoding: tag | uvarint(len) |
// payload, the format EncodeAnyFramed must produce.
func refFramed(t *testing.T, v any) []byte {
	t.Helper()
	enc, err := codec.EncodeAny(nil, v)
	if err != nil {
		t.Fatalf("EncodeAny(%T): %v", v, err)
	}
	out := binary.AppendUvarint([]byte{enc[0]}, uint64(len(enc)-1))
	return append(out, enc[1:]...)
}

// TestEncodedSizeMatchesEncoding is the property: for every registered
// type (the built-in scalars and composites are registry entries too) and
// random values of it, EncodedSize is exactly what EncodeAppend writes,
// FramedSize what EncodeAnyFramed writes, and the frame is byte-identical
// to the one assembled from the unframed encoding.
func TestEncodedSizeMatchesEncoding(t *testing.T) {
	types, codecs := inTree()
	g := &gen{r: rand.New(rand.NewSource(15)), types: types}
	for _, typ := range types {
		c := codecs[typ]
		for i := 0; i < 200; i++ {
			v := g.registered(typ, 3)
			enc, err := c.EncodeAppend(nil, v)
			if err != nil {
				t.Fatalf("%v: EncodeAppend(%#v): %v", typ, v, err)
			}
			if n := c.EncodedSize(v); n != len(enc) {
				t.Fatalf("%v: EncodedSize = %d, EncodeAppend wrote %d bytes for %#v", typ, n, len(enc), v)
			}
			framed, err := codec.EncodeAnyFramed([]byte{0xAA}, v)
			if err != nil {
				t.Fatalf("%v: EncodeAnyFramed: %v", typ, err)
			}
			if n := codec.FramedSize(v); n != len(framed)-1 {
				t.Fatalf("%v: FramedSize = %d, EncodeAnyFramed wrote %d bytes", typ, n, len(framed)-1)
			}
			if !bytes.Equal(framed[1:], refFramed(t, v)) {
				t.Fatalf("%v: frame differs from tag|uvarint(len)|payload for %#v", typ, v)
			}
		}
	}
}

// TestUnsizedValueInsideComposite: one value of an unregistered type
// makes every registered composite around it unencodable — it sizes
// negative and the encode names the type — while every value drawn
// without one still frames to tag|uvarint(len)|payload.
func TestUnsizedValueInsideComposite(t *testing.T) {
	types, _ := inTree()
	g := &gen{r: rand.New(rand.NewSource(16)), types: types, unregistered: true}
	refused := 0
	for i := 0; i < 2000; i++ {
		v := g.any(3)
		framed, err := codec.EncodeAnyFramed(nil, v)
		if n := codec.FramedSize(v); (n < 0) != (err != nil) {
			t.Fatalf("FramedSize = %d but EncodeAnyFramed returned %v for %#v", n, err, v)
		}
		if err != nil {
			refused++
			if !strings.Contains(err.Error(), "codec_test.noCodec") {
				t.Fatalf("error %q does not name the unregistered type in %#v", err, v)
			}
			continue
		}
		if !bytes.Equal(framed, refFramed(t, v)) {
			t.Fatalf("frame differs from tag|uvarint(len)|payload for %#v", v)
		}
	}
	if refused == 0 {
		t.Fatal("no drawn value held an unregistered element: the error path went untested")
	}
}

// TestVarintLen pins the two length helpers against encoding/binary.
func TestVarintLen(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 10000; i++ {
		u := r.Uint64() >> uint(r.Intn(64))
		if got, want := codec.UvarintLen(u), len(binary.AppendUvarint(nil, u)); got != want {
			t.Fatalf("UvarintLen(%d) = %d, want %d", u, got, want)
		}
		for _, s := range []int64{int64(u), -int64(u), int64(u >> 1), -int64(u >> 1)} {
			if got, want := codec.VarintLen(s), len(binary.AppendVarint(nil, s)); got != want {
				t.Fatalf("VarintLen(%d) = %d, want %d", s, got, want)
			}
		}
	}
}
