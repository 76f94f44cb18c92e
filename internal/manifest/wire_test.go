package manifest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pano/internal/geom"
)

// edgeCodes are codes of step s the round trip must carry: both ends of
// its range, zero and its neighbours, and the codes of 1 and 100 (the
// a=1, b=0 fallback of FitPowerLUT and the PSPNR cap).
func edgeCodes(s step) []int64 {
	return []int64{s.minCode(), s.minCode() + 1, s.maxCode(), s.maxCode() - 1,
		max(s.minCode(), -1), 0, 1, s.code(1), s.code(100)}
}

var edgeInts = []int{0, 1, -1, 63, 64, -64, -65, 8191, 8192, 1 << 31, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}

// genCode draws a code of step s: an edge code, or one near the code of
// a plausible value.
func genCode(rng *rand.Rand, s step) int64 {
	if rng.Intn(3) == 0 {
		e := edgeCodes(s)
		return e[rng.Intn(len(e))]
	}
	return s.code(plausible(rng, s))
}

// plausible draws a value step s holds: a size above zero, any other
// float of either sign.
func plausible(rng *rand.Rand, s step) float64 {
	x := rng.NormFloat64() * 1e3
	if s.log {
		return math.Abs(x)
	}
	return x
}

// eachFloat calls f on every tile and object float of c, column by
// column as the wire lays them out, with its column.
func eachFloat(c *Chunk, f func(col *column, x *float64)) {
	for j := range tileCols {
		for i := range c.Tiles {
			f(&tileCols[j], c.Tiles[i].floats()[j])
		}
	}
	for k := range objectCols {
		for i := range c.Objects {
			f(&objectCols[k], c.Objects[i].floats()[k])
		}
	}
}

func genInt(rng *rand.Rand) int {
	if rng.Intn(3) == 0 {
		return edgeInts[rng.Intn(len(edgeInts))]
	}
	return rng.Intn(4096) - 1024
}

// genFloats sets every tile and object float of c to the value of a
// random code of its column's step: on the wire's grid, anywhere in its
// range.
func genFloats(rng *rand.Rand, c *Chunk) {
	eachFloat(c, func(col *column, x *float64) { *x = col.step.value(genCode(rng, col.step)) })
}

// genVideo draws a manifest of the given shape — tiles[k] tiles and
// objects[k] samples in chunk k — with every other field random and
// every float on the wire's grid. It is not valid and need not be: the
// codec is total over Video.
func genVideo(rng *rand.Rand, tiles, objects []int) *Video {
	v := &Video{
		Name: "video-\x00-é", Genre: "Sports",
		W: genInt(rng), H: genInt(rng), FPS: genInt(rng), ChunkSec: rng.NormFloat64(),
		Live: rng.Intn(2) == 0, Seq: int64(genInt(rng)), FirstChunk: genInt(rng), WindowChunks: genInt(rng),
	}
	for k := range tiles {
		c := Chunk{Index: genInt(rng)}
		for i := 0; i < tiles[k]; i++ {
			c.Tiles = append(c.Tiles, Tile{Rect: geom.Rect{X0: genInt(rng), Y0: genInt(rng), X1: genInt(rng), Y1: genInt(rng)}})
		}
		c.Objects = make([]ObjectSample, objects[k])
		genFloats(rng, &c)
		v.Chunks = append(v.Chunks, c)
	}
	return v
}

// sameBits is reflect.DeepEqual with floats compared by their bits (so
// -0 ≠ 0 and a NaN equals itself) and nil slices equal to empty ones.
// It walks the structs themselves, not the codec's field order, so a
// float the codec forgot is a difference.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return sameBits(a.Elem(), b.Elem())
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

func sameVideo(a, b *Video) bool { return sameBits(reflect.ValueOf(a), reflect.ValueOf(b)) }

// wireCases are the shapes every property below runs over: the sample,
// the degenerate ones (no chunks, a chunk without tiles, no objects,
// tile counts that differ per chunk), live fields with Seq at the top
// of its range, and seeded random shapes.
func wireCases() map[string]*Video {
	rng := rand.New(rand.NewSource(2019))
	live := genVideo(rng, []int{2, 2}, []int{1, 0})
	live.Live, live.Seq, live.FirstChunk, live.WindowChunks = true, math.MaxInt64-1, 1, 8
	onGrid := genVideo(rng, []int{5}, []int{1})
	for i := range onGrid.Chunks[0].Tiles {
		onGrid.Chunks[0].Tiles[i].Rect = geom.Rect{X0: 20 * i, Y0: -40, X1: 20*i + 60, Y1: 100}
	}
	zeroRects := &Video{Chunks: []Chunk{{Tiles: []Tile{leastTile(), leastTile(), leastTile()}}}}
	cases := map[string]*Video{
		"sample":     sampleVideo(),
		"on a grid":  onGrid,
		"zero rects": zeroRects,
		"zero":       {},
		"no chunks":  genVideo(rng, nil, nil),
		"no tiles":   genVideo(rng, []int{0}, []int{0}),
		"no objects": genVideo(rng, []int{3, 3}, []int{0, 0}),
		"ragged":     genVideo(rng, []int{4, 0, 1, 7}, []int{0, 5, 0, 2}),
		"only objs":  genVideo(rng, []int{0, 0}, []int{3, 1}),
		"live":       live,
		"clock 1/3":  {ChunkSec: 1.0 / 3}, // the header's float is binary64
	}
	for i := 0; i < 40; i++ {
		n := rng.Intn(6)
		tiles, objects := make([]int, n), make([]int, n)
		for k := range tiles {
			tiles[k], objects[k] = rng.Intn(9), rng.Intn(4)
		}
		cases[fmt.Sprintf("random %d", i)] = genVideo(rng, tiles, objects)
	}
	return cases
}

// TestWireRoundTrip: Unmarshal(Marshal(v)) is v to the bit, Marshal
// fills the buffer WireLen sized exactly, a second Marshal is the same
// bytes (two origins, one ETag), and Encode/Decode are the same codec
// behind io.
func TestWireRoundTrip(t *testing.T) {
	for name, v := range wireCases() {
		wire := v.Marshal()
		if len(wire) != v.WireLen() || cap(wire) != len(wire) {
			t.Errorf("%s: %d bytes in a buffer of %d, WireLen %d", name, len(wire), cap(wire), v.WireLen())
		}
		if !bytes.Equal(wire, v.Marshal()) {
			t.Errorf("%s: two encodings differ", name)
		}
		back, err := Unmarshal(wire)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !sameVideo(v, back) {
			t.Errorf("%s: changed in the round trip:\n%+v\n%+v", name, v, back)
		}
		var buf bytes.Buffer
		if err := v.Encode(&buf); err != nil || !bytes.Equal(buf.Bytes(), wire) {
			t.Errorf("%s: Encode wrote %d bytes (%v), Marshal %d", name, buf.Len(), err, len(wire))
		}
		if back, err = Decode(&buf); err != nil || !sameVideo(v, back) {
			t.Errorf("%s: Decode: %v", name, err)
		}
	}
}

// TestUnmarshalRejectsEveryTruncation: no proper prefix of an encoding
// is an encoding, and no extension either.
func TestUnmarshalRejectsEveryTruncation(t *testing.T) {
	for name, v := range wireCases() {
		wire := v.Marshal()
		for n := 0; n < len(wire); n++ {
			if _, err := Unmarshal(wire[:n]); err == nil {
				t.Fatalf("%s: the first %d of %d bytes decoded", name, n, len(wire))
			}
		}
		if _, err := Unmarshal(append(wire[:len(wire):len(wire)], 0)); err == nil {
			t.Errorf("%s: a trailing byte decoded", name)
		}
	}
}

// TestMarshalRoundsToTheSteps: a manifest off the wire's grid comes
// back as RoundToWire makes it, and RoundToWire puts it on the grid for
// good — rounding twice is rounding once.
func TestMarshalRoundsToTheSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	v := genVideo(rng, []int{3, 1}, []int{2, 0})
	for k := range v.Chunks {
		eachFloat(&v.Chunks[k], func(col *column, x *float64) { *x = plausible(rng, col.step) })
	}
	back, err := Unmarshal(v.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if sameVideo(v, back) {
		t.Fatal("float64s off the wire's grid survived the wire unchanged")
	}
	for k := range v.Chunks {
		v.Chunks[k].RoundToWire()
	}
	if !sameVideo(v, back) {
		t.Errorf("the wire rounded differently from RoundToWire:\n%+v\n%+v", v, back)
	}
	for k := range back.Chunks {
		back.Chunks[k].RoundToWire()
	}
	if !sameVideo(v, back) {
		t.Error("RoundToWire moved a float already on the grid")
	}
}

// TestStepCodes: on every step of the wire, and on coarser and finer
// ones, a code's value codes back to itself and is representable; a
// size rounds up to at most one step above, every other float to the
// nearest step; and what the range cannot hold is not representable,
// takes the reserved code past the range and is left as it is by round.
func TestStepCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range FieldGroups() {
		for _, prec := range []int{g.Prec, 1, g.Prec + 9} {
			s := g.step(prec)
			codes := edgeCodes(s)
			for i := 0; i < 200; i++ {
				codes = append(codes, genCode(rng, s))
			}
			for _, c := range codes {
				if x := s.value(c); s.code(x) != c || !s.representable(x) {
					t.Errorf("%s at %d: code %d is %v, which codes to %d (representable %v)", g.Name, prec, c, x, s.code(x), s.representable(x))
				}
			}
			for i := 0; i < 200; i++ {
				x := math.Abs(rng.NormFloat64()) * math.Pow(10, float64(rng.Intn(9)-3))
				if !g.Log && rng.Intn(2) == 0 {
					x = -x
				}
				r := s.value(s.code(x))
				if g.Log {
					if next := s.value(s.code(x) + 1); r < x || next <= r || r > x*(1+math.Ldexp(1, 1-prec)) {
						t.Errorf("%s at %d: %v rounds to %v", g.Name, prec, x, r)
					}
				} else if math.Abs(r-x) > math.Ldexp(0.5, -prec) {
					t.Errorf("%s at %d: %v rounds to %v", g.Name, prec, x, r)
				}
			}
			past := math.Nextafter(s.value(s.maxCode()), math.Inf(1))
			if !g.Log {
				past = math.Ldexp(maxFixedCode+2, -prec)
			}
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), past, -past}
			if g.Log {
				bad = append(bad, 0, -1)
			}
			for _, x := range bad {
				if s.representable(x) || s.code(x) != s.maxCode()+1 || math.Float64bits(s.round(x)) != math.Float64bits(x) {
					t.Errorf("%s at %d: %v representable %v, code %d, rounds to %v", g.Name, prec, x, s.representable(x), s.code(x), s.round(x))
				}
			}
		}
	}
}

// TestColumnsCoverEveryFloat: the section's columns carry every float
// of a Tile and an ObjectSample once, as the reflection of the structs
// counts them, and each group's Round reaches exactly its columns.
func TestColumnsCoverEveryFloat(t *testing.T) {
	var floats func(reflect.Type) int
	floats = func(ty reflect.Type) int {
		switch ty.Kind() {
		case reflect.Float64:
			return 1
		case reflect.Array:
			return ty.Len() * floats(ty.Elem())
		case reflect.Struct:
			n := 0
			for i := 0; i < ty.NumField(); i++ {
				n += floats(ty.Field(i).Type)
			}
			return n
		}
		return 0
	}
	if got, want := tileFloats, floats(reflect.TypeOf(Tile{})); got != want {
		t.Errorf("%d tile columns, a Tile has %d floats", got, want)
	}
	if got, want := objectFloats, floats(reflect.TypeOf(ObjectSample{})); got != want {
		t.Errorf("%d object columns, an ObjectSample has %d floats", got, want)
	}
	c := Chunk{Tiles: make([]Tile, 1), Objects: make([]ObjectSample, 1)}
	seen := map[*float64]string{}
	eachFloat(&c, func(col *column, x *float64) {
		if prev, ok := seen[x]; ok {
			t.Errorf("%s and %s carry one float", prev, col.name)
		}
		seen[x] = col.name
	})
	if len(seen) != tileFloats+objectFloats {
		t.Errorf("the columns reach %d floats", len(seen))
	}
	// Each group's Round reaches exactly its columns: at a precision of
	// 1, a step of 1/2, every float of 0.3 it reaches moves.
	for _, g := range FieldGroups() {
		for x := range seen {
			*x = 0.3
		}
		g.Round(&c, 1)
		eachFloat(&c, func(col *column, x *float64) {
			if moved := *x != 0.3; moved != (col.group == g.index) {
				t.Errorf("%s's Round: %s moved %v", g.Name, col.name, moved)
			}
		})
	}
}

// splice returns wire with the n bytes at off replaced by with.
func splice(wire []byte, off, n int, with ...byte) []byte {
	out := append([]byte{}, wire[:off]...)
	out = append(out, with...)
	return append(out, wire[off+n:]...)
}

// leastTile is a zero Tile but for its sizes, which are the least one,
// 2^-64 bits: every float of it takes code 0. A size of 0 is not
// representable.
func leastTile() Tile {
	var t Tile
	for l := range t.Bits {
		t.Bits[l] = 0x1p-64
	}
	return t
}

// oneChunk is a manifest of one chunk with one leastTile and one zero
// object sample, and where its section's parts start: the zero Video's
// header (magic, version, 18 bytes: two empty strings, three zero ints,
// ChunkSec, the live flag, three zero ints), the chunk count, then a
// one-byte section length, the index, the tile and object counts, the
// grid (1), and a head — base 0, width 0 — for each of the 37 columns,
// whose codes pack to no bits, so the section ends at its last head.
func oneChunk() (wire []byte, sec, grid, heads int) {
	c := Chunk{Tiles: []Tile{leastTile()}, Objects: make([]ObjectSample, 1)}
	wire = (&Video{Chunks: []Chunk{c}}).Marshal()
	hdr := len((&Video{}).Marshal()) - 1 // offset of the chunk count
	sec = hdr + 2                        // the section's first byte, the index
	return wire, sec, sec + 3, sec + 4
}

// withPacked returns a oneChunk encoding whose column j has width w and
// whose section ends with the packed bytes p (the section length byte
// follows).
func withPacked(j int, w byte, p ...byte) []byte {
	wire, sec, _, heads := oneChunk()
	out := splice(wire, heads+2*j+1, 1, w)
	out = append(out, p...)
	out[sec-1] += byte(len(p))
	return out
}

// floorPadded is a oneChunk encoding with 15 object samples, whose
// section the floor pads by one byte, set to pad: 0 is the canonical
// encoding, anything else is refused.
func floorPadded(pad byte) []byte {
	wire, sec, _, _ := oneChunk()
	wire = splice(wire, sec+2, 1, 15)
	wire[sec-1]++
	return append(wire, pad)
}

// malformed returns inputs Unmarshal must refuse, by name.
func malformed() map[string][]byte {
	zero := (&Video{}).Marshal()
	one, sec, grid, heads := oneChunk()
	hdr := sec - 2
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	secLen := int(one[sec-1])
	bitsCol := rectColumns + 3 // Bits[0], a log column
	lumaCol := rectColumns     // AvgLuma, a fixed-point column
	// edit splices one and keeps its section length right.
	edit := func(in []byte, off, n int, with ...byte) []byte {
		out := splice(in, off, n, with...)
		out[sec-1] += byte(len(with) - n)
		return out
	}
	code := func(c int64) []byte { return binary.AppendVarint(nil, c) }
	bitsStep := wireStep(groupBits)
	maxSize := bitsStep.maxCode()
	return map[string][]byte{
		"wrong magic":           splice(zero, 0, 1, 'Q'),
		"json":                  []byte(`{"name":"x"}`),
		"version 0":             splice(zero, 4, 1, 0),
		"version 2":             splice(zero, 4, 1, 2),
		"version 4":             splice(zero, 4, 1, 4),
		"trailing garbage":      append(zero[:len(zero):len(zero)], "garbage"...),
		"padded varint":         splice(zero, 5, 1, 0x80, 0x00),
		"varint past 64 bits":   splice(zero, 5, 1, bytes.Repeat([]byte{0xff}, 11)...),
		"name longer than rest": splice(zero, 5, 1, 0x7f),
		"live flag 2":           splice(zero, 5+2+3+8, 1, 2),
		"chunk count 2^64-1":    splice(zero, hdr, 1, huge...),
		"chunk count 2":         splice(one, hdr, 1, 2),
		"section length +1":     splice(one, sec-1, 1, byte(secLen+1)),
		"section length -1":     splice(one, sec-1, 1, byte(secLen-1)),
		"section length 2^64-1": splice(one, sec-1, 1, huge...),
		"tile count 2^64-1":     splice(one, sec+1, 1, huge...),
		"tile count past floor": splice(one, sec+1, 1, byte(secLen/minTileBytes+1)),
		"object count 2^64-1":   splice(one, sec+2, 1, huge...),
		"object count 0":        splice(one, sec+2, 1, 0),
		"grid 0":                splice(one, grid, 1, 0),
		"grid 2 on zero rects":  splice(one, grid, 1, 2),
		"padded grid varint":    edit(one, grid, 1, 0x81, 0x00),
		"width 65":              splice(one, heads+1, 1, 65),
		"width too wide":        withPacked(0, 1, 0x00),
		"base above least code": withPacked(0, 1, 0x01),
		"pad bits set":          withPacked(0, 1, 0x81),
		"padded base varint":    edit(one, heads, 1, 0x80, 0x00),
		"fixed code 2^53+1":     edit(one, heads+2*lumaCol, 1, code(maxFixedCode+1)...),
		"fixed code -2^53-1":    edit(one, heads+2*lumaCol, 1, code(-maxFixedCode-1)...),
		"size code -1":          edit(one, heads+2*bitsCol, 1, code(-1)...),
		"size code past max":    edit(one, heads+2*bitsCol, 1, code(maxSize+1)...),
		"size delta past zero":  edit(one, heads+2*(bitsCol+1), 1, code(1)...),
		"offset past int64":     splice(withPacked(0, 64, bytes.Repeat([]byte{0xff}, 8)...), heads, 1, code(1)...),
		"rect past int64":       edit(splice(one, grid, 1, 2), heads, 1, code(1<<62)...),
		"floor pad set":         floorPadded(1),
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	if _, err := Unmarshal(floorPadded(0)); err != nil {
		t.Errorf("a section padded to its floor: %v", err)
	}
	for name, in := range malformed() {
		if v, err := Unmarshal(in); err == nil {
			t.Errorf("%s: decoded to %+v", name, v)
		}
	}
	for name, want := range map[string]error{
		"padded varint": errVarint, "varint past 64 bits": errVarint, "padded grid varint": errVarint, "padded base varint": errVarint,
		"chunk count 2^64-1": errTruncated, "tile count 2^64-1": errTruncated, "name longer than rest": errTruncated,
		"tile count past floor": errTruncated,
		"grid 0":                errPacking, "grid 2 on zero rects": errPacking, "width 65": errPacking,
		"width too wide": errPacking, "base above least code": errPacking, "pad bits set": errPacking,
		"fixed code 2^53+1": errRange, "fixed code -2^53-1": errRange, "size code -1": errRange,
		"size code past max": errRange, "size delta past zero": errRange, "offset past int64": errRange,
		"rect past int64": errRange, "floor pad set": errPacking,
	} {
		if _, err := Unmarshal(malformed()[name]); !errors.Is(err, want) {
			t.Errorf("%s: %v, want %v", name, err, want)
		}
	}
}

// FuzzDecode: Unmarshal never panics, never allocates more than a
// constant times its input (every count is checked against the bytes
// left, at a section's floor per row, before make), and whatever it
// accepts re-encodes to exactly the input — the encoding is canonical —
// and Validate is total over it. The committed seeds under
// testdata/fuzz/FuzzDecode (seedOutcomes) are an encoding cut at each
// section boundary, a truncated section, the forged counts, varints and
// packings of malformed, a live manifest, a tile at each column's
// extreme code, a zero LUT coefficient and a version-2 encoding.
func FuzzDecode(f *testing.F) {
	for _, v := range wireCases() {
		f.Add(v.Marshal())
	}
	for _, in := range malformed() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var v *Video
		var err error
		allocated := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err = Unmarshal(in)
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		// A 256-byte Tile per 16 bytes of section floor is the worst
		// ratio; the slack covers the Video and a formatted error. TotalAlloc
		// is the process's, so a reading over the limit is taken again:
		// another goroutine's allocation does not repeat, the decoder's
		// does.
		limit := uint64(16*len(in) + 4096)
		got := allocated()
		for retry := 0; got > limit && retry < 3; retry++ {
			got = min(got, allocated())
		}
		if got > limit {
			t.Fatalf("%d bytes allocated decoding %d (limit %d)", got, len(in), limit)
		}
		if err != nil {
			return
		}
		if out := v.Marshal(); !bytes.Equal(out, in) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(in), len(out))
		}
		_ = v.Validate() // total over what the decoder accepts
	})
}

// seedOutcomes is what each committed FuzzDecode seed must meet: the
// error Unmarshal refuses it with, or for the seeds it accepts, what
// Validate says. A seed cut at a section boundary keeps meeting the
// check its name says it reaches; a file not listed here is a crasher.
// The float-* seeds are what binary32's specials became: an infinity is
// a code past its step's range, and so is a NaN, which the encoder
// writes as the reserved code; a −0 goes as 0 and a subnormal as the
// step's nearest value.
var seedOutcomes = map[string]string{
	"count-overflow-chunks":      "manifest: decode: truncated",
	"count-overflow-section":     "manifest: decode: chunk section 0: truncated",
	"count-overflow-tiles":       "manifest: decode: chunk section 0: truncated",
	"count-overflow-objects":     "manifest: decode: chunk section 0: truncated",
	"count-tiles-past-min":       "manifest: decode: chunk section 0: truncated",
	"count-objects-past-min":     "manifest: decode: chunk section 0: truncated",
	"cut-0-empty":                "manifest: decode: not a pano manifest (bad magic)",
	"cut-1-after-magic":          "manifest: decode: not a pano manifest (bad magic)",
	"cut-2-after-version":        "manifest: decode: truncated",
	"cut-3-after-header":         "manifest: decode: truncated",
	"cut-4-after-chunk-count":    "manifest: decode: truncated",
	"cut-5-after-section-length": "manifest: decode: truncated",
	"cut-6-after-counts":         "manifest: decode: truncated",
	"cut-7-after-rects":          "manifest: decode: chunk section 0: truncated",
	"cut-8-after-tile-columns":   "manifest: decode: chunk section 0: truncated",
	"cut-9-after-first-section":  "manifest: decode: chunk section 1: truncated",
	"extremes":                   "valid, then manifest: bad video header 0x0@0/0s",
	"float-inf":                  "manifest: decode: chunk section 0: code out of range",
	"float-nan-quiet":            "manifest: decode: chunk section 0: code out of range",
	"float-nan-signalling":       "manifest: decode: chunk section 0: code out of range",
	"float-neg-inf":              "manifest: decode: chunk section 1: code out of range",
	"float-negative-zero":        "valid",
	"float-subnormal":            "valid",
	"live-three-chunks":          "valid",
	"lut-coefficient-zero":       "valid, then manifest: chunk 0 tile 0 level 0 LUT coefficient 0 not positive",
	"packing-base-above-least":   "manifest: decode: chunk section 0: non-canonical packing",
	"packing-pad-bits":           "manifest: decode: chunk section 0: non-canonical packing",
	"packing-width-too-wide":     "manifest: decode: chunk section 0: non-canonical packing",
	"range-size-code":            "manifest: decode: chunk section 0: code out of range",
	"truncated-section":          "manifest: decode: chunk section 1: truncated",
	"valid-two-chunks":           "valid",
	"varint-11-bytes":            "manifest: decode: malformed or non-minimal varint",
	"varint-padded":              "manifest: decode: malformed or non-minimal varint",
	"version-1":                  "manifest: decode: unknown version 1",
	"version-2":                  "manifest: decode: unknown version 2",
}

func TestFuzzSeedsReachTheirChecks(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzDecode/*")
	if err != nil || len(files) != len(seedOutcomes) {
		t.Fatalf("%d seed files (%v), want %d", len(files), err, len(seedOutcomes))
	}
	for _, path := range files {
		name := filepath.Base(path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		in, err := strconv.Unquote(strings.TrimSuffix(lit, ")\n"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file (%v)", name, err)
		}
		got := "valid"
		v, err := Unmarshal([]byte(in))
		switch {
		case err != nil:
			got = err.Error()
		case !bytes.Equal(v.Marshal(), []byte(in)):
			got = "valid, but re-encodes differently"
		case v.Validate() != nil:
			got += ", then " + v.Validate().Error()
		}
		if want, ok := seedOutcomes[name]; !ok || got != want {
			t.Errorf("%s: %q, want %q", name, got, want)
		}
	}
}

// TestValidateRejectsNonFinite: every range check in Validate is
// false on a NaN, so each float is checked for one — and for an
// infinity, and for a value past its step's range. Marshal is total
// over them all and writes each as its step's reserved code, past the
// range, so Unmarshal refuses what Validate refuses: no receiver reads
// a plausible value in its place. ChunkSec is binary64 and reaches the
// far side as it is, where Validate refuses it again.
func TestValidateRejectsNonFinite(t *testing.T) {
	withObject := func() *Video {
		v := sampleVideo()
		v.Chunks[0].Objects = []ObjectSample{{T: 0.125, Yaw: 10, Pitch: -5, SpeedDeg: 3, Depth: 0.5}}
		return v
	}
	if err := withObject().Validate(); err != nil {
		t.Fatal(err)
	}
	// fields are every float of tile 1 and of the object sample, by
	// column, and ChunkSec.
	fields := func(v *Video) map[string]*float64 {
		m := map[string]*float64{"ChunkSec": &v.ChunkSec}
		for j, x := range v.Chunks[0].Tiles[1].floats() {
			m[tileCols[j].name] = x
		}
		for k, x := range v.Chunks[0].Objects[0].floats() {
			m["object "+objectCols[k].name] = x
		}
		return m
	}
	for name := range fields(withObject()) {
		bads := []float64{math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Inf(1), math.Inf(-1), -1e300}
		if name != "ChunkSec" {
			bads = append(bads, 1e300) // past every step's range
		}
		if strings.HasPrefix(name, "Bits") {
			bads = append(bads, 0, -1)
		}
		for _, bad := range bads {
			v := withObject()
			*fields(v)[name] = bad
			if err := v.Validate(); err == nil {
				t.Errorf("%s = %v validated", name, bad)
			}
			back, err := Unmarshal(v.Marshal())
			if name == "ChunkSec" {
				if err != nil || back.Validate() == nil {
					t.Errorf("%s = %v: decoded with %v, then validated", name, bad, err)
				}
			} else if !errors.Is(err, errRange) {
				t.Errorf("%s = %v: decoded with %v, want %v", name, bad, err, errRange)
			}
		}
	}
}

// TestValidateRejectsNonPositiveLUTCoefficient: a = 0 or a < 0 makes the
// tile's PSPNR ≤ 0 dB at every ratio; Validate names the chunk, tile and
// level.
func TestValidateRejectsNonPositiveLUTCoefficient(t *testing.T) {
	for _, a := range []float64{0, math.Copysign(0, -1), -0.5} {
		v := sampleVideo()
		v.Chunks[0].Tiles[1].LUT[3].ACoeff = a
		err := v.Validate()
		if err == nil || !strings.Contains(err.Error(), "chunk 0 tile 1 level 3 LUT coefficient") {
			t.Errorf("a = %v: %v", a, err)
		}
	}
}

// benchVideo has the benchmark manifest's shape: 8 chunks of 30 tiles
// on 480×240 with six object samples each, and passes Validate.
func benchVideo() *Video {
	rng := rand.New(rand.NewSource(1))
	v := &Video{Name: "bench", Genre: "Sports", W: 480, H: 240, FPS: 30, ChunkSec: 1}
	for k := 0; k < 8; k++ {
		c := Chunk{Index: k, Objects: make([]ObjectSample, 6)}
		for i := 0; i < 30; i++ {
			x, y := i%6*80, i/6*48
			c.Tiles = append(c.Tiles, Tile{Rect: geom.Rect{X0: x, Y0: y, X1: x + 80, Y1: y + 48}})
		}
		eachFloat(&c, func(_ *column, x *float64) { *x = 1 + rng.Float64()*99 })
		for i := range c.Tiles {
			slices.Sort(c.Tiles[i].Bits[:])
			slices.Reverse(c.Tiles[i].Bits[:])
		}
		c.RoundToWire()
		v.Chunks = append(v.Chunks, c)
	}
	return v
}

var wireSink int

// BenchmarkManifestWire is the manifest's codec alone, on the
// benchmark manifest's shape; B/tile is the whole encoding over its
// tile count.
func BenchmarkManifestWire(b *testing.B) {
	v := benchVideo()
	wire := v.Marshal()
	perTile := float64(len(wire)) / float64(8*30)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			wireSink += len(v.Marshal())
		}
		b.ReportMetric(perTile, "B/tile")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			back, err := Unmarshal(wire)
			if err != nil {
				b.Fatal(err)
			}
			wireSink += len(back.Chunks)
		}
		b.ReportMetric(perTile, "B/tile")
	})
	b.Run("validate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := v.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
