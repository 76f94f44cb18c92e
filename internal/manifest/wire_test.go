package manifest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pano/internal/geom"
)

// Floats the round trip must carry bit for bit: both zeros, subnormals,
// the 100 dB cap and the a=1, b=0 fallback of FitPowerLUT, the extremes,
// and what only raw bits can carry — infinities and NaNs, payload
// included (Validate refuses them; the codec must not mangle them).
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, 100,
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1023,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff0000000000001),
}

var edgeInts = []int{0, 1, -1, 63, 64, -64, -65, 8191, 8192, 1 << 31, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}

func genFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return edgeFloats[rng.Intn(len(edgeFloats))]
	}
	return rng.NormFloat64() * 1e3
}

func genInt(rng *rand.Rand) int {
	if rng.Intn(3) == 0 {
		return edgeInts[rng.Intn(len(edgeInts))]
	}
	return rng.Intn(4096) - 1024
}

// genVideo draws a manifest of the given shape — tiles[k] tiles and
// objects[k] samples in chunk k — with every other field random. It is
// not valid and need not be: the codec is total over Video.
func genVideo(rng *rand.Rand, tiles, objects []int) *Video {
	v := &Video{
		Name: "video-\x00-é", Genre: "Sports",
		W: genInt(rng), H: genInt(rng), FPS: genInt(rng), ChunkSec: genFloat(rng),
		Live: rng.Intn(2) == 0, Seq: int64(genInt(rng)), FirstChunk: genInt(rng), WindowChunks: genInt(rng),
	}
	for k := range tiles {
		c := Chunk{Index: genInt(rng)}
		for i := 0; i < tiles[k]; i++ {
			t := Tile{Rect: geom.Rect{X0: genInt(rng), Y0: genInt(rng), X1: genInt(rng), Y1: genInt(rng)}}
			for j := 0; j < tileFloats; j++ {
				*t.field(j) = genFloat(rng)
			}
			c.Tiles = append(c.Tiles, t)
		}
		for i := 0; i < objects[k]; i++ {
			var o ObjectSample
			for _, f := range o.fields() {
				*f = genFloat(rng)
			}
			c.Objects = append(c.Objects, o)
		}
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
	cases := map[string]*Video{
		"sample":     sampleVideo(),
		"zero":       {},
		"no chunks":  genVideo(rng, nil, nil),
		"no tiles":   genVideo(rng, []int{0}, []int{0}),
		"no objects": genVideo(rng, []int{3, 3}, []int{0, 0}),
		"ragged":     genVideo(rng, []int{4, 0, 1, 7}, []int{0, 5, 0, 2}),
		"only objs":  genVideo(rng, []int{0, 0}, []int{3, 1}),
		"live":       live,
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

// splice returns wire with the n bytes at off replaced by with.
func splice(wire []byte, off, n int, with ...byte) []byte {
	out := append([]byte{}, wire[:off]...)
	out = append(out, with...)
	return append(out, wire[off+n:]...)
}

// malformed returns inputs Unmarshal must refuse, by name. They are cut
// from two encodings whose offsets are easy to state: the zero Video
// (magic, version, then 18 bytes: two empty strings, three zero ints,
// ChunkSec, the live flag, three zero ints, no chunks) and one chunk
// with one tile and one object sample (the same header, then a two-byte
// section length, index, tile count, object count, four rect bytes and
// the floats).
func malformed() map[string][]byte {
	zero := (&Video{}).Marshal()
	chunk := Chunk{Tiles: make([]Tile, 1), Objects: make([]ObjectSample, 1)}
	one := (&Video{Chunks: []Chunk{chunk}}).Marshal()
	hdr := len(zero) - 1 // offset of the chunk count
	sec := hdr + 3       // offset of the section's first byte, the index
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	secLen := func(n int) []byte { return binary.AppendUvarint(nil, uint64(n)) }
	return map[string][]byte{
		"wrong magic":           splice(zero, 0, 1, 'Q'),
		"json":                  []byte(`{"name":"x"}`),
		"version 0":             splice(zero, 4, 1, 0),
		"version 2":             splice(zero, 4, 1, 2),
		"trailing garbage":      append(zero[:len(zero):len(zero)], "garbage"...),
		"padded varint":         splice(zero, 5, 1, 0x80, 0x00),
		"varint past 64 bits":   splice(zero, 5, 1, bytes.Repeat([]byte{0xff}, 11)...),
		"name longer than rest": splice(zero, 5, 1, 0x7f),
		"live flag 2":           splice(zero, 5+2+3+8, 1, 2),
		"chunk count 2^64-1":    splice(zero, hdr, 1, huge...),
		"chunk count 2":         splice(one, hdr, 1, 2),
		"section length +1":     splice(one, hdr+1, 2, secLen(chunk.wireLen()+1)...),
		"section length -1":     splice(one, hdr+1, 2, secLen(chunk.wireLen()-1)...),
		"section length 2^64-1": splice(one, hdr+1, 2, huge...),
		"tile count 2^64-1":     splice(one, sec+1, 1, huge...),
		"tile count 2":          splice(one, sec+1, 1, 2),
		"object count 2^64-1":   splice(one, sec+2, 1, huge...),
		"object count 0":        splice(one, sec+2, 1, 0),
		"padded rect varint":    splice(one, sec+3, 1, 0x80, 0x00),
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	for name, in := range malformed() {
		if v, err := Unmarshal(in); err == nil {
			t.Errorf("%s: decoded to %+v", name, v)
		}
	}
	for name, want := range map[string]error{
		"padded varint": errVarint, "varint past 64 bits": errVarint, "padded rect varint": errVarint,
		"chunk count 2^64-1": errTruncated, "tile count 2^64-1": errTruncated, "name longer than rest": errTruncated,
	} {
		if _, err := Unmarshal(malformed()[name]); !errors.Is(err, want) {
			t.Errorf("%s: %v, want %v", name, err, want)
		}
	}
}

// FuzzDecode: Unmarshal never panics, never allocates more than a
// constant times its input (every count is checked against the bytes
// left before make), and whatever it accepts re-encodes to exactly the
// input — the encoding is canonical. The committed seeds under
// testdata/fuzz/FuzzDecode are an encoding cut at each section boundary
// and the forged counts and varints of malformed.
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
		// A 56-byte Chunk per 4-byte empty section is the worst ratio;
		// the slack covers the Video and a formatted error. TotalAlloc
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
	})
}

// TestValidateRejectsNonFinite: the wire carries raw float bits, so a
// NaN or an infinity can arrive where JSON could not carry one, and
// every range check in Validate is false on a NaN.
func TestValidateRejectsNonFinite(t *testing.T) {
	withObject := func() *Video {
		v := sampleVideo()
		v.Chunks[0].Objects = []ObjectSample{{T: 0.1, Yaw: 10, Pitch: -5, SpeedDeg: 3, Depth: 0.5}}
		return v
	}
	if err := withObject().Validate(); err != nil {
		t.Fatal(err)
	}
	fields := func(v *Video) map[string]*float64 {
		tl, o := &v.Chunks[0].Tiles[1], &v.Chunks[0].Objects[0]
		return map[string]*float64{
			"ChunkSec": &v.ChunkSec, "AvgLuma": &tl.AvgLuma, "AvgDoF": &tl.AvgDoF, "ObjSpeedDeg": &tl.ObjSpeedDeg,
			"Bits": &tl.Bits[0], "PSNR": &tl.PSNR[2], "RefPSPNR": &tl.RefPSPNR[4],
			"LUT.ACoeff": &tl.LUT[3].ACoeff, "LUT.BExp": &tl.LUT[0].BExp,
			"object T": &o.T, "object Yaw": &o.Yaw, "object Pitch": &o.Pitch,
			"object SpeedDeg": &o.SpeedDeg, "object Depth": &o.Depth,
		}
	}
	for name := range fields(withObject()) {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			v := withObject()
			*fields(v)[name] = bad
			if err := v.Validate(); err == nil {
				t.Errorf("%s = %v validated", name, bad)
			}
			// And it survives the wire to reach Validate on the far side.
			back, err := Unmarshal(v.Marshal())
			if err != nil {
				t.Fatalf("%s = %v: %v", name, bad, err)
			}
			if err := back.Validate(); err == nil {
				t.Errorf("%s = %v validated after the wire", name, bad)
			}
		}
	}
}

// benchVideo has the benchmark manifest's shape: 8 chunks of 30 tiles
// on 480×240 with six object samples each.
func benchVideo() *Video {
	rng := rand.New(rand.NewSource(1))
	v := &Video{Name: "bench", Genre: "Sports", W: 480, H: 240, FPS: 30, ChunkSec: 1}
	for k := 0; k < 8; k++ {
		c := Chunk{Index: k, Objects: make([]ObjectSample, 6)}
		for i := 0; i < 30; i++ {
			x, y := i%6*80, i/6*48
			t := Tile{Rect: geom.Rect{X0: x, Y0: y, X1: x + 80, Y1: y + 48}}
			for j := 0; j < tileFloats; j++ {
				*t.field(j) = rng.Float64() * 100
			}
			c.Tiles = append(c.Tiles, t)
		}
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
}
