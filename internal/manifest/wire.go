package manifest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"pano/internal/codec"
)

// The wire encoding; DESIGN.md §4 "The manifest on the wire" has the
// byte table. Magic, version, a varint header, then one length-prefixed
// self-contained section per chunk: tile rects as varints, every float
// as its raw little-endian bits, column by column. Lossless, and
// canonical — a Video has one encoding and Unmarshal accepts nothing
// else — so the hash of the bytes, the manifest's ETag, identifies it.
const (
	wireMagic   = "PANO"
	wireVersion = 1

	tileFloats   = 3 + 5*codec.NumLevels // per tile on the wire
	objectFloats = 5                     // per object sample

	// The fewest bytes a tile (four rect varints, its floats) and a
	// chunk section (length, index, two counts) can take.
	minTileBytes  = 4 + 8*tileFloats
	minChunkBytes = 4
)

// field returns tile t's j-th wire float: the three scalars, then Bits,
// PSNR, RefPSPNR, LUT.ACoeff and LUT.BExp, each level by level. Encoder,
// decoder and Validate all walk a tile through it.
func (t *Tile) field(j int) *float64 {
	if j < 3 {
		return [...]*float64{&t.AvgLuma, &t.AvgDoF, &t.ObjSpeedDeg}[j]
	}
	l := (j - 3) % codec.NumLevels
	return [...]*float64{&t.Bits[l], &t.PSNR[l], &t.RefPSPNR[l], &t.LUT[l].ACoeff, &t.LUT[l].BExp}[(j-3)/codec.NumLevels]
}

// fields returns the sample's floats in wire order.
func (o *ObjectSample) fields() [objectFloats]*float64 {
	return [...]*float64{&o.T, &o.Yaw, &o.Pitch, &o.SpeedDeg, &o.Depth}
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Integers are signed (zig-zag) varints, so every int a Video can hold
// — not only the ones Validate admits — encodes and Marshal cannot fail.
func varintLen[T int | int64](x T) int { return uvarintLen(uint64(x)<<1 ^ uint64(int64(x)>>63)) }

func appendInt[T int | int64](b []byte, x T) []byte { return binary.AppendVarint(b, int64(x)) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// wireLen is the length of c's section, excluding its length prefix.
func (c *Chunk) wireLen() int {
	n := varintLen(c.Index) + uvarintLen(uint64(len(c.Tiles))) + uvarintLen(uint64(len(c.Objects)))
	for i := range c.Tiles {
		r := c.Tiles[i].Rect
		n += varintLen(r.X0) + varintLen(r.Y0) + varintLen(r.W()) + varintLen(r.H())
	}
	return n + 8*(tileFloats*len(c.Tiles)+objectFloats*len(c.Objects))
}

// WireLen returns len(v.Marshal()) without encoding: the bytes a
// client's manifest GET moves.
func (v *Video) WireLen() int {
	n := len(wireMagic) + 1 + len(v.Name) + len(v.Genre) + 8 + 1 +
		uvarintLen(uint64(len(v.Name))) + uvarintLen(uint64(len(v.Genre))) +
		varintLen(v.W) + varintLen(v.H) + varintLen(v.FPS) +
		varintLen(v.Seq) + varintLen(v.FirstChunk) + varintLen(v.WindowChunks) +
		uvarintLen(uint64(len(v.Chunks)))
	for i := range v.Chunks {
		s := v.Chunks[i].wireLen()
		n += uvarintLen(uint64(s)) + s
	}
	return n
}

// Marshal returns the wire encoding, appended into one buffer made at
// exactly its size.
func (v *Video) Marshal() []byte {
	b := append(make([]byte, 0, v.WireLen()), wireMagic...)
	b = appendString(appendString(append(b, wireVersion), v.Name), v.Genre)
	b = appendFloat(appendInt(appendInt(appendInt(b, v.W), v.H), v.FPS), v.ChunkSec)
	live := byte(0)
	if v.Live {
		live = 1
	}
	b = appendInt(appendInt(appendInt(append(b, live), v.Seq), v.FirstChunk), v.WindowChunks)
	b = binary.AppendUvarint(b, uint64(len(v.Chunks)))
	for i := range v.Chunks {
		c := &v.Chunks[i]
		b = appendInt(binary.AppendUvarint(b, uint64(c.wireLen())), c.Index)
		b = binary.AppendUvarint(b, uint64(len(c.Tiles)))
		b = binary.AppendUvarint(b, uint64(len(c.Objects)))
		for ti := range c.Tiles {
			r := c.Tiles[ti].Rect
			b = appendInt(appendInt(appendInt(appendInt(b, r.X0), r.Y0), r.W()), r.H())
		}
		for j := 0; j < tileFloats; j++ {
			for ti := range c.Tiles {
				b = appendFloat(b, *c.Tiles[ti].field(j))
			}
		}
		for oi := range c.Objects {
			for _, f := range c.Objects[oi].fields() {
				b = appendFloat(b, *f)
			}
		}
	}
	return b
}

// Encode writes the manifest's wire encoding (Marshal) to w.
func (v *Video) Encode(w io.Writer) error {
	_, err := w.Write(v.Marshal())
	return err
}

// Decode reads a manifest written by Encode; r must hold nothing else.
func Decode(r io.Reader) (*Video, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("manifest: decode: %w", err)
	}
	return Unmarshal(b)
}

var (
	errTruncated = errors.New("truncated")
	errVarint    = errors.New("malformed or non-minimal varint")
)

// wireReader walks an encoded manifest. The first failure sticks and
// empties the input, so err is checked once per section, not per field.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *wireReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(errTruncated)
	case n < 0 || (n > 1 && r.b[n-1] == 0):
		// A final zero byte pads a smaller value: refused, or two byte
		// strings would decode to one manifest.
		r.fail(errVarint)
	default:
		r.b = r.b[n:]
		return x
	}
	return 0
}

func (r *wireReader) int64() int64 {
	x := r.uvarint()
	return int64(x>>1) ^ -int64(x&1)
}

func (r *wireReader) int() int { return int(r.int64()) }

// count reads a count and refuses one the bytes left cannot hold at
// minBytes each, so a forged count never reaches make.
func (r *wireReader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail(errTruncated)
		return 0
	}
	return int(n)
}

// bytes returns the next n bytes, nil (and a failure) if there are fewer.
func (r *wireReader) bytes(n int) []byte {
	if n > len(r.b) {
		r.fail(errTruncated)
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *wireReader) float() float64 {
	if p := r.bytes(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// Unmarshal decodes a wire encoding. It accepts exactly what Marshal
// writes — this version, minimal varints, no trailing bytes — so
// Unmarshal(b).Marshal() is b again, and allocates one []Chunk plus one
// []Tile and one []ObjectSample per chunk. Callers run Validate.
func Unmarshal(b []byte) (*Video, error) {
	if len(b) <= len(wireMagic) || string(b[:len(wireMagic)]) != wireMagic {
		return nil, errors.New("manifest: decode: not a pano manifest (bad magic)")
	}
	if ver := b[len(wireMagic)]; ver != wireVersion {
		return nil, fmt.Errorf("manifest: decode: unknown version %d", ver)
	}
	r := wireReader{b: b[len(wireMagic)+1:]}
	v := &Video{}
	v.Name = string(r.bytes(r.count(1)))
	v.Genre = string(r.bytes(r.count(1)))
	v.W, v.H, v.FPS, v.ChunkSec = r.int(), r.int(), r.int(), r.float()
	if live := r.bytes(1); live != nil {
		if v.Live = live[0] == 1; live[0] > 1 {
			r.fail(errors.New("live flag is neither 0 nor 1"))
		}
	}
	v.Seq, v.FirstChunk, v.WindowChunks = r.int64(), r.int(), r.int()
	if n := r.count(minChunkBytes); n > 0 {
		v.Chunks = make([]Chunk, n)
	}
	for i := range v.Chunks {
		s := wireReader{b: r.bytes(r.count(1)), err: r.err}
		if s.chunk(&v.Chunks[i]); s.err != nil {
			return nil, fmt.Errorf("manifest: decode: chunk section %d: %w", i, s.err)
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("manifest: decode: %w", r.err)
	}
	return v, nil
}

// chunk decodes one section; r holds exactly the section's bytes.
func (r *wireReader) chunk(c *Chunk) {
	c.Index = r.int()
	nt, no := r.count(minTileBytes), r.count(8*objectFloats)
	if nt > 0 {
		c.Tiles = make([]Tile, nt)
	}
	for ti := range c.Tiles {
		rc := &c.Tiles[ti].Rect
		rc.X0, rc.Y0 = r.int(), r.int()
		rc.X1, rc.Y1 = rc.X0+r.int(), rc.Y0+r.int()
	}
	// A section is self-contained: what is left is its floats, exactly.
	if want := 8 * (tileFloats*nt + objectFloats*no); len(r.b) != want {
		r.fail(fmt.Errorf("%d bytes of floats, want %d for %d tiles and %d objects", len(r.b), want, nt, no))
		return
	}
	for j := 0; j < tileFloats; j++ {
		for ti := range c.Tiles {
			*c.Tiles[ti].field(j) = r.float()
		}
	}
	if no > 0 {
		c.Objects = make([]ObjectSample, no)
	}
	for oi := range c.Objects {
		for _, f := range c.Objects[oi].fields() {
			*f = r.float()
		}
	}
}
