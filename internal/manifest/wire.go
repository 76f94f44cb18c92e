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
// self-contained section per chunk. A section carries its tiles and
// object samples column by column as integer codes, each column
// bit-packed at the fewest bits its codes span in that chunk: the
// column's least code and its width head the section (frame of
// reference), and so does the grid every tile rect lies on. A float's
// code is its value at its field group's step (FieldGroups) — sizes
// log-quantized and rounded up, every other float fixed-point — and the
// levels of a size or a PSNR after the first go as the previous level's
// code minus their own, which takes fewer bits. The steps belong to the
// format and the bases, widths and grid to the section, so a section
// decodes alone and a live head appends chunks without touching the ones
// before. Canonical — a Video has one encoding and Unmarshal accepts
// nothing else — so the hash of the bytes, the manifest's ETag,
// identifies it; and lossless for what the provider emits, which it
// rounds to the steps where it builds a chunk (RoundToWire).
const (
	wireMagic   = "PANO"
	wireVersion = 3

	// A section holds at least minTileBytes per tile and minObjectBytes
	// per object sample after its counts, zero-padded where its columns
	// take fewer (a chunk of identical tiles packs to nothing), so a
	// forged count cannot make Unmarshal allocate more than 16 times its
	// input: a Tile is 256 bytes, an ObjectSample 40. The provider's
	// tiles take about 30 bytes each, so the pad never binds on them.
	minTileBytes   = 16
	minObjectBytes = 4
	// The fewest bytes a chunk section (length, index, two counts) takes.
	minChunkBytes = 4

	maxWidth = 64 // a column's width in bits: a code difference is a uint64
)

// step is how one field group's floats become integer codes. Fixed
// point (log false): the code is round(x·2^prec) and the value
// code·2^-prec, codes within ±2^53, where both are exact. Sizes (log):
// x is rounded up to prec significand bits, and the code counts those
// values upward from 2^-64 — the binary64 bits of x above the dropped
// ones, less those of 2^-64 — so the largest lies below 2^64. Code
// maxCode+1 is reserved for what the range cannot hold.
type step struct {
	log   bool
	sh    uint    // log: the significand bits a size drops, 53-prec
	off   int64   // log: the bits of 2^-64 above sh, code 0's
	scale float64 // fixed: 2^prec; scaling by it is exact
	inv   float64 // fixed: 2^-prec
	max   int64   // the largest code
	least float64 // the least value the range holds: -top, or the least positive float for sizes
	top   float64 // the largest value, max's
}

const (
	maxFixedCode = 1 << 53
	logExpBias   = 64  // the least size is 2^-64 bits
	logExps      = 128 // binades from 2^-64 up to 2^64
)

func newStep(log bool, prec int) step {
	s := step{log: log}
	if log {
		s.sh = uint(53 - prec)
		s.off = int64(1023-logExpBias) << (prec - 1)
		s.max = logExps<<(prec-1) - 1
	} else {
		s.scale, s.inv = math.Ldexp(1, prec), math.Ldexp(1, -prec)
		s.max = maxFixedCode
	}
	s.top, s.least = s.value(s.max), -s.value(s.max)
	if log {
		s.least = math.SmallestNonzeroFloat64
	}
	return s
}

func (s *step) minCode() int64 {
	if s.log {
		return 0
	}
	return -maxFixedCode
}

func (s *step) maxCode() int64 { return s.max }

// representable reports whether x lies in the step's range, so that
// value(code(x)) is x rounded; it is false on a NaN.
func (s *step) representable(x float64) bool { return x >= s.least && x <= s.top }

// code is x's code: x rounded to the step (a size up), a size at or
// below 2^-64 the least. A value the range does not hold — a NaN, an
// infinity, a size not above zero, anything past the ends — takes the
// reserved code maxCode+1, which Unmarshal refuses, so no float that
// Validate refuses (representable) reaches a receiver as a plausible
// value.
func (s *step) code(x float64) int64 {
	switch {
	case !s.representable(x):
		return s.max + 1
	case s.log && x <= 0x1p-64:
		return 0
	case s.log:
		return int64((math.Float64bits(x)+(1<<s.sh-1))>>s.sh) - s.off
	}
	return int64(math.Round(x * s.scale))
}

// value is the float code c stands for; c lies in [minCode, maxCode].
func (s *step) value(c int64) float64 {
	if s.log {
		return math.Float64frombits(uint64(c+s.off) << s.sh)
	}
	return float64(c) * s.inv
}

// round is x on the step's grid; a value the range does not hold stays
// as it is, for Validate to name.
func (s *step) round(x float64) float64 {
	if !s.representable(x) {
		return x
	}
	return s.value(s.code(x))
}

// FieldGroup is a set of a manifest's floats that share one step on the
// wire. Prec is the wire's precision: the group's consequence knee — the
// coarsest step at which no plan priced at the true sizes exceeds its
// budget and mean plan PSPNR by the true tables falls by at most
// 0.01 dB, measured by the lut experiment on the quick and the
// benchmark video — plus a margin of two bits, a step four times finer.
type FieldGroup struct {
	Name string
	// Log marks the sizes: log-quantized to Prec significand bits and
	// rounded up, so a plan priced at the wire's sizes never costs less
	// than the tiles do. Every other group is fixed-point at a step of
	// 2^-Prec.
	Log  bool
	Prec int

	index int // in fieldGroups
}

// The field groups, indexed as in fieldGroups.
const (
	groupBits = iota
	groupPSNR
	groupRefPSPNR
	groupLUTA
	groupLUTB
	groupScalars
	groupObjects
)

// fieldGroups are the manifest's float groups with the wire's precision
// of each; they are the format, so nothing outside sets them. Object
// samples are read by no planner, so no step moves a plan; theirs,
// 1/64, keeps a sample's time within a quarter frame at 60 fps and its
// angles and speeds to 1/64°.
var fieldGroups = [...]FieldGroup{
	groupBits:     {Name: "Bits", Log: true, Prec: 14, index: groupBits},
	groupPSNR:     {Name: "PSNR", Prec: 5, index: groupPSNR},
	groupRefPSPNR: {Name: "RefPSPNR", Prec: 4, index: groupRefPSPNR},
	groupLUTA:     {Name: "LUT.a", Prec: 11, index: groupLUTA},
	groupLUTB:     {Name: "LUT.b", Prec: 9, index: groupLUTB},
	groupScalars:  {Name: "tile scalars", Prec: 8, index: groupScalars},
	groupObjects:  {Name: "object samples", Prec: 6, index: groupObjects},
}

// FieldGroups returns a copy of the manifest's float groups with the
// wire's precision of each, in the order of WireBytes.
func FieldGroups() []FieldGroup { return append([]FieldGroup(nil), fieldGroups[:]...) }

func (g FieldGroup) step(prec int) step { return newStep(g.Log, prec) }

// Round rounds every float of group g in c to the group's step at
// precision prec, as the wire would round it at that precision.
func (g FieldGroup) Round(c *Chunk, prec int) {
	s := g.step(prec)
	for i := range c.Tiles {
		f := c.Tiles[i].floats()
		for j, x := range &f {
			if tileCols[j].group == g.index {
				*x = s.round(*x)
			}
		}
	}
	if g.index == groupObjects {
		for i := range c.Objects {
			f := c.Objects[i].floats()
			for _, x := range &f {
				*x = s.round(*x)
			}
		}
	}
}

// RoundToWire rounds every float of c's tiles and object samples to its
// group's step, the precision Marshal writes, so that c survives the
// wire unchanged: Unmarshal(Marshal(v)) deep-equals v once every chunk
// of a v that Validate accepts has been rounded, and rounding twice is
// rounding once. The provider rounds each chunk it emits.
func (c *Chunk) RoundToWire() {
	for i := range c.Tiles {
		f := c.Tiles[i].floats()
		for j, x := range &f {
			*x = tileCols[j].step.round(*x)
		}
	}
	for i := range c.Objects {
		f := c.Objects[i].floats()
		for k, x := range &f {
			*x = objectCols[k].step.round(*x)
		}
	}
}

// A section's columns: four int columns, X0, Y0, W and H on the chunk's
// grid, and tileFloats float columns, all of one row per tile; then
// objectFloats float columns of one row per object sample.
const (
	rectColumns  = 4
	tileFloats   = 3 + 5*codec.NumLevels
	tileColumns  = rectColumns + tileFloats
	objectFloats = 5
	maxColumns   = tileColumns + objectFloats
)

// column is one float column of a section: its name, its field group
// and step, and whether it is sent as the previous column's code minus
// its own.
type column struct {
	name  string
	group int
	delta bool
	step  step
}

func wireStep(g int) step { return fieldGroups[g].step(fieldGroups[g].Prec) }

// tileCols are a tile's float columns in wire order, the order of
// Tile.floats: the tile scalars, then Bits, PSNR, RefPSPNR, LUT.a and
// LUT.b level by level; a size or PSNR level after the first is a delta.
var tileCols = func() (cs [tileFloats]column) {
	for j, name := range []string{"AvgLuma", "AvgDoF", "ObjSpeedDeg"} {
		cs[j] = column{name: name, group: groupScalars, step: wireStep(groupScalars)}
	}
	for k, g := range []struct {
		name  string
		group int
		delta bool
	}{{"Bits", groupBits, true}, {"PSNR", groupPSNR, true}, {"RefPSPNR", groupRefPSPNR, true},
		{"LUT.ACoeff", groupLUTA, false}, {"LUT.BExp", groupLUTB, false}} {
		for l := range codec.NumLevels {
			cs[3+k*codec.NumLevels+l] = column{name: fmt.Sprintf("%s[%d]", g.name, l), group: g.group,
				delta: g.delta && l > 0, step: wireStep(g.group)}
		}
	}
	return cs
}()

// objectCols are an object sample's float columns in wire order, the
// order of ObjectSample.floats.
var objectCols = func() (cs [objectFloats]column) {
	for k, name := range []string{"T", "Yaw", "Pitch", "SpeedDeg", "Depth"} {
		cs[k] = column{name: name, group: groupObjects, step: wireStep(groupObjects)}
	}
	return cs
}()

// floats are t's floats in wire order (tileCols).
func (t *Tile) floats() [tileFloats]*float64 {
	f := [tileFloats]*float64{&t.AvgLuma, &t.AvgDoF, &t.ObjSpeedDeg}
	const n = codec.NumLevels
	for l := range n {
		f[3+l], f[3+n+l], f[3+2*n+l] = &t.Bits[l], &t.PSNR[l], &t.RefPSPNR[l]
		f[3+3*n+l], f[3+4*n+l] = &t.LUT[l].ACoeff, &t.LUT[l].BExp
	}
	return f
}

// floats are o's floats in wire order (objectCols).
func (o *ObjectSample) floats() [objectFloats]*float64 {
	return [objectFloats]*float64{&o.T, &o.Yaw, &o.Pitch, &o.SpeedDeg, &o.Depth}
}

// columnGroup is the field group of a section's column j, -1 for a
// rect column.
func columnGroup(j int) int {
	switch {
	case j < rectColumns:
		return -1
	case j < tileColumns:
		return tileCols[j-rectColumns].group
	}
	return objectCols[j-tileColumns].group
}

// columnRows is how many codes a section with nt tiles and no object
// samples carries in its column j: a column of no rows is not sent.
func columnRows(j, nt, no int) int {
	if j < tileColumns {
		return nt
	}
	return no
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// Integers are signed (zig-zag) varints, so every int a Video can hold
// — not only the ones Validate admits — encodes and Marshal cannot fail.
func varintLen[T int | int64](x T) int { return uvarintLen(zigzag(int64(x))) }

func appendInt[T int | int64](b []byte, x T) []byte { return binary.AppendVarint(b, int64(x)) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// absU is |x| as a uint64, exact for math.MinInt64 too.
func absU(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// onGrid is x/g, exact: g divides x.
func onGrid(x int64, g uint64) int64 {
	if x < 0 {
		return -int64(absU(x) / g)
	}
	return int64(uint64(x) / g)
}

// offGrid is q·g, and false where that is past int64.
func offGrid(q int64, g uint64) (int64, bool) {
	hi, lo := bits.Mul64(absU(q), g)
	if q < 0 {
		return -int64(lo), hi == 0 && lo <= 1<<63
	}
	return int64(lo), hi == 0 && lo < 1<<63
}

// section is one chunk's encoding worked out: the grid its rects lie
// on, every column's codes, each sent column's least code and width,
// and the bytes after its counts.
type section struct {
	grid   uint64
	codes  []int64 // column after column: tileColumns of nt, then objectFloats of no
	base   [maxColumns]int64
	width  [maxColumns]uint8
	packed int // bits of packed codes
	body   int
}

// column is column j's codes.
func (s *section) column(j, nt, no int) []int64 {
	if j < tileColumns {
		return s.codes[j*nt : (j+1)*nt]
	}
	k := tileColumns*nt + (j-tileColumns)*no
	return s.codes[k : k+no]
}

// rectInts are the four ints a tile's rect goes as.
func rectInts(t *Tile) [rectColumns]int64 {
	r := t.Rect
	return [rectColumns]int64{int64(r.X0), int64(r.Y0), int64(r.W()), int64(r.H())}
}

// codeCount is how many codes c's section carries.
func (c *Chunk) codeCount() int { return tileColumns*len(c.Tiles) + objectFloats*len(c.Objects) }

// section works out c's section into s, its codes into codes, which
// holds codeCount. Tiles are coded row by row, each keeping its codes of
// the previous column for the delta columns, as the decoder does.
func (c *Chunk) section(s *section, codes []int64) {
	nt, no := len(c.Tiles), len(c.Objects)
	*s = section{codes: codes}
	if nt > 0 {
		for i := range c.Tiles {
			for _, x := range rectInts(&c.Tiles[i]) {
				s.grid = gcd(s.grid, absU(x))
			}
		}
		s.grid = max(s.grid, 1)
		s.body += uvarintLen(s.grid)
	}
	var raw [tileFloats]int64
	for i := range c.Tiles {
		t := &c.Tiles[i]
		for j, x := range rectInts(t) {
			codes[j*nt+i] = onGrid(x, s.grid)
		}
		f := t.floats()
		for j, x := range &f {
			raw[j] = tileCols[j].step.code(*x)
		}
		for j, q := range raw {
			if tileCols[j].delta {
				q = raw[j-1] - q
			}
			codes[(rectColumns+j)*nt+i] = q
		}
	}
	obj := codes[tileColumns*nt:]
	for i := range c.Objects {
		f := c.Objects[i].floats()
		for k, x := range &f {
			obj[k*no+i] = objectCols[k].step.code(*x)
		}
	}
	for j := range maxColumns {
		col := s.column(j, nt, no)
		if len(col) == 0 {
			continue
		}
		lo, hi := col[0], col[0]
		for _, x := range col[1:] {
			lo, hi = min(lo, x), max(hi, x)
		}
		w := bits.Len64(uint64(hi - lo))
		s.base[j], s.width[j] = lo, uint8(w)
		s.packed += w * len(col)
		s.body += varintLen(lo) + 1
	}
	s.body = max(s.body+(s.packed+7)/8, minTileBytes*nt+minObjectBytes*no)
}

// sectionLen is the length of c's section excluding its length prefix.
func (c *Chunk) sectionLen(s *section) int {
	return varintLen(c.Index) + uvarintLen(uint64(len(c.Tiles))) + uvarintLen(uint64(len(c.Objects))) + s.body
}

// sections works out every chunk's section, their codes in one buffer.
func (v *Video) sections() []section {
	total := 0
	for i := range v.Chunks {
		total += v.Chunks[i].codeCount()
	}
	codes := make([]int64, total)
	secs := make([]section, len(v.Chunks))
	for i := range v.Chunks {
		n := v.Chunks[i].codeCount()
		v.Chunks[i].section(&secs[i], codes[:n:n])
		codes = codes[n:]
	}
	return secs
}

func (v *Video) headerLen() int {
	return len(wireMagic) + 1 + len(v.Name) + len(v.Genre) + 8 + 1 +
		uvarintLen(uint64(len(v.Name))) + uvarintLen(uint64(len(v.Genre))) +
		varintLen(v.W) + varintLen(v.H) + varintLen(v.FPS) +
		varintLen(v.Seq) + varintLen(v.FirstChunk) + varintLen(v.WindowChunks) +
		uvarintLen(uint64(len(v.Chunks)))
}

// wireLen is the encoding's length over the worked-out sections.
func (v *Video) wireLen(secs []section) int {
	n := v.headerLen()
	for i := range v.Chunks {
		s := v.Chunks[i].sectionLen(&secs[i])
		n += uvarintLen(uint64(s)) + s
	}
	return n
}

// WireLen returns len(v.Marshal()), working out each section's columns
// but writing none: the bytes a client's manifest GET moves.
func (v *Video) WireLen() int { return v.wireLen(v.sections()) }

// WireBytes splits v's encoding by what it carries: for each field
// group in FieldGroups order, then the tile rects, the bytes of its
// columns' heads and packed codes; last the framing — header, section
// lengths, indices, counts, grids, the packed bits' last partial byte
// and the floor's pads. The parts sum to WireLen.
func (v *Video) WireBytes() []float64 {
	out := make([]float64, len(fieldGroups)+2)
	rects, framing := len(fieldGroups), len(fieldGroups)+1
	secs := v.sections()
	for i := range v.Chunks {
		s, nt, no := &secs[i], len(v.Chunks[i].Tiles), len(v.Chunks[i].Objects)
		for j := range maxColumns {
			n := columnRows(j, nt, no)
			if n == 0 {
				continue
			}
			g := columnGroup(j)
			if g < 0 {
				g = rects
			}
			out[g] += float64(varintLen(s.base[j])+1) + float64(int(s.width[j])*n)/8
		}
	}
	out[framing] = float64(v.wireLen(secs))
	for _, b := range out[:framing] {
		out[framing] -= b
	}
	return out
}

// bitWriter appends bits to b, least significant first, a word at a
// time; flush writes the last partial word, zero-padded to a byte.
type bitWriter struct {
	b   []byte
	acc uint64 // n pending bits, n < 64 between writes
	n   uint
}

// write appends x's low width bits; x has no bits above them.
func (w *bitWriter) write(x uint64, width uint) {
	w.acc |= x << w.n
	if w.n += width; w.n >= 64 {
		w.b = binary.LittleEndian.AppendUint64(w.b, w.acc)
		w.n -= 64
		w.acc = x >> (width - w.n) // x's bits past the word; none if it ended there
	}
}

func (w *bitWriter) flush() {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.b = append(w.b, byte(w.acc))
		w.acc >>= 8
	}
}

// Marshal returns the wire encoding, appended into one buffer made at
// exactly its size.
func (v *Video) Marshal() []byte {
	secs := v.sections()
	b := append(make([]byte, 0, v.wireLen(secs)), wireMagic...)
	b = appendString(appendString(append(b, wireVersion), v.Name), v.Genre)
	b = appendInt(appendInt(appendInt(b, v.W), v.H), v.FPS)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.ChunkSec)) // the chunk clock stays exact
	live := byte(0)
	if v.Live {
		live = 1
	}
	b = appendInt(appendInt(appendInt(append(b, live), v.Seq), v.FirstChunk), v.WindowChunks)
	b = binary.AppendUvarint(b, uint64(len(v.Chunks)))
	for i := range v.Chunks {
		c, s := &v.Chunks[i], &secs[i]
		nt, no := len(c.Tiles), len(c.Objects)
		b = appendInt(binary.AppendUvarint(b, uint64(c.sectionLen(s))), c.Index)
		b = binary.AppendUvarint(b, uint64(nt))
		b = binary.AppendUvarint(b, uint64(no))
		start := len(b)
		if nt > 0 {
			b = binary.AppendUvarint(b, s.grid)
		}
		for j := range maxColumns {
			if columnRows(j, nt, no) > 0 {
				b = append(appendInt(b, s.base[j]), s.width[j])
			}
		}
		w := bitWriter{b: b}
		for j := range maxColumns {
			base, width := s.base[j], uint(s.width[j])
			for _, x := range s.column(j, nt, no) {
				w.write(uint64(x-base), width)
			}
		}
		w.flush()
		b = w.b
		b = append(b, make([]byte, s.body-(len(b)-start))...) // the floor's zero pad
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
	errRange     = errors.New("code out of range")
	errPacking   = errors.New("non-canonical packing")
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

// float64 reads the header's ChunkSec, a raw binary64.
func (r *wireReader) float64() float64 {
	if p := r.bytes(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// Unmarshal decodes a wire encoding. It accepts exactly what Marshal
// writes — this version, minimal varints, each column at its least code
// and width, codes in range, zero pads, no trailing bytes — so
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
	v.W, v.H, v.FPS, v.ChunkSec = r.int(), r.int(), r.int(), r.float64()
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

// bitReader reads the bits a bitWriter wrote from b, least significant
// first, a word at a time where b holds one; b holds at least as many
// bits as are read.
type bitReader struct {
	b   []byte
	acc uint64 // n bits read from b and not yet returned, then some of the next
	n   uint
}

// read returns the next width bits, width ≤ 56.
func (br *bitReader) read(width uint) uint64 {
	if br.n < width {
		br.refill(width)
	}
	x := br.acc & (1<<width - 1)
	br.acc >>= width
	br.n -= width
	return x
}

// refill tops acc up to at least width bits.
func (br *bitReader) refill(width uint) {
	if len(br.b) >= 8 {
		// The word's bits past the whole bytes taken are in acc
		// already; the next refill ORs the same bits there.
		br.acc |= binary.LittleEndian.Uint64(br.b) << br.n
		k := (63 - br.n) / 8
		br.b, br.n = br.b[k:], br.n+8*k
	}
	for ; br.n < width; br.n += 8 {
		br.acc |= uint64(br.b[0]) << br.n
		br.b = br.b[1:]
	}
}

// packedColumn is one column of a section being read: its head (least
// code, width), the widest offset the base leaves room for in int64,
// the least and greatest offsets read, and a reader at its bits.
type packedColumn struct {
	base   int64
	width  uint
	limit  uint64
	lo, hi uint64
	br     bitReader
}

// next is the column's next code, and false if it is past int64.
func (pc *packedColumn) next() (int64, bool) {
	var off uint64
	if pc.width <= 56 {
		off = pc.br.read(pc.width)
	} else {
		off = pc.br.read(32) | pc.br.read(pc.width-32)<<32
	}
	pc.lo, pc.hi = min(pc.lo, off), max(pc.hi, off)
	return pc.base + int64(off), off <= pc.limit
}

// canonical reports whether the column's least offset is zero and its
// widest takes exactly its width.
func (pc *packedColumn) canonical() bool { return pc.lo == 0 && bits.Len64(pc.hi) == int(pc.width) }

// chunk decodes one section; r holds exactly the section's bytes. It
// reads the tiles row by row, one reader per column, so a delta column
// takes the previous column's code of the row as the encoder kept it.
func (r *wireReader) chunk(c *Chunk) {
	c.Index = r.int()
	nt := r.count(minTileBytes)
	no := r.count(minObjectBytes)
	if r.err == nil && minTileBytes*nt+minObjectBytes*no > len(r.b) {
		r.fail(errTruncated)
	}
	if r.err != nil {
		return
	}
	body := len(r.b)
	var grid uint64
	if nt > 0 {
		if grid = r.uvarint(); grid == 0 {
			r.fail(errPacking)
		}
	}
	// The heads first, a base and a width byte for each column the
	// counts imply, then the packed bits they add up to.
	var cols [maxColumns]packedColumn
	var start [maxColumns]int
	packed := 0
	for j := range maxColumns {
		n := columnRows(j, nt, no)
		if n == 0 {
			continue
		}
		pc := &cols[j]
		pc.base, pc.lo = r.int64(), math.MaxUint64
		pc.limit = uint64(math.MaxInt64) - uint64(pc.base)
		if w := r.bytes(1); w != nil {
			if pc.width = uint(w[0]); w[0] > maxWidth {
				r.fail(errPacking)
			}
		}
		start[j] = packed
		packed += int(pc.width) * n
	}
	p := r.bytes((packed + 7) / 8)
	if r.err != nil {
		return
	}
	if packed%8 != 0 && p[len(p)-1]>>(packed%8) != 0 {
		r.fail(errPacking) // the last byte's pad bits are zero
		return
	}
	// The floor's pad, zeros, and nothing after it.
	want := max(body-len(r.b), minTileBytes*nt+minObjectBytes*no)
	for _, x := range r.bytes(want - (body - len(r.b))) {
		if x != 0 {
			r.fail(errPacking)
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Errorf("%d bytes past the section's columns", len(r.b)))
	}
	if r.err != nil {
		return
	}
	for j := range maxColumns {
		if columnRows(j, nt, no) > 0 {
			cols[j].br = bitReader{b: p[start[j]/8:]}
			cols[j].br.read(uint(start[j] % 8))
		}
	}

	if nt > 0 {
		c.Tiles = make([]Tile, nt)
	}
	var g uint64 // of the rect codes: 1 unless the grid is not the rects' greatest
	var raw [tileFloats]int64
	for i := range c.Tiles {
		var rect [rectColumns]int
		for k := range rect {
			q, ok := cols[k].next()
			g = gcd(g, absU(q))
			x, inRange := offGrid(q, grid)
			if !ok || !inRange {
				r.fail(errRange)
				return
			}
			rect[k] = int(x)
		}
		t := &c.Tiles[i]
		t.Rect.X0, t.Rect.Y0 = rect[0], rect[1]
		t.Rect.X1, t.Rect.Y1 = rect[0]+rect[2], rect[1]+rect[3]
		f := t.floats()
		for j, x := range &f {
			col := &tileCols[j]
			q, ok := cols[rectColumns+j].next()
			if col.delta {
				// prev − q: no wrap lands in range, for both lie
				// within ±2^63 and the range within ±2^53.
				q = raw[j-1] - q
			}
			if !ok || q < col.step.minCode() || q > col.step.max {
				r.fail(errRange)
				return
			}
			raw[j], *x = q, col.step.value(q)
		}
	}
	if no > 0 {
		c.Objects = make([]ObjectSample, no)
	}
	for i := range c.Objects {
		f := c.Objects[i].floats()
		for k, x := range &f {
			col := &objectCols[k]
			q, ok := cols[tileColumns+k].next()
			if !ok || q < col.step.minCode() || q > col.step.max {
				r.fail(errRange)
				return
			}
			*x = col.step.value(q)
		}
	}
	for j := range maxColumns {
		if columnRows(j, nt, no) > 0 && !cols[j].canonical() {
			r.fail(errPacking)
			return
		}
	}
	if nt > 0 && g != 1 && !(g == 0 && grid == 1) {
		r.fail(errPacking)
	}
}
