package phys

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pthammer/internal/sparse"
)

// refMemory is the reference model Memory runs against. It shares no
// code with Memory: a byte map (absent bytes read as zero), the set of
// materialized frames, and the set of written lines, the footprint
// Memory pays 64 B for. Its rules are Memory's contract: a store
// materializes its frame and line; a flip into an unmaterialized frame
// is a no-op miss and into a materialized one lands, written line or
// not; zeroing clears bytes but not the line set; reads
// materialize nothing.
type refMemory struct {
	bytes  map[uint64]byte
	frames map[uint64]bool
	lines  map[uint64]bool
	writes uint64
}

func newRefMemory() *refMemory {
	return &refMemory{bytes: map[uint64]byte{}, frames: map[uint64]bool{}, lines: map[uint64]bool{}}
}

func (r *refMemory) store(a uint64, b byte) {
	r.frames[a/4096] = true
	r.lines[a/64] = true
	r.bytes[a] = b
	r.writes++
}

func (r *refMemory) read64(a uint64) uint64 {
	var v uint64
	for k := uint64(0); k < 8; k++ {
		v |= uint64(r.bytes[a+k]) << (8 * k)
	}
	return v
}

func (r *refMemory) clearFrame(f uint64) {
	for a := f * 4096; a < (f+1)*4096; a++ {
		delete(r.bytes, a)
	}
	r.writes += 4096
}

func (r *refMemory) reset() {
	clear(r.bytes)
	clear(r.frames)
	clear(r.lines)
	r.writes = 0
}

// physShape is a memory the lockstep runs use and the four frames its
// op streams address: few, so a stream keeps revisiting the same
// frames and lines.
type physShape struct {
	name   string
	frames uint64
	pick   [4]uint64
}

// physShapes are a four-frame memory, and one whose frames straddle
// the boundary between the first two chunks of slots — the last frame
// of one and the first of the next — and whose frame count leaves the
// second chunk partial, its third frame the memory's last.
var physShapes = []physShape{
	{"four-frame", 4, [4]uint64{0, 1, 2, 3}},
	{"chunk-straddling", sparse.ChunkLen + 3, [4]uint64{0, sparse.ChunkLen - 1, sparse.ChunkLen, sparse.ChunkLen + 2}},
}

// physOpBytes is the width of one encoded op in runPhysOps's input.
const physOpBytes = 5

// runPhysOps decodes data into ops and runs them on a Memory of
// shape's size and a refMemory in lockstep. Each op is five bytes: the
// op (b0 % 10), the frame (shape.pick[b1 % 4]), a 16-byte chunk of the
// frame (b2) and a
// byte within it (b3 & 15), a bit (b3 >> 4 & 7) and a value (b4).
// ReadFrame and WriteFrame take 17 × b2 bytes, 0 to 4,335, so lengths
// end mid-line and past the frame. After every op it compares the
// op's results, WriteCount, Materialized and the number of lines held,
// and returns a description of the first disagreement, or "".
func runPhysOps(shape physShape, data []byte) string {
	m := MustNew(shape.frames * FrameSize)
	r := newRefMemory()
	for i := 0; i+physOpBytes <= len(data); i += physOpBytes {
		b := data[i : i+physOpBytes]
		code, f := b[0]%10, shape.pick[b[1]%4]
		a := f*4096 + (uint64(b[2])<<4 | uint64(b[3]&15))
		a8 := a &^ 7
		bit := uint(b[3] >> 4 & 7)
		v := b[4]
		n := 17 * int(b[2])
		// got and want are the op's results; a FlipBit's ok is bit 8.
		var got, want uint64
		diff := ""
		switch code {
		case 0:
			m.Write8(Addr(a), v)
			r.store(a, v)
		case 1:
			w := uint64(v)*0x0101_0101_0101_0101 ^ a<<8
			m.Write64(Addr(a8), w)
			for k := uint64(0); k < 8; k++ {
				r.store(a8+k, byte(w>>(8*k)))
			}
		case 2:
			got, want = uint64(m.Read8(Addr(a))), uint64(r.bytes[a])
		case 3:
			got, want = m.Read64(Addr(a8)), r.read64(a8)
		case 4:
			got, want = uint64(m.Bit(Addr(a), bit)), uint64(r.bytes[a]>>bit&1)
		case 5:
			nb, ok := m.FlipBit(Addr(a), bit)
			got = uint64(nb)
			if ok {
				got |= 1 << 8
			}
			if r.frames[f] {
				r.store(a, r.bytes[a]^1<<bit)
				want = uint64(r.bytes[a]>>bit&1) | 1<<8
			}
		case 6:
			m.ZeroFrame(Frame(f))
			r.frames[f] = true
			r.clearFrame(f)
		case 7:
			dst := make([]byte, n)
			for k := range dst {
				dst[k] = 0xA5
			}
			got, want = uint64(m.ReadFrame(Frame(f), dst)), uint64(min(n, 4096))
			for k, d := range dst {
				e := byte(0xA5)
				if k < 4096 {
					e = r.bytes[f*4096+uint64(k)]
				}
				if d != e {
					diff = fmt.Sprintf("byte %d = %#x, model %#x", k, d, e)
					break
				}
			}
		case 8:
			src := make([]byte, n)
			for k := range src {
				src[k] = byte(k) ^ v
			}
			got, want = uint64(m.WriteFrame(Frame(f), src)), uint64(min(n, 4096))
			r.frames[f] = true
			for k := uint64(0); k < want; k++ {
				r.store(f*4096+k, src[k])
			}
		case 9:
			m.Reset()
			r.reset()
		}
		switch {
		case diff != "":
		case got != want:
			diff = fmt.Sprintf("returned %#x, model %#x", got, want)
		case m.WriteCount() != r.writes:
			diff = fmt.Sprintf("WriteCount %d, model %d", m.WriteCount(), r.writes)
		case m.Materialized() != len(r.frames):
			diff = fmt.Sprintf("Materialized %d, model %d", m.Materialized(), len(r.frames))
		case len(m.lines)-1 != len(r.lines):
			diff = fmt.Sprintf("%d lines held, model wrote %d", len(m.lines)-1, len(r.lines))
		}
		if diff != "" {
			names := [...]string{"Write8", "Write64", "Read8", "Read64", "Bit", "FlipBit",
				"ZeroFrame", "ReadFrame", "WriteFrame", "Reset"}
			return fmt.Sprintf("%s: op %d %s(addr %#x, frame %d, bit %d, value %#x, %d bytes): %s",
				shape.name, i/physOpBytes, names[code], a, f, bit, v, n, diff)
		}
	}
	return ""
}

// physOp encodes one op for runPhysOps: the op code, the frame, the
// byte offset within it (a multiple of 16 plus up to 15; ReadFrame and
// WriteFrame read the length from it instead), the bit and the value.
func physOp(code, frame byte, off int, bit, v byte) []byte {
	return []byte{code, frame, byte(off >> 4), byte(off&15) | bit<<4, v}
}

// TestMemoryMatchesModel runs seeded random op streams — every
// operation, Reset included — through Memory and the reference model
// in lockstep, on every shape.
func TestMemoryMatchesModel(t *testing.T) {
	for _, shape := range physShapes {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 3000*physOpBytes)
			rng.Read(data)
			if msg := runPhysOps(shape, data); msg != "" {
				t.Fatalf("seed %d: %s", seed, msg)
			}
		}
	}
}

// FuzzPhys decodes an op stream (see runPhysOps) and runs it on Memory
// and the reference model in lockstep, on every shape.
func FuzzPhys(f *testing.F) {
	seed := func(ops ...[]byte) []byte {
		var data []byte
		for _, op := range ops {
			data = append(data, op...)
		}
		return data
	}
	// A flip into an unwritten line of a written frame lands: the frame
	// has content, so the line's zero bytes are real cells.
	f.Add(seed(
		physOp(0, 1, 0, 0, 0x11),   // Write8 line 0 of frame 1
		physOp(5, 1, 5*64+3, 3, 0), // FlipBit into its line 5
		physOp(2, 1, 5*64+3, 0, 0), // Read8 it back
		physOp(4, 1, 5*64+3, 3, 0), // Bit
		physOp(3, 1, 5*64, 0, 0),   // Read64 of the flipped word
		physOp(7, 1, 241<<4, 0, 0), // ReadFrame, whole frame
	))
	// A flip into a hole frame is a no-op miss that materializes nothing.
	f.Add(seed(
		physOp(0, 0, 8, 0, 0xFF),   // Write8 frame 0
		physOp(5, 2, 17, 6, 0),     // FlipBit into hole frame 2
		physOp(4, 2, 17, 6, 0),     // Bit there
		physOp(7, 2, 241<<4, 0, 0), // ReadFrame of the hole
	))
	// ZeroFrame, then Reset, then re-materialize: the new frame and
	// lines read as zero, the old ones are holes again.
	f.Add(seed(
		physOp(1, 3, 64, 0, 0xAB),    // Write64 frame 3 line 1
		physOp(0, 3, 200*16, 0, 7),   // Write8 frame 3 line 50
		physOp(6, 3, 0, 0, 0),        // ZeroFrame 3
		physOp(3, 3, 64, 0, 0),       // Read64: zero, frame still there
		physOp(9, 0, 0, 0, 0),        // Reset
		physOp(5, 3, 64, 0, 0),       // FlipBit into the released frame
		physOp(0, 1, 16, 0, 9),       // Write8 frame 1 line 0
		physOp(8, 2, 60<<4, 0, 0x5A), // WriteFrame frame 2, 60 × 17 bytes
		physOp(7, 1, 241<<4, 0, 0),   // ReadFrame frame 1
		physOp(7, 3, 241<<4, 0, 0),   // ReadFrame frame 3
	))
	// Frames 1 and 2 of the chunk-straddling shape sit in different
	// chunks of slots: a write into each, then reads, flips and frame
	// copies on both sides of the boundary, then Reset.
	f.Add(seed(
		physOp(1, 1, 4064, 0, 0x3C), // Write64 near the end of frame 1
		physOp(5, 2, 3, 2, 0),       // FlipBit into frame 2: a hole there
		physOp(0, 2, 0, 0, 0x77),    // Write8 the first byte of frame 2
		physOp(3, 1, 4064, 0, 0),    // Read64 back on the far side
		physOp(5, 2, 3, 2, 0),       // FlipBit into frame 2 lands now
		physOp(7, 2, 241<<4, 0, 0),  // ReadFrame frame 2
		physOp(8, 3, 241<<4, 0, 9),  // WriteFrame the memory's last frame
		physOp(9, 0, 0, 0, 0),       // Reset
		physOp(4, 1, 4064, 0, 0),    // Bit: a hole again
		physOp(0, 1, 8, 0, 1),       // Write8 re-materializes frame 1
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shape := range physShapes {
			if msg := runPhysOps(shape, data); msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

// TestWriteFootprint pins the line layout's host cost: N frames, each
// with one Write64, allocate at most N × (256 + 64) B — a line table
// and a line per frame — plus a stated slack. The slack is slab
// growth: below 256 entries a slab appended to one entry at a time
// doubles its capacity, so at N = 255 (256 entries with the sentinel
// New allocated) the arrays it outgrew sum to fewer entries than its
// final size, another N × (256 + 64) B; plus 2N × 8 B for the owner
// list the same way and 4 KiB for the runtime. The frames written, 0
// to 2(N−1), also span k chunks of slots, each materialized on its
// first frame: the chunk slab doubles the same way from its sentinel,
// so its final capacity is at most 2k and what it outgrew sums to less,
// 4k chunks of slack. TotalAlloc is process-wide and the writes
// allocate the same bytes every run, so the smallest delta of five
// runs is theirs, as dram's TestNewFootprint measures New.
func TestWriteFootprint(t *testing.T) {
	const n = 255
	const chunks = 2*(n-1)/sparse.ChunkLen + 1
	limit := uint64(n*(256+64)) + uint64(n*(256+64)+2*n*8+4<<10) + 4*chunks*sparse.ChunkLen*4
	least := uint64(math.MaxUint64)
	for range 5 {
		m := MustNew(2 * n * FrameSize)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for f := Frame(0); f < n; f++ {
			m.Write64(Frame(2*f).Addr()+Addr(8*f), uint64(f)+1)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		runtime.KeepAlive(m)
	}
	if least > limit {
		t.Errorf("%d frames with one Write64 each allocated %d bytes, want at most %d", n, least, limit)
	}
}
