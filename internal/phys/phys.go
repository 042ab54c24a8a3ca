// Package phys models the machine's physical memory as a sparse array of
// 4 KiB frames whose bytes are held in 64-byte lines. A frame
// materializes on its first write and a line on the first write into
// it; every other byte reads as zero. The host cost is 4 B per
// sparse.ChunkLen modelled frames (the frame directory), 512 B per
// chunk of sparse.ChunkLen frames the simulation writes into, 264 B per
// materialized frame (a 256 B line table and an owner entry) and 64 B
// per written line, in pointer-free slices the GC never scans. All
// simulated state that must survive a rowhammer bit flip — most
// importantly page tables — lives in these bytes: the DRAM flip engine
// mutates them directly and the MMU later reads the corrupted values
// back, exactly as on real hardware.
package phys

import (
	"fmt"
	"math"

	"pthammer/internal/sparse"
)

// FrameSize is the size of a physical frame in bytes (x86 4 KiB pages).
const FrameSize = 4096

// FrameShift is log2(FrameSize).
const FrameShift = 12

// lineBytes is the unit Memory materializes bytes in: one 64-byte
// cache line, the span of eight page-table entries.
const (
	lineBytes     = 64
	lineShift     = 6
	linesPerFrame = FrameSize / lineBytes
)

// Addr is a physical byte address.
type Addr uint64

// Frame is a physical frame number (Addr >> FrameShift).
type Frame uint64

// Addr returns the base physical address of the frame.
//
//pthammer:noalloc
func (f Frame) Addr() Addr { return Addr(f) << FrameShift }

// FrameOf returns the frame containing the physical address.
//
//pthammer:noalloc
func FrameOf(a Addr) Frame { return Frame(a >> FrameShift) }

// Offset returns the offset of the address within its frame.
//
//pthammer:noalloc
func Offset(a Addr) uint64 { return uint64(a) & (FrameSize - 1) }

// Memory is a sparse physical memory of a fixed size. The zero value is
// not usable; create one with New.
//
// A byte is found in four dependent loads and no branch past the
// frame's bound check: the frame directory's entry, the frame's slot
// in that chunk of slots, the line's entry in the frame's line table,
// and the line's bytes. Every level has a sentinel: the directory entry
// of a chunk of frames never written names the all-zero sentinel chunk,
// so its frames' slots read 0; slot 0 names an all-unwritten line table;
// and an unwritten line's entry is 0, which names an all-zero line that
// nothing ever writes. The frame table is a two-level array rather than
// a map: a frame lookup sits under every simulated page-table read, so
// it must cost indexed loads, not a hash probe. Slots, chunk indices
// and line-table entries are uint32 indices, not pointers: the frame
// directory costs 4 B per sparse.ChunkLen frames (8 KiB for a 1 GiB
// machine), a chunk of slots 512 B, a materialized frame's line table
// 256 B, a written line 64 B, and Memory holds no pointer but its slice
// headers, so the GC never scans its contents. A sprayed page table
// with a handful of written entries thus costs a few hundred bytes,
// not 4 KiB, and a frame no one writes costs nothing past its share of
// the directory.
//
// Materializing appends to the tables and lines slabs, and appending
// may move a slab: no code may hold a line pointer across a call that
// can materialize one.
type Memory struct {
	size uint64
	// frames is size / FrameSize, the bound every frame is checked
	// against: slot's directory rounds up to whole chunks.
	frames uint64
	// slot maps each frame to its line table's index in tables: 0 for
	// a hole.
	slot sparse.Array
	// tables lists the sentinel and then the materialized frames' line
	// tables in first-touch order; tables[i] belongs to frame
	// owner[i-1]. A line table maps each of its frame's lines to the
	// line's index in lines: 0 while the line is unwritten. owner is
	// the list of slots Reset must clear.
	tables [][linesPerFrame]uint32
	owner  []Frame
	// lines lists the sentinel and then the written lines' bytes in
	// first-write order. A uint32 index caps it at 2^32−1 lines,
	// 256 GiB of written bytes.
	lines [][lineBytes]byte
	// writes counts byte-granularity stores, used by tests to assert
	// that simulated devices really touch memory.
	writes uint64
}

// New creates a physical memory of size bytes. Size must be a non-zero
// multiple of FrameSize, and at most math.MaxUint32 frames, the most a
// uint32 slot can index. It allocates the frame directory, 4 B per
// sparse.ChunkLen frames, and the slabs' sentinels; frames cost host
// memory only once written.
func New(size uint64) (*Memory, error) {
	if size == 0 || size%FrameSize != 0 {
		return nil, fmt.Errorf("phys: size %d is not a positive multiple of %d", size, FrameSize)
	}
	frames := size / FrameSize
	if frames > math.MaxUint32 {
		return nil, fmt.Errorf("phys: %d frames exceed the frame table's limit of %d", frames, uint64(math.MaxUint32))
	}
	return &Memory{
		size:   size,
		frames: frames,
		slot:   sparse.Make(frames),
		tables: make([][linesPerFrame]uint32, 1),
		lines:  make([][lineBytes]byte, 1),
	}, nil
}

// MustNew is New but panics on error; intended for tests and presets with
// statically known sizes.
func MustNew(size uint64) *Memory {
	m, err := New(size)
	if err != nil {
		panic(err)
	}
	return m
}

// Size returns the capacity of the memory in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Frames returns the number of physical frames.
//
//pthammer:noalloc
func (m *Memory) Frames() uint64 { return m.frames }

// Contains reports whether the address is inside the memory.
//
//pthammer:noalloc
func (m *Memory) Contains(a Addr) bool { return uint64(a) < m.size }

// frame returns f's slot, materializing the frame with an all-unwritten
// line table on first touch. Panics if f is out of range: callers are
// simulated hardware, and an out-of-range physical access is a
// simulator bug, not a runtime condition to handle.
//
//pthammer:noalloc
func (m *Memory) frame(f Frame) uint32 {
	s := m.peek(f)
	if s == 0 {
		s = uint32(len(m.tables))
		m.tables = append(m.tables, [linesPerFrame]uint32{}) //pthammer:alloc-ok amortized slab growth, capacity kept across Reset
		m.owner = append(m.owner, f)                         //pthammer:alloc-ok amortized growth, capacity kept across Reset
		*m.slot.Ref(uint64(f)) = s
	}
	return s
}

// peek returns f's slot: 0 if the frame has never been written. Read
// paths use it so sweeping loads over a large address space do not
// materialize host memory. Panics like frame on out-of-range frames.
//
//pthammer:noalloc
func (m *Memory) peek(f Frame) uint32 {
	if uint64(f) >= m.frames {
		panic(frameRangeError{f, m.frames})
	}
	return m.slot.Get(uint64(f))
}

// frameRangeError is peek's panic value. The message is formatted only
// when printed, so the panic costs peek no call and peek inlines into
// the read paths.
type frameRangeError struct {
	f      Frame
	frames uint64
}

func (e frameRangeError) Error() string {
	return fmt.Sprintf("phys: frame %#x out of range (%d frames)", uint64(e.f), e.frames)
}

// line returns the line holding a for writing, materializing its
// frame and then the line itself (zeroed) on first write, so it never
// returns the sentinel. The pointer is valid only until the next
// materialization.
//
//pthammer:noalloc
func (m *Memory) line(a Addr) *[lineBytes]byte {
	t := &m.tables[m.frame(FrameOf(a))]
	i := uint64(a) >> lineShift & (linesPerFrame - 1)
	if t[i] == 0 {
		t[i] = uint32(len(m.lines))
		m.lines = append(m.lines, [lineBytes]byte{}) //pthammer:alloc-ok amortized slab growth, capacity kept across Reset
	}
	return &m.lines[t[i]]
}

// peekLine returns the line holding a for reading: the all-zero
// sentinel if it has never been written. Like peek, it never
// materializes anything, and its result must not be written.
//
//pthammer:noalloc
func (m *Memory) peekLine(a Addr) *[lineBytes]byte {
	return &m.lines[m.tables[m.peek(FrameOf(a))][uint64(a)>>lineShift&(linesPerFrame-1)]]
}

// zeroLines clears the written lines of the frame in slot s in place.
//
//pthammer:noalloc
func (m *Memory) zeroLines(s uint32) {
	for _, l := range &m.tables[s] {
		if l != 0 {
			m.lines[l] = [lineBytes]byte{}
		}
	}
}

// Materialized returns how many frames have been lazily allocated so far.
func (m *Memory) Materialized() int { return len(m.owner) }

// Read8 returns the byte at physical address a. Reading a never-written
// line returns zero without materializing it.
func (m *Memory) Read8(a Addr) byte {
	return m.peekLine(a)[a&(lineBytes-1)]
}

// Write8 stores b at physical address a.
func (m *Memory) Write8(a Addr, b byte) {
	m.line(a)[a&(lineBytes-1)] = b
	m.writes++
}

// Read64 loads a little-endian 64-bit value. The address must be 8-byte
// aligned (page-table entries always are).
//
//pthammer:noalloc
func (m *Memory) Read64(a Addr) uint64 {
	if a&7 != 0 {
		panic(fmt.Sprintf("phys: unaligned 64-bit read at %#x", uint64(a)))
	}
	// The mask keeps the word inside the line without a bounds check,
	// and the one little-endian expression fuses into a single 8-byte
	// load; this sits under every page-walk step.
	off := a & (lineBytes - 8)
	b := m.peekLine(a)[off : off+8 : off+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Write64 stores a little-endian 64-bit value. The address must be 8-byte
// aligned.
//
//pthammer:noalloc
func (m *Memory) Write64(a Addr, v uint64) {
	if a&7 != 0 {
		panic(fmt.Sprintf("phys: unaligned 64-bit write at %#x", uint64(a)))
	}
	off := a & (lineBytes - 8)
	b := m.line(a)[off : off+8 : off+8]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	m.writes += 8
}

// ReadFrame copies the contents of frame f into dst and returns the number
// of bytes copied (always FrameSize when dst is large enough). Unwritten
// lines read as zeros, and nothing is materialized.
func (m *Memory) ReadFrame(f Frame, dst []byte) int {
	s := m.peek(f)
	dst = dst[:min(len(dst), FrameSize)]
	for i, l := range &m.tables[s] {
		if off := i * lineBytes; off < len(dst) {
			copy(dst[off:], m.lines[l][:])
		}
	}
	return len(dst)
}

// WriteFrame copies src into frame f starting at offset 0, materializing
// the frame and the lines it covers.
func (m *Memory) WriteFrame(f Frame, src []byte) int {
	m.frame(f)
	src = src[:min(len(src), FrameSize)]
	for off := 0; off < len(src); off += lineBytes {
		copy(m.line(f.Addr() + Addr(off))[:], src[off:])
	}
	m.writes += uint64(len(src))
	return len(src)
}

// ZeroFrame clears frame f, materializing the frame but no line: its
// written lines are zeroed in place. The kernel uses this when handing
// out pages.
func (m *Memory) ZeroFrame(f Frame) {
	m.zeroLines(m.frame(f))
	m.writes += FrameSize
}

// Reset returns the memory to its just-built state: every materialized
// frame is released back to hole status and the write/materialization
// accounting rewinds to zero. Releasing (rather than zeroing in place)
// is load-bearing for the Reset/Recycle contract: a freshly built
// machine's memory is all holes, and FlipBit into a hole is a no-op
// miss, so a recycled machine must present the same holes or its flip
// model's attempt/miss accounting would diverge from a fresh one's.
// Cost is one slot store per materialized frame, O(live state) rather
// than O(capacity), and no allocation. The slabs keep their capacity,
// and materializing appends zeroed entries, so re-materializing up to
// the previous counts allocates nothing either; the chunks of slots
// stay materialized, all zero again.
func (m *Memory) Reset() {
	for _, f := range m.owner {
		m.slot.Clear(uint64(f))
	}
	m.tables = m.tables[:1]
	m.owner = m.owner[:0]
	m.lines = m.lines[:1]
	m.writes = 0
}

// FlipBit inverts a single bit at physical address a. It returns the
// new value of the bit and whether the flip was applied. This is the
// DRAM disturbance-error entry point: it is the only mutation in the
// simulator that does not originate from a CPU store.
//
// Hole semantics: a never-written frame has no simulated content, so a
// flip aimed into one is a no-op reporting ok=false — the frame is not
// materialized and no write is counted. This mirrors Bit, which reads
// the same hole as 0 without materializing, and keeps a flip model
// walking a sparse victim row from inflating Materialized and
// WriteCount with frames the simulation never defined. Flips only ever
// land in frames the simulation has written (page tables, filled
// victim pages), exactly the cells whose content a real disturbance
// error corrupts. Within such a frame every line is defined: a flip
// into a line no store reached lands on its zero bytes and
// materializes the line.
func (m *Memory) FlipBit(a Addr, bit uint) (byte, bool) {
	if bit > 7 {
		panic(fmt.Sprintf("phys: bit index %d out of range", bit))
	}
	if m.peek(FrameOf(a)) == 0 {
		return 0, false
	}
	ln := m.line(a)
	off := a & (lineBytes - 1)
	ln[off] ^= 1 << bit
	m.writes++
	return (ln[off] >> bit) & 1, true
}

// Bit returns the current value (0 or 1) of the given bit. Reading a
// never-written line reports 0 without materializing it — the same
// read-side view FlipBit's hole semantics build on.
func (m *Memory) Bit(a Addr, bit uint) byte {
	if bit > 7 {
		panic(fmt.Sprintf("phys: bit index %d out of range", bit))
	}
	return (m.peekLine(a)[a&(lineBytes-1)] >> bit) & 1
}

// WriteCount returns the number of byte stores performed so far.
func (m *Memory) WriteCount() uint64 { return m.writes }
