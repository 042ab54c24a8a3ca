// Package phys models the machine's physical memory as a sparse array of
// 4 KiB frames. Frames are allocated lazily on first touch, so an 8 GiB
// machine costs host memory only for the frames the simulation actually
// writes. All simulated state that must survive a rowhammer bit flip —
// most importantly page tables — lives in these bytes: the DRAM flip
// engine mutates them directly and the MMU later reads the corrupted
// values back, exactly as on real hardware.
package phys

import (
	"fmt"
	"math"
)

// FrameSize is the size of a physical frame in bytes (x86 4 KiB pages).
const FrameSize = 4096

// FrameShift is log2(FrameSize).
const FrameShift = 12

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
// The frame table is a flat per-frame slot array rather than a map: a
// frame lookup sits under every simulated page-table read, so a hole
// must cost one indexed load, not a hash probe. The slots are uint32
// indices, not pointers: the table costs 4 bytes per frame (1 MiB for
// a 1 GiB machine), the GC never scans it, and only the materialized
// frames' backing arrays are pointer-reachable.
type Memory struct {
	size uint64
	// slot maps each frame to its backing array: 0 for a hole, else 1 +
	// the frame's index in data and owner.
	slot []uint32
	// data and owner list the materialized frames in first-touch order:
	// data[i] backs frame owner[i]. Their length is the materialized
	// count, and owner is the list of slots Reset must clear. Past its
	// length, data's capacity keeps the arrays a Reset released (a
	// non-nil prefix), for frame to reuse before it allocates.
	data  []*[FrameSize]byte
	owner []Frame
	// writes counts byte-granularity stores, used by tests to assert
	// that simulated devices really touch memory.
	writes uint64
}

// New creates a physical memory of size bytes. Size must be a non-zero
// multiple of FrameSize, and at most math.MaxUint32 frames, the most a
// uint32 slot can index.
func New(size uint64) (*Memory, error) {
	if size == 0 || size%FrameSize != 0 {
		return nil, fmt.Errorf("phys: size %d is not a positive multiple of %d", size, FrameSize)
	}
	frames := size / FrameSize
	if frames > math.MaxUint32 {
		return nil, fmt.Errorf("phys: %d frames exceed the frame table's limit of %d", frames, uint64(math.MaxUint32))
	}
	return &Memory{size: size, slot: make([]uint32, frames)}, nil
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
func (m *Memory) Frames() uint64 { return m.size / FrameSize }

// Contains reports whether the address is inside the memory.
//
//pthammer:noalloc
func (m *Memory) Contains(a Addr) bool { return uint64(a) < m.size }

// frame returns the backing array for f, materializing it (zeroed) on
// first touch: it reuses the next array a Reset released, cleared, and
// allocates only once those run out. Panics if f is out of range:
// callers are simulated hardware, and an out-of-range physical access
// is a simulator bug, not a runtime condition to handle.
//
//pthammer:noalloc
func (m *Memory) frame(f Frame) *[FrameSize]byte {
	fr := m.peek(f)
	if fr == nil {
		if n := len(m.data); n < cap(m.data) && m.data[:n+1][n] != nil {
			m.data = m.data[:n+1]
			fr = m.data[n]
			clear(fr[:])
		} else {
			fr = new([FrameSize]byte)   //pthammer:alloc-ok lazy first-touch materialization, once per array past the released ones
			m.data = append(m.data, fr) //pthammer:alloc-ok amortized growth, capacity kept across Reset
		}
		m.owner = append(m.owner, f) //pthammer:alloc-ok amortized growth, capacity kept across Reset
		m.slot[f] = uint32(len(m.data))
	}
	return fr
}

// peek returns the backing array for f, or nil if the frame has never
// been written. Read paths use it so sweeping loads over a large
// address space do not materialize host memory. Panics like frame on
// out-of-range frames.
//
//pthammer:noalloc
func (m *Memory) peek(f Frame) *[FrameSize]byte {
	if uint64(f) >= uint64(len(m.slot)) {
		panic(fmt.Sprintf("phys: frame %#x out of range (%d frames)", uint64(f), m.Frames()))
	}
	s := m.slot[f]
	if s == 0 {
		return nil
	}
	return m.data[s-1]
}

// Materialized returns how many frames have been lazily allocated so far.
func (m *Memory) Materialized() int { return len(m.owner) }

// Read8 returns the byte at physical address a. Reading a never-written
// frame returns zero without materializing it.
func (m *Memory) Read8(a Addr) byte {
	fr := m.peek(FrameOf(a))
	if fr == nil {
		return 0
	}
	return fr[Offset(a)]
}

// Write8 stores b at physical address a.
func (m *Memory) Write8(a Addr, b byte) {
	m.frame(FrameOf(a))[Offset(a)] = b
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
	fr := m.peek(FrameOf(a))
	if fr == nil {
		return 0
	}
	off := Offset(a)
	// Written as one little-endian expression so the compiler fuses it
	// into a single 8-byte load; this sits under every page-walk step.
	b := fr[off : off+8 : off+8]
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
	fr := m.frame(FrameOf(a))
	off := Offset(a)
	b := fr[off : off+8 : off+8]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	m.writes += 8
}

// ReadFrame copies the contents of frame f into dst and returns the number
// of bytes copied (always FrameSize when dst is large enough). A
// never-written frame reads as zeros without materializing.
func (m *Memory) ReadFrame(f Frame, dst []byte) int {
	fr := m.peek(f)
	if fr == nil {
		var zero [FrameSize]byte
		return copy(dst, zero[:])
	}
	return copy(dst, fr[:])
}

// WriteFrame copies src into frame f starting at offset 0.
func (m *Memory) WriteFrame(f Frame, src []byte) int {
	n := copy(m.frame(f)[:], src)
	m.writes += uint64(n)
	return n
}

// ZeroFrame clears frame f. The kernel uses this when handing out pages.
func (m *Memory) ZeroFrame(f Frame) {
	fr := m.frame(f)
	for i := range fr {
		fr[i] = 0
	}
	m.writes += FrameSize
}

// ScrubFrame zeroes frame f in place if it has been materialized,
// counting the writes; a hole is left untouched. Recycling paths
// (pagetable.Tables.Reset) use this instead of ZeroFrame so that
// scrubbing a pool never materializes frames the simulation has not
// defined — a hole already reads as zero, and materializing it would
// silently change FlipBit's hole semantics for the next cohort.
func (m *Memory) ScrubFrame(f Frame) {
	fr := m.peek(f)
	if fr == nil {
		return
	}
	for i := range fr {
		fr[i] = 0
	}
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
// than O(capacity), and no allocation. The released arrays stay in
// data's capacity and frame clears and reuses them, so re-materializing
// up to the previous count allocates nothing either.
func (m *Memory) Reset() {
	for _, f := range m.owner {
		m.slot[f] = 0
	}
	m.data = m.data[:0]
	m.owner = m.owner[:0]
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
// error corrupts.
func (m *Memory) FlipBit(a Addr, bit uint) (byte, bool) {
	if bit > 7 {
		panic(fmt.Sprintf("phys: bit index %d out of range", bit))
	}
	fr := m.peek(FrameOf(a))
	if fr == nil {
		return 0, false
	}
	off := Offset(a)
	fr[off] ^= 1 << bit
	m.writes++
	return (fr[off] >> bit) & 1, true
}

// Bit returns the current value (0 or 1) of the given bit. Reading a
// never-written frame reports 0 without materializing it — the same
// hole semantics FlipBit applies on the mutation side.
func (m *Memory) Bit(a Addr, bit uint) byte {
	if bit > 7 {
		panic(fmt.Sprintf("phys: bit index %d out of range", bit))
	}
	fr := m.peek(FrameOf(a))
	if fr == nil {
		return 0
	}
	return (fr[Offset(a)] >> bit) & 1
}

// WriteCount returns the number of byte stores performed so far.
func (m *Memory) WriteCount() uint64 { return m.writes }
