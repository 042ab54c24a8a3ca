// Package pagetable owns the radix page-table layout the hardware page
// walker (internal/ptwalk) traverses. Tables are real bytes in
// phys.Memory — one 4 KiB frame per table, 512 little-endian 8-byte
// entries per frame, four levels (PML4 → PDPT → PD → PT) exactly like
// x86-64 4 KiB paging — so a rowhammer bit flip landing in a table
// frame (phys.FlipBit) changes what later walks resolve to, which is
// PThammer's exploitation step.
//
// Table frames come from a reserved region of physical memory managed
// by a bump allocator (the simulated kernel's page-table pool, placed
// at the top of DRAM by the machine facade). The region is sized by
// FramesToMap so a full identity mapping of the machine can never
// exhaust it.
package pagetable

import (
	"fmt"

	"pthammer/internal/phys"
)

const (
	// EntriesPerTable is the number of entries in one table frame.
	EntriesPerTable = phys.FrameSize / EntryBytes
	// EntryBytes is the size of one table entry.
	EntryBytes = 8
	// Levels is the depth of the radix tree: PML4, PDPT, PD, PT.
	Levels = 4

	// IndexBits is the radix width: how many VA bits each level consumes.
	IndexBits = 9

	indexMask = EntriesPerTable - 1
)

// Entry is one page-table entry in the x86-64 layout subset the
// simulator uses: bit 0 is the present bit and bits 12..51 hold the
// next-level (or final, at the PT level) frame number.
type Entry uint64

const (
	entryPresent   Entry = 1
	entryFrameMask Entry = 0x000F_FFFF_FFFF_F000
)

// NewEntry builds a present entry pointing at the frame.
func NewEntry(f phys.Frame) Entry {
	return Entry(f.Addr())&entryFrameMask | entryPresent
}

// Present reports whether the entry maps anything.
//
//pthammer:noalloc
func (e Entry) Present() bool { return e&entryPresent != 0 }

// Frame returns the frame number the entry points to.
//
//pthammer:noalloc
func (e Entry) Frame() phys.Frame { return phys.FrameOf(phys.Addr(e & entryFrameMask)) }

// Index returns the radix index the given level uses for the virtual
// address: level 4 is the PML4 (bits 39..47) down to level 1, the PT
// (bits 12..20).
//
//pthammer:noalloc
func Index(va phys.Addr, level int) uint64 {
	if level < 1 || level > Levels {
		panic(fmt.Sprintf("pagetable: level %d out of range", level))
	}
	return uint64(va) >> (phys.FrameShift + IndexBits*(level-1)) & indexMask
}

// EntryAddrIn is the physical address of the entry a walk of va
// consults inside the given table frame at the given level. It is the
// single place the entry-position math lives; the hardware walker
// (internal/ptwalk) computes its fetch targets with it as it descends.
//
//pthammer:noalloc
func EntryAddrIn(table phys.Frame, va phys.Addr, level int) phys.Addr {
	return table.Addr() + phys.Addr(Index(va, level)*EntryBytes)
}

// Span returns how many bytes of virtual address space one entry at
// the given level maps: 4 KiB at the PT, 2 MiB at the PD, and so on.
func Span(level int) uint64 {
	if level < 1 || level > Levels {
		panic(fmt.Sprintf("pagetable: level %d out of range", level))
	}
	return uint64(phys.FrameSize) << (IndexBits * (level - 1))
}

// FramesToMap returns how many table frames a full 4 KiB-page mapping
// of memBytes of address space needs: the PTs to hold every PTE, the
// PDs above them, the PDPTs above those, and one PML4.
func FramesToMap(memBytes uint64) uint64 {
	ceil := func(n uint64) uint64 { return (n + EntriesPerTable - 1) / EntriesPerTable }
	pages := (memBytes + phys.FrameSize - 1) / phys.FrameSize
	pts := ceil(pages)
	pds := ceil(pts)
	pdpts := ceil(pds)
	return 1 + pdpts + pds + pts
}

// Tables is one address space: a root (CR3) table plus a bump
// allocator handing out table frames from its pool. The pool is an
// explicit frame list so one machine can host several address spaces
// whose pools interleave (the multi-tenant mode stripes tenants'
// pools across DRAM row indices, putting different tenants' tables in
// physically adjacent rows of the same banks — the cross-tenant attack
// surface); the single-core machine hands it one contiguous pool at
// the top of memory.
type Tables struct {
	mem  *phys.Memory
	pool []phys.Frame
	next int
	root phys.Frame
}

// NewWithFrames creates an address space whose table frames come from
// the given pool, handed out in order. The pool need not be contiguous
// or sorted; it must be non-empty (the root is allocated, and zeroed,
// immediately) and every frame must lie inside memory.
func NewWithFrames(m *phys.Memory, pool []phys.Frame) (*Tables, error) {
	if m == nil {
		return nil, fmt.Errorf("pagetable: memory must be non-nil")
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("pagetable: table pool must hold at least the root frame")
	}
	for _, f := range pool {
		if uint64(f.Addr())+phys.FrameSize > m.Size() {
			return nil, fmt.Errorf("pagetable: pool frame %#x outside %d-byte memory", f.Addr(), m.Size())
		}
	}
	t := &Tables{mem: m, pool: pool}
	t.root = t.alloc()
	return t, nil
}

// alloc hands out the next table frame, zeroed. Exhausting the pool
// panics: the machine sizes it with FramesToMap, so running out is a
// simulator bug, not a runtime condition.
func (t *Tables) alloc() phys.Frame {
	if t.next == len(t.pool) {
		panic(fmt.Sprintf("pagetable: pool of %d frames exhausted", len(t.pool)))
	}
	f := t.pool[t.next]
	t.next++
	t.mem.ZeroFrame(f)
	return f
}

// Reset recycles the address space: every handed-out table frame goes
// back to the bump allocator and a fresh root is allocated, so the
// pool is re-bump-allocatable exactly as after NewWithFrames. No frame
// is scrubbed here: alloc zeroes each frame again as it hands it out,
// and the machine resets physical memory before its tables, so the
// recycled frames are holes by then. Part of the Reset/Recycle
// contract: no mapping, and no flipped table bit, survives into the
// next cohort.
func (t *Tables) Reset() {
	t.next = 0
	t.root = t.alloc()
}

// Root returns the root (CR3) table frame.
//
//pthammer:noalloc
func (t *Tables) Root() phys.Frame { return t.root }

// Allocated returns how many table frames have been handed out.
func (t *Tables) Allocated() int { return t.next }

// Frames returns the table frames handed out so far, in allocation
// order (the root first). The slice aliases internal state: read only.
func (t *Tables) Frames() []phys.Frame { return t.pool[:t.next] }

// Region returns the bounding box of the table-frame pool as
// [base, base+frames). For a contiguous pool this is exactly the
// pool; for an interleaved pool it may cover frames that
// belong to other address spaces, which is the conservative direction
// for every current caller (they use it to keep attacker surfaces
// away from table frames).
func (t *Tables) Region() (base phys.Frame, frames uint64) {
	lo, hi := t.pool[0], t.pool[0]
	for _, f := range t.pool[1:] {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return lo, uint64(hi-lo) + 1
}

// leaf returns the PT (the level-1 table) that translates va, walking
// down from the root and allocating each missing table top-down.
func (t *Tables) leaf(va phys.Addr) phys.Frame {
	table := t.root
	for level := Levels; level > 1; level-- {
		ea := EntryAddrIn(table, va, level)
		e := Entry(t.mem.Read64(ea))
		if !e.Present() {
			e = NewEntry(t.alloc())
			t.mem.Write64(ea, uint64(e))
		}
		table = e.Frame()
	}
	return table
}

// Map installs va → frame, allocating any missing intermediate tables.
// An existing mapping is overwritten.
func (t *Tables) Map(va phys.Addr, f phys.Frame) {
	t.mem.Write64(EntryAddrIn(t.leaf(va), va, 1), uint64(NewEntry(f)))
}

// MapRange identity-maps every page of [start, start+bytes). It walks
// down to each PT once and then fills that table's PTEs in one pass,
// so it allocates the same frames in the same order, and writes the
// same bytes, as calling Map on every page in turn. (The two could
// part only if a flip-corrupted upper entry pointed a PT back at one
// of its own ancestors; no table this package allocates does.)
func (t *Tables) MapRange(start phys.Addr, bytes uint64) {
	for off := uint64(0); off < bytes; {
		va := start + phys.Addr(off)
		pte := EntryAddrIn(t.leaf(va), va, 1)
		for i := Index(va, 1); i < EntriesPerTable && off < bytes; i++ {
			t.mem.Write64(pte, uint64(NewEntry(phys.FrameOf(va))))
			pte += EntryBytes
			va += phys.FrameSize
			off += phys.FrameSize
		}
	}
}

// EntryAddr returns the physical address of the entry consulted at the
// given level when translating va, walking the current table contents.
// ok is false when an intermediate entry on the path is not present.
// Level Levels (the PML4) never fails: its table is the root.
func (t *Tables) EntryAddr(va phys.Addr, level int) (phys.Addr, bool) {
	if level < 1 || level > Levels {
		panic(fmt.Sprintf("pagetable: level %d out of range", level))
	}
	table := t.root
	for l := Levels; l > level; l-- {
		e := Entry(t.mem.Read64(EntryAddrIn(table, va, l)))
		if !e.Present() || !t.inMemory(e.Frame()) {
			return 0, false
		}
		table = e.Frame()
	}
	return EntryAddrIn(table, va, level), true
}

// Resolve walks the tables without charging any simulated time and
// returns the frame va maps to. ok is false when the path is
// incomplete — including when a (possibly flip-corrupted) entry points
// outside physical memory, which on real hardware is a machine-check,
// not something a software walk can follow. This is the reference
// translation tests compare the timed walker (and corrupted tables)
// against.
func (t *Tables) Resolve(va phys.Addr) (phys.Frame, bool) {
	table := t.root
	for level := Levels; level >= 1; level-- {
		e := Entry(t.mem.Read64(EntryAddrIn(table, va, level)))
		if !e.Present() || !t.inMemory(e.Frame()) {
			return 0, false
		}
		table = e.Frame()
	}
	return table, true
}

// inMemory reports whether the frame lies entirely inside physical
// memory. Uncorrupted tables always point inside (Map only installs
// real frames); a rowhammer flip in a high bit of an entry's frame
// number can point anywhere in the 52-bit space.
func (t *Tables) inMemory(f phys.Frame) bool {
	return uint64(f.Addr())+phys.FrameSize <= t.mem.Size()
}
