// Package ptwalk is the hardware page walker: the mem.Translator the
// TLB chain falls back to on a full miss. It replaces the machine's
// old fixed-cost stub with the mechanism PThammer actually exploits —
// on every walk the MMU issues *implicit*, kernel-privileged memory
// accesses to fetch page-table entries, and those fetches traverse the
// same L1 → L2 → LLC → DRAM path as explicit loads. A user-space load
// whose translation misses the TLB therefore opens DRAM rows and
// increments per-row ACT counters in the banks holding the page
// tables, without the user program ever addressing them.
//
// # Page-table layout and walk
//
// The walker traverses the radix tables owned by internal/pagetable:
// four levels (PML4 → PDPT → PD → PT), one 4 KiB frame per table, 512
// little-endian 8-byte entries per frame. For a virtual address va the
// walk starts at the root (CR3) frame and, per level, issues a PTE
// fetch for the 8-byte entry at
//
//	table.Addr() + Index(va, level)*8
//
// through the cache hierarchy (charging whatever that hop costs — an
// L1 hit if the entry's line is cached, a DRAM row activation if not),
// charges the fixed per-level PageWalkStep on top, and then reads the
// actual entry bytes from phys.Memory. The frame bits of the fetched
// entry select the next level's table, so a bit flipped in a table
// frame (phys.FlipBit — the rowhammer disturbance) redirects every
// later walk through it: translation corruption falls out of the
// layout instead of being simulated.
//
// # Paging-structure caches
//
// Real MMUs short-circuit walks with small caches over the upper
// levels (Intel's PML4E/PDPTE/PDE caches). The walker models all
// three: before walking it probes the PDE cache (tag va>>21, value =
// PT frame), then the PDPTE cache (va>>30 → PD frame), then the PML4E
// cache (va>>39 → PDPT frame). The deepest hit skips every level above
// it, charges timing.PSCacheHit once, and counts perf.PSCacheHit; each
// level actually walked counts its perf.WalkStep* event and installs
// its entry into the matching cache. A PT-level fetch that is served
// from DRAM counts perf.L1PTEMemoryFetch — the paper's implicit
// hammer accesses. Invalidate drops one address's entries from all
// three caches (the paging-structure half of invlpg).
//
// # Demand mapping
//
// A walk that finds a non-present entry raises a fault to the Fault
// handler (the machine installs an identity-mapping handler, playing
// the OS populating tables on first touch), then re-reads the entry.
// The handler's table writes are direct phys stores and charge no
// simulated time: only the hardware walk itself is timed.
package ptwalk

import (
	"fmt"

	"pthammer/internal/mem"
	"pthammer/internal/pagetable"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// walkStepEvent[level-1] is the perf event counting entry fetches at
// that level.
var walkStepEvent = [pagetable.Levels]perf.Event{
	perf.WalkStepPTE, perf.WalkStepPDE, perf.WalkStepPDPTE, perf.WalkStepPML4E,
}

// Walker implements mem.Translator over a pagetable.Tables instance.
type Walker struct {
	tables   *pagetable.Tables
	memory   mem.Device // the L1→L2→LLC→DRAM chain PTE fetches traverse
	pmem     *phys.Memory
	clock    *timing.Clock
	counters *perf.Counters

	// psc[level-2] caches entries fetched at that level: index 0 is the
	// PDE cache (tag va>>21), 1 the PDPTE cache (va>>30), 2 the PML4E
	// cache (va>>39). The cached value is the next-level table frame
	// the entry pointed at.
	psc [pagetable.Levels - 1]*mem.SetAssoc

	stepCost timing.Cycles
	pscHit   timing.Cycles

	// Fault is invoked when a walk hits a non-present entry at the
	// given level; it must make the entry present (typically by mapping
	// va). A nil handler makes a non-present entry panic — standalone
	// walkers in tests pre-map their address space.
	Fault func(va phys.Addr, level int)
}

// New builds the walker over the given tables, fetching entries
// through memory (the cache hierarchy).
func New(tables *pagetable.Tables, memory mem.Device, pmem *phys.Memory, clock *timing.Clock, counters *perf.Counters, lat timing.LatencyTable) (*Walker, error) {
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	if tables == nil || memory == nil || pmem == nil || clock == nil || counters == nil {
		return nil, fmt.Errorf("ptwalk: tables, memory, pmem, clock and counters must be non-nil")
	}
	return &Walker{
		tables:   tables,
		memory:   memory,
		pmem:     pmem,
		clock:    clock,
		counters: counters,
		stepCost: lat.PageWalkStep,
		pscHit:   lat.PSCacheHit,
		// Sandy Bridge-class shapes: a 32-entry 4-way PDE cache under
		// tiny fully-associative PDPTE and PML4E caches.
		psc: [...]*mem.SetAssoc{mem.NewSetAssoc(8, 4), mem.NewSetAssoc(1, 4), mem.NewSetAssoc(1, 4)},
	}, nil
}

// pscTag returns the tag the paging-structure cache covering `level`
// uses: the virtual address truncated to that level's span. psc[i]
// covers level i+2.
//
//pthammer:noalloc
func pscTag(va phys.Addr, level int) uint64 {
	return uint64(va) >> (phys.FrameShift + pagetable.IndexBits*(level-1))
}

// Reset empties the paging-structure caches, as a recycled machine's
// fresh address space requires (the Reset/Recycle contract): a stale
// PDE/PDPTE/PML4E entry surviving into the next cohort would short-cut
// walks into the previous tenant's recycled tables. The Tables pointer
// itself stays — tables are recycled in place by pagetable.Reset.
//
//pthammer:noalloc
func (w *Walker) Reset() {
	for _, c := range w.psc {
		c.Reset()
	}
}

// Translate performs the hardware walk for va and returns the frame
// the leaf PTE maps it to. The reported latency is everything the walk
// charged: an optional PS-cache hit, and per walked level the PTE
// fetch plus the fixed PageWalkStep.
//
//pthammer:noalloc
func (w *Walker) Translate(va phys.Addr) (phys.Frame, mem.Result) {
	table := w.tables.Root()
	start := pagetable.Levels
	var total timing.Cycles

	// Deepest paging-structure cache hit wins: start the walk below it.
	for level := 2; level <= pagetable.Levels; level++ {
		if v, hit := w.psc[level-2].LookupV(pscTag(va, level)); hit {
			table = phys.Frame(v)
			start = level - 1
			w.clock.Advance(w.pscHit)
			w.counters.Inc(perf.PSCacheHit)
			total += w.pscHit
			break
		}
	}

	for level := start; level >= 1; level-- {
		entryAddr := pagetable.EntryAddrIn(table, va, level)
		res := w.memory.Lookup(entryAddr) //pthammer:alloc-ok interface dispatch to the wired cache hierarchy, itself noalloc
		w.clock.Advance(w.stepCost)
		w.counters.Inc(walkStepEvent[level-1])
		if level == 1 && res.Source == mem.LevelDRAM {
			w.counters.Inc(perf.L1PTEMemoryFetch)
		}
		total += res.Latency + w.stepCost

		e := pagetable.Entry(w.pmem.Read64(entryAddr))
		if !e.Present() {
			if w.Fault == nil {
				panic(fmt.Sprintf("ptwalk: non-present level-%d entry for %#x and no fault handler", level, uint64(va)))
			}
			w.Fault(va, level) //pthammer:alloc-ok demand-mapping fault handler, cold path
			e = pagetable.Entry(w.pmem.Read64(entryAddr))
			if !e.Present() {
				panic(fmt.Sprintf("ptwalk: fault handler left level-%d entry for %#x non-present", level, uint64(va)))
			}
		}
		next := e.Frame()
		if level >= 2 {
			w.psc[level-2].InsertV(pscTag(va, level), uint64(next))
		}
		table = next
	}

	w.counters.Inc(perf.PageWalkCompleted)
	return table, mem.Result{Latency: total, Hit: false, Source: mem.LevelPageWalk}
}

// Invalidate drops va's entries from all three paging-structure
// caches — the paging-structure half of invlpg (the TLB half lives in
// internal/tlb). It reports whether any cache held an entry.
//
//pthammer:noalloc
func (w *Walker) Invalidate(va phys.Addr) bool {
	any := false
	for level := 2; level <= pagetable.Levels; level++ {
		if w.psc[level-2].Invalidate(pscTag(va, level)) {
			any = true
		}
	}
	return any
}

// PSContains reports which paging-structure caches currently hold an
// entry covering va, for tests: PDE, PDPTE, PML4E order.
func (w *Walker) PSContains(va phys.Addr) (pde, pdpte, pml4e bool) {
	return w.psc[0].Contains(pscTag(va, 2)),
		w.psc[1].Contains(pscTag(va, 3)),
		w.psc[2].Contains(pscTag(va, 4))
}
