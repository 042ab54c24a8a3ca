// The implicit-hammer primitive: PThammer's core loop drives DRAM row
// activations without ever loading the aggressor rows explicitly. Each
// iteration evicts one page's translation (TLB + paging-structure
// caches) and the cache line holding its leaf PTE, then loads the
// page — the walker's PTE fetch from the PT frame is what reaches
// DRAM. Alternating two pages whose PTEs sit in the same bank
// two rows apart turns those fetches into row conflicts that hammer
// the sandwiched victim row, which holds page-table bytes.
//
// Two variants share the aggressor-pair discovery: the privileged
// baseline (invlpg + clflush, what a kernel could do directly) and the
// paper's actual attack, ImplicitHammer, which drives the same walk
// traffic purely through measured eviction sets (internal/evset) — no
// privileged operation anywhere in the loop.
package bench

import (
	"fmt"
	"iter"

	"pthammer/internal/dram"
	"pthammer/internal/evset"
	"pthammer/internal/machine"
	"pthammer/internal/pagetable"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// ImplicitPair is a double-sided aggressor pair for implicit
// hammering: two virtual addresses whose leaf PTEs live in the same
// DRAM bank, two rows apart, so the walker's PTE fetches sandwich the
// row between them.
type ImplicitPair struct {
	VA1, VA2   phys.Addr // the pages the attacker loads
	PTE1, PTE2 phys.Addr // physical addresses of their leaf PTEs
	Loc1, Loc2 dram.Location
	// VictimRow is the page-table row between the two PTE rows.
	VictimRow uint64
}

// regionCand is one touched 2 MiB region, its leaf-PTE address, and
// that PTE's DRAM location, decoded once.
type regionCand struct {
	va  phys.Addr
	pte phys.Addr
	loc dram.Location
}

// touchRegions demand-loads up to n 2 MiB regions from address 0,
// stopping below the machine's page-table pool, and decodes each
// populated region's leaf PTE once: the candidate list every aggressor
// finder scans.
func touchRegions(m *machine.Machine, n int) []regionCand {
	span := pagetable.Span(2) // one PT covers a 2 MiB region
	geom := m.Config().DRAM
	poolBase, _ := m.PageTables().Region()
	cands := make([]regionCand, 0, n)
	for k := 0; k < n && uint64(k)*span < uint64(poolBase.Addr()); k++ {
		va := phys.Addr(uint64(k) * span)
		m.Load(va) // demand-allocate the region's page-table path
		if pte, ok := m.PTEAddr(va, 1); ok {
			cands = append(cands, regionCand{va: va, pte: pte, loc: geom.Map(pte)})
		}
	}
	return cands
}

// doubleSided yields the double-sided aggressor pairs among the
// candidates — same bank, PTE rows exactly two apart, lower row first —
// in dram.Pairs scan order.
func doubleSided(cands []regionCand) iter.Seq2[regionCand, regionCand] {
	locs := make([]dram.Location, len(cands))
	for i, c := range cands {
		locs[i] = c.loc
	}
	return func(yield func(lo, hi regionCand) bool) {
		for i, j := range dram.Pairs(locs) {
			if locs[j].Row-locs[i].Row == 2 && !yield(cands[i], cands[j]) {
				return
			}
		}
	}
}

// pairOf is the implicit pair over two candidates, lo on the lower
// row; the victim row is the one above lo's.
func pairOf(lo, hi regionCand) ImplicitPair {
	return ImplicitPair{
		VA1: lo.va, VA2: hi.va,
		PTE1: lo.pte, PTE2: hi.pte,
		Loc1: lo.loc, Loc2: hi.loc,
		VictimRow: lo.loc.Row + 1,
	}
}

// firstPair returns the first double-sided candidate pair keep accepts
// (nil accepts every pair).
func firstPair(cands []regionCand, keep func(ImplicitPair) bool) (ImplicitPair, bool) {
	for lo, hi := range doubleSided(cands) {
		if p := pairOf(lo, hi); keep == nil || keep(p) {
			return p, true
		}
	}
	return ImplicitPair{}, false
}

// near reports whether loc lies in the rows a flip from hammering p can
// corrupt: the hammered bank, from one row below the low aggressor to
// one row above the high one (the victim row by design, its neighbours
// under drift). A page whose leaf PTE sits there must stay out of every
// eviction stream, since a corrupted stream translation could resolve
// anywhere.
func (p ImplicitPair) near(loc dram.Location) bool {
	return loc.SameBank(p.Loc1) && loc.Row+1 >= p.Loc1.Row && loc.Row <= p.Loc2.Row+1
}

// FindImplicitAggressors demand-allocates page tables by touching up
// to maxRegions distinct 2 MiB regions, then takes the first pair of
// their leaf PTEs in the same bank exactly two rows apart. ok is false
// when the geometry yields no such pair within the touched regions.
// The demand-allocation loads are construction traffic, not attack
// traffic, so the refresh window is reset before returning: the
// caller's first measured window starts from zero pressure.
func FindImplicitAggressors(m *machine.Machine, maxRegions int) (ImplicitPair, bool) {
	defer m.ResetRefreshWindow()
	return firstPair(touchRegions(m, maxRegions), nil)
}

// HammerOncePrivileged runs one iteration of the implicit-hammer loop
// with kernel privileges: per side, invlpg the translation, clflush
// the PTE's cache line, and load the page. It is the upper-bound
// baseline the eviction-driven loop is compared against — the paper's
// attacker cannot execute either instruction, which is exactly what
// ImplicitHammer removes.
func (p ImplicitPair) HammerOncePrivileged(m *machine.Machine) {
	m.InvalidatePage(p.VA1)
	m.Flush(p.PTE1)
	m.Load(p.VA1)
	m.InvalidatePage(p.VA2)
	m.Flush(p.PTE2)
	m.Load(p.VA2)
}

// ImplicitHammer is the flush-free implicit-hammer primitive: the
// aggressor pair plus the measured eviction sets standing in for
// invlpg (TLB sets) and clflush (leaf-PTE LLC sets). Everything it
// does at hammer time is a plain demand load.
type ImplicitHammer struct {
	Pair       ImplicitPair
	TLB1, TLB2 *evset.TLBSet
	LLC1, LLC2 *evset.LLCSet
}

// HammerIter summarises one eviction-driven hammer iteration for the
// acceptance checks: the cycles it charged and whether both target
// loads behaved like implicit hammer accesses (full walk, leaf PTE
// from DRAM). The struct return keeps the hot loop allocation-free.
type HammerIter struct {
	Cycles timing.Cycles
	// Walked is true when both target loads missed all TLB levels.
	Walked bool
	// LeafFromDRAM is true when both walks fetched their leaf PTE from
	// DRAM — the accesses that activate the aggressor rows.
	LeafFromDRAM bool
}

// NewImplicitHammer finds an aggressor pair and builds the four
// eviction sets, excluding each aggressor page from the other side's
// candidate streams so no prime ever touches a target. Construction
// issues only loads and timed probes.
func NewImplicitHammer(m *machine.Machine, maxRegions int, opt evset.Options) (*ImplicitHammer, error) {
	pair, ok := FindImplicitAggressors(m, maxRegions)
	if !ok {
		return nil, fmt.Errorf("bench: no implicit aggressor pair within %d regions", maxRegions)
	}
	return NewImplicitHammerForPair(m, pair, nil, opt)
}

// NewImplicitHammerForPair builds the four eviction sets for an
// already-chosen aggressor pair. Both aggressor pages plus every
// address in extraExclude are kept out of all candidate streams — the
// escalation demo passes the pages mapped by hammer-adjacent page
// tables, whose translations a flip may corrupt, so the steady-state
// loop never loads through a corruptible PTE. Construction traffic
// (demand-allocation and build probes for the four sets) pollutes the
// activation window, so the refresh window is reset before returning:
// a freshly built hammer starts from zero pressure, which
// TestImplicitHammerStartsFromZeroPressure pins.
func NewImplicitHammerForPair(m *machine.Machine, pair ImplicitPair, extraExclude []phys.Addr, opt evset.Options) (*ImplicitHammer, error) {
	excl := append([]phys.Addr{pair.VA1, pair.VA2}, extraExclude...)
	tlb1, err := evset.BuildTLB(m, pair.VA1, excl, opt)
	if err != nil {
		return nil, fmt.Errorf("bench: TLB set for VA1: %w", err)
	}
	tlb2, err := evset.BuildTLB(m, pair.VA2, excl, opt)
	if err != nil {
		return nil, fmt.Errorf("bench: TLB set for VA2: %w", err)
	}
	llc1, err := evset.BuildLLCPTE(m, pair.VA1, tlb1, excl, opt)
	if err != nil {
		return nil, fmt.Errorf("bench: LLC set for PTE1: %w", err)
	}
	llc2, err := evset.BuildLLCPTE(m, pair.VA2, tlb2, excl, opt)
	if err != nil {
		return nil, fmt.Errorf("bench: LLC set for PTE2: %w", err)
	}
	m.ResetRefreshWindow()
	return &ImplicitHammer{Pair: pair, TLB1: tlb1, TLB2: tlb2, LLC1: llc1, LLC2: llc2}, nil
}

// HammerOnce runs one flush-free iteration: per side, walk the TLB
// eviction set (unprivileged invlpg), walk the PTE-line LLC eviction
// set (unprivileged clflush), then probe the page — the walker's PTE
// fetch from the PT frame is the only access that reaches the
// aggressor rows. Allocation-free in steady state.
//
//pthammer:noalloc
func (h *ImplicitHammer) HammerOnce(m *machine.Machine) HammerIter {
	var it HammerIter
	it.Cycles += h.TLB1.Evict(m)
	it.Cycles += h.LLC1.Evict(m)
	p1 := m.Probe(h.Pair.VA1)
	it.Cycles += p1.Latency
	it.Cycles += h.TLB2.Evict(m)
	it.Cycles += h.LLC2.Evict(m)
	p2 := m.Probe(h.Pair.VA2)
	it.Cycles += p2.Latency
	it.Walked = p1.Walked && p2.Walked
	it.LeafFromDRAM = p1.LeafFromDRAM && p2.LeafFromDRAM
	return it
}
