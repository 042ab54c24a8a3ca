// The privilege-escalation demo: PThammer's payoff (paper §V, the
// same exploitation shape as Seaborn's PTE spray). The attack runs the
// flush-free implicit-hammer loop against an aggressor pair chosen so
// the sandwiched victim row holds leaf page tables whose entries are a
// single bit flip away from pointing at *other page tables*. The
// attacker sprays mappings through those tables, hammers until the
// machine's flip model corrupts one of the sprayed PTEs, notices the
// damage purely from user space (a translation diverging from the
// known identity layout), and then owns translation: the corrupted
// PTE maps an attacker page onto a page-table frame, so a plain user
// store through that page rewrites the attacker's own PTEs — from
// which any physical frame, kernel memory included, is one store away.
//
// Everything the attacker does after machine setup is a demand load, a
// timed probe, or a plain store: the privileged-operation counters
// stay frozen end to end, which the acceptance test asserts.
package bench

import (
	"fmt"
	"math/bits"
	"sort"

	"pthammer/internal/dram"
	"pthammer/internal/evset"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/pagetable"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// escalationSeedRegions is how many 2 MiB regions the escalation
// planner touches while hunting for sprayable aggressor pairs. It must
// reach past the first pair whose victim row maps a sprayable region,
// and — for the budgeted driver's replan tier — far enough that the
// ranking holds fallback pairs: at 500 regions the SandyBridge demo
// layout yields three viable pairs on distinct victim rows, so an
// invalidated pair still leaves two to fall back to.
const escalationSeedRegions = 500

// escalationMarker is the value the attacker's final store plants in
// kernel memory to prove arbitrary physical write.
const escalationMarker = 0x5054_4861_6d6d_6572 // "PTHammer"

// EscalationConfig is the scaled-down demo machine: the SandyBridge
// preset with the hammer threshold lowered and the refresh window
// shortened so one window holds roughly 48 hammer iterations (~7.2 k
// cycles each). That puts the double-sided victim row at ~96
// activations of pressure per window — comfortably past the threshold
// of 64 — while the single-sided neighbours of the aggressor rows stay
// below it, so flips land only in the victim row. The model is wired
// as the machine's flip engine.
func EscalationConfig(model *flip.Model) machine.Config {
	cfg := machine.SandyBridge()
	cfg.DRAM.HammerThreshold = 64
	cfg.DRAM.RefreshWindow = 350_000
	cfg.FlipModel = model
	return cfg
}

// EscalationPlan is the attacker's layout for one escalation run: the
// aggressor pair, the pages sprayed through the victim row's page
// tables, the pages kept out of every eviction stream, and the thrash
// stream that scrubs the TLBs before a detection scan.
type EscalationPlan struct {
	Pair ImplicitPair
	// VictimRegions are the 2 MiB region bases whose leaf page tables
	// sit inside the victim row — the tables a flip will corrupt.
	VictimRegions []phys.Addr
	// Spray is every page mapped through the victim-row tables. The
	// attacker touches them all so the tables fill with present PTEs,
	// and rescans their translations to detect flips.
	Spray []phys.Addr
	// Sprayable counts the (page, bit) positions where a single-bit
	// flip of a sprayed PTE's frame number lands on a known page-table
	// frame — the jackpot surface the hammer is fishing for.
	Sprayable int
	// Exclude is handed to eviction-set construction: every page whose
	// leaf PT sits in or adjacent to the hammered rows, so no stream
	// load ever goes through a PTE a flip might corrupt.
	Exclude []phys.Addr
	// Thrash is one region's worth of pages covering every TLB set at
	// full associativity: loading them all evicts every stale sprayed
	// translation, so the following Translate calls re-walk the
	// (possibly corrupted) tables.
	Thrash []phys.Addr

	// ptOf maps each known leaf-PT frame to the base VA of the 2 MiB
	// region it maps; refreshed by the driver after every eviction-set
	// build so it also covers tables demand-allocated meanwhile.
	ptOf map[phys.Frame]phys.Addr
}

// regionPages appends every page base of the 2 MiB region to out.
func regionPages(base phys.Addr, out []phys.Addr) []phys.Addr {
	for off := uint64(0); off < pagetable.Span(2); off += phys.FrameSize {
		out = append(out, base+phys.Addr(off))
	}
	return out
}

// leafPTs maps every currently-known leaf-PT frame to its region base,
// walking region bases below the kernel pool.
func leafPTs(m *machine.Machine) map[phys.Frame]phys.Addr {
	base, _ := m.PageTables().Region()
	limit := base.Addr()
	out := make(map[phys.Frame]phys.Addr)
	span := pagetable.Span(2)
	for va := phys.Addr(0); va < limit; va += phys.Addr(span) {
		if pte, ok := m.PTEAddr(va, 1); ok {
			out[phys.FrameOf(pte)] = va
		}
	}
	return out
}

// pairCand is one viable aggressor pair the planner ranked: same-bank,
// two rows apart, victim row holding leaf tables with a non-empty
// jackpot surface.
type pairCand struct {
	lo, hi    regionCand
	victimRow uint64
	victims   []phys.Addr
	sprayable int
}

// EscalationPlanner enumerates and ranks every viable aggressor pair on
// one machine, so the escalation driver can fall back to the next-best
// pair when the best one stops producing exploitable flips (a fault
// invalidated it, or its jackpot surface was simply unlucky). The
// candidate scan and ranking run once in NewEscalationPlanner; each
// Next call lays out (sprays, excludes, picks a thrash stream for) the
// next pair in rank order.
type EscalationPlanner struct {
	m     *machine.Machine
	cands []regionCand
	pairs []pairCand
	next  int
	ptOf  map[phys.Frame]phys.Addr
}

// jackpotIndex counts, per 2 MiB region, the single-bit jackpot
// positions over the region's identity frames: the (page frame f, bit
// j < frameBits) combinations where f with bit j flipped is a known
// leaf-PT frame. It inverts that count — every table frame t and bit j
// credit the region holding t^1<<j — so the cost is O(tables ×
// frameBits) once, and a region's count is one lookup. Every frame is
// below 1<<frameBits, so t^1<<j is too, and the slice covers it.
func jackpotIndex(ptOf map[phys.Frame]phys.Addr, frameBits int) []int {
	framesPerRegion := pagetable.Span(2) / phys.FrameSize
	count := make([]int, ((uint64(1)<<frameBits)-1)/framesPerRegion+1)
	for t := range ptOf { //pthammer:nondeterministic-ok order-independent integer counts per region
		for j := 0; j < frameBits; j++ {
			count[uint64(t^phys.Frame(1)<<j)/framesPerRegion]++
		}
	}
	return count
}

// NewEscalationPlanner touches up to escalationSeedRegions regions
// (demand-allocating their page tables), then collects every same-bank
// two-rows-apart PTE pair whose victim row holds leaf page tables with
// at least one single-bit jackpot position, ranked by jackpot-surface
// size (scan order breaks ties), deduplicated by victim row — two
// pairs hammering the same row would fail the same way. The jackpot
// surface comes from an index built once per planner in O(tables ×
// frame bits) (see jackpotIndex), and each candidate's DRAM location
// is decoded once, so ranking costs one index lookup per victim table
// on top of the pair scan. Only demand loads are issued.
func NewEscalationPlanner(m *machine.Machine) (*EscalationPlanner, error) {
	span := pagetable.Span(2)
	geom := m.DRAM().Config()
	cands := touchRegions(m, escalationSeedRegions)
	ptOf := leafPTs(m)
	jackpots := jackpotIndex(ptOf, bits.Len64(m.Memory().Frames()-1))

	p := &EscalationPlanner{m: m, cands: cands, ptOf: ptOf}
	seen := make(map[dram.Location]bool) // victim rows, column 0
	for lo, hi := range doubleSided(cands) {
		victim := dram.Location{Channel: lo.loc.Channel, Rank: lo.loc.Rank, Bank: lo.loc.Bank, Row: lo.loc.Row + 1}
		if seen[victim] {
			continue
		}
		start, rowBytes := geom.RowRange(victim.Channel, victim.Rank, victim.Bank, victim.Row)

		// Which regions' leaf tables live in the victim row, and is any
		// of them sprayable?
		var victims []phys.Addr
		sprayable := 0
		for f := phys.FrameOf(start); f <= phys.FrameOf(start+phys.Addr(rowBytes-1)); f++ {
			if base, ok := ptOf[f]; ok {
				victims = append(victims, base)
				sprayable += jackpots[uint64(base)/span]
			}
		}
		if sprayable == 0 {
			continue
		}
		seen[victim] = true
		p.pairs = append(p.pairs, pairCand{
			lo: lo, hi: hi, victimRow: victim.Row,
			victims: victims, sprayable: sprayable,
		})
	}
	if len(p.pairs) == 0 {
		return nil, fmt.Errorf("bench: no sprayable aggressor pair within %d regions", escalationSeedRegions)
	}
	// Rank by jackpot surface, largest first; the enumeration order is
	// deterministic, so a stable sort pins the full order per machine.
	sort.SliceStable(p.pairs, func(i, j int) bool {
		return p.pairs[i].sprayable > p.pairs[j].sprayable
	})
	return p, nil
}

// Remaining reports how many ranked pairs Next has not yet laid out.
func (p *EscalationPlanner) Remaining() int { return len(p.pairs) - p.next }

// Next lays out the attack on the next-best ranked pair: sprays the
// victim regions, computes the eviction-stream exclusion set, and
// premaps a TLB-thrash region. It returns an error once the ranking is
// exhausted — the driver's signal that no replan tier is left.
func (p *EscalationPlanner) Next() (*EscalationPlan, error) {
	if p.next >= len(p.pairs) {
		return nil, fmt.Errorf("bench: candidate aggressor pairs exhausted after %d", len(p.pairs))
	}
	pc := p.pairs[p.next]
	p.next++

	plan := &EscalationPlan{
		Pair:          pairOf(pc.lo, pc.hi),
		VictimRegions: pc.victims,
		Sprayable:     pc.sprayable,
		ptOf:          p.ptOf,
		// Spray: map every page of the victim regions so their tables
		// fill with present PTEs — the flip targets.
		Spray: make([]phys.Addr, 0, len(pc.victims)*int(pagetable.Span(2)/phys.FrameSize)),
	}
	for _, base := range pc.victims {
		plan.Spray = regionPages(base, plan.Spray)
	}
	for _, va := range plan.Spray {
		p.m.Load(va)
	}
	// Exclude from eviction streams every page whose leaf PT sits near
	// the hammered rows: those tables hold all the entries a flip could
	// conceivably corrupt.
	for _, c := range p.cands {
		if plan.Pair.near(c.loc) {
			plan.Exclude = regionPages(c.va, plan.Exclude)
		}
	}
	if err := plan.pickThrash(p.m); err != nil {
		return nil, err
	}
	return plan, nil
}

// pickThrash premaps the TLB-scrub region: one full 2 MiB region (512
// consecutive pages touch every dTLB and sTLB set at associativity, so
// loading them all evicts every stale translation) whose own leaf PT
// must sit outside the hammered rows. Regions are probed downward from
// the top of user space.
func (plan *EscalationPlan) pickThrash(m *machine.Machine) error {
	span := pagetable.Span(2)
	poolBase, _ := m.PageTables().Region()
	limit := poolBase.Addr()
	victims := make(map[phys.Addr]bool, len(plan.VictimRegions))
	for _, v := range plan.VictimRegions {
		victims[v] = true
	}
	for r := uint64(limit) / span; r > 0; r-- {
		base := phys.Addr((r - 1) * span)
		if base+phys.Addr(span) > limit || victims[base] {
			continue
		}
		m.Premap(base, span)
		pte, ok := m.PTEAddr(base, 1)
		if !ok {
			continue
		}
		if plan.Pair.near(m.DRAM().Config().Map(pte)) {
			continue // this region's own PTEs are themselves corruptible
		}
		plan.Thrash = regionPages(base, nil)
		return nil
	}
	return fmt.Errorf("bench: no safe TLB-thrash region below the kernel pool")
}

// scan scrubs the TLBs with the thrash stream, then re-translates
// every sprayed page, looking for a translation that diverged from the
// identity layout onto a known page-table frame. (page, table)
// combinations already found unexploitable are skipped. Plain loads
// and translations only.
func (plan *EscalationPlan) scan(m *machine.Machine, rejected map[rejection]bool) (va phys.Addr, table phys.Frame, ok bool) {
	for _, a := range plan.Thrash {
		m.Load(a)
	}
	for _, s := range plan.Spray {
		frame, _ := m.Translate(s)
		if frame == phys.FrameOf(s) {
			continue
		}
		if _, isPT := plan.ptOf[frame]; !isPT || rejected[rejection{s, frame}] {
			continue
		}
		return s, frame, true
	}
	return 0, 0, false
}

// EscalationResult records one completed escalation.
type EscalationResult struct {
	// Iterations and Windows count the hammer phase; Cycles is its
	// simulated duration.
	Iterations uint64
	Windows    uint64
	Cycles     timing.Cycles
	// FirstFlipIter / FirstFlipCycles locate the first disturbance
	// error of the run (iteration is 1-based; 0 means none landed).
	FirstFlipIter   uint64
	FirstFlipCycles timing.Cycles
	// TotalFlips is every flip the model produced, jackpot or not.
	TotalFlips int
	// CorruptVA is the sprayed page whose leaf PTE the winning flip
	// corrupted; it now maps TableFrame, the leaf page table of the
	// region at TableRegion.
	CorruptVA   phys.Addr
	TableFrame  phys.Frame
	TableRegion phys.Addr
	// RewrittenVA is the attacker page whose PTE was rewritten through
	// CorruptVA; it now maps SecretFrame — an untouched kernel
	// page-table-pool frame — and the attacker's marker store landed
	// there (the marker is read back for verification).
	RewrittenVA phys.Addr
	SecretFrame phys.Frame
}

// exploit turns one detected jackpot into the escalation: the
// corrupted page CorruptVA maps the leaf page table of TableRegion, so
// a plain user store through it installs a fresh PTE mapping an
// untouched attacker page onto an untouched kernel-pool frame, and a
// second plain store through that page writes kernel memory.
func (plan *EscalationPlan) exploit(m *machine.Machine, corruptVA phys.Addr, table phys.Frame, res *EscalationResult) error {
	region := plan.ptOf[table]
	// Find a free slot: an entry still zero means its page was never
	// mapped, so no stale translation exists anywhere. (The attacker
	// reads the table through its newly-won window; the simulator has
	// no data-value load path, so the same bytes are read via phys.)
	slot := -1
	for idx := 0; idx < pagetable.EntriesPerTable; idx++ {
		if m.Memory().Read64(table.Addr()+phys.Addr(idx*pagetable.EntryBytes)) == 0 {
			slot = idx
			break
		}
	}
	if slot < 0 {
		return fmt.Errorf("bench: table %#x fully mapped, no free slot", uint64(table))
	}
	base, frames := m.PageTables().Region()
	if m.PageTables().Allocated() >= int(frames) {
		return fmt.Errorf("bench: table pool exhausted, no untouched kernel frame")
	}
	secret := base + phys.Frame(frames-1)

	// Rewrite the attacker's own PTE: a plain user store through the
	// corrupted mapping lands in the page table itself.
	m.Store64(corruptVA+phys.Addr(slot*pagetable.EntryBytes), uint64(pagetable.NewEntry(secret)))
	vaW := region + phys.Addr(uint64(slot)*phys.FrameSize)
	if got, _ := m.Translate(vaW); got != secret {
		return fmt.Errorf("bench: rewritten PTE resolves %#x, want %#x", uint64(got), uint64(secret))
	}
	// The attacker now maps kernel memory: prove it with a marker
	// store through the remapped page.
	m.Store64(vaW, escalationMarker)
	if got := m.Memory().Read64(secret.Addr()); got != escalationMarker {
		return fmt.Errorf("bench: marker missing from kernel frame: read %#x", got)
	}
	res.CorruptVA = corruptVA
	res.TableFrame = table
	res.TableRegion = region
	res.RewrittenVA = vaW
	res.SecretFrame = secret
	return nil
}

// rejection identifies one unusable divergence: the page plus the
// table it was remapped onto. Keying on the pair (not the page alone)
// keeps a page in play for later, different flips.
type rejection struct {
	va    phys.Addr
	table phys.Frame
}

// BuildEscalation assembles the whole attack on a fresh machine: flip
// model, demo machine, plan (spray + exclusions + thrash), and the
// eviction-driven hammer for the planned pair. The refresh window is
// reset by hammer construction, so the run starts from zero pressure.
func BuildEscalation(profile flip.Profile, seed int64) (*machine.Machine, *EscalationPlan, *ImplicitHammer, error) {
	model, err := flip.NewModel(profile, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := machine.New(EscalationConfig(model))
	if err != nil {
		return nil, nil, nil, err
	}
	planner, err := NewEscalationPlanner(m)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, err := planner.Next()
	if err != nil {
		return nil, nil, nil, err
	}
	h, err := NewImplicitHammerForPair(m, plan.Pair, plan.Exclude, evset.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	return m, plan, h, nil
}

// FlipRun summarises a fixed-budget hammer run for the per-module-class
// flip-rate tables (cmd/pthammer-flip).
type FlipRun struct {
	Profile    string
	Iterations uint64
	Windows    uint64
	Flips      int
	// FirstFlipIter is 1-based; 0 means the budget produced no flip.
	FirstFlipIter   uint64
	FirstFlipCycles timing.Cycles
	Cycles          timing.Cycles
}

// FlipsPerMillionIters is the headline rate: flips per 10⁶ hammer
// iterations.
func (r FlipRun) FlipsPerMillionIters() float64 {
	if r.Iterations == 0 {
		return 0
	}
	return float64(r.Flips) * 1e6 / float64(r.Iterations)
}

// RunFlipRate builds the full escalation layout (so the victim row
// holds realistic sprayed-PTE content) and hammers for exactly iters
// iterations, recording when the first flip lands and how many follow.
// Deterministic per (profile, seed, iters).
func RunFlipRate(profile flip.Profile, seed int64, iters uint64) (FlipRun, error) {
	m, _, h, err := BuildEscalation(profile, seed)
	if err != nil {
		return FlipRun{}, err
	}
	model := m.FlipModel()
	// Report the measured run's own deltas: construction already
	// rotated windows before the budget started.
	windows0 := model.Windows()
	flips0 := len(model.Flips())
	start := m.Clock().Now()
	out := FlipRun{Profile: profile.Name, Iterations: iters}
	for it := uint64(0); it < iters; it++ {
		h.HammerOnce(m)
		if out.FirstFlipIter == 0 && len(model.Flips()) > flips0 {
			out.FirstFlipIter = it + 1
			out.FirstFlipCycles = m.Clock().Now() - start
		}
	}
	out.Windows = model.Windows() - windows0
	out.Flips = len(model.Flips()) - flips0
	out.Cycles = m.Clock().Now() - start
	return out, nil
}
