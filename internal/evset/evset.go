// Package evset implements the paper's Algorithm 1: constructing
// minimal eviction sets from user space, verified purely through
// timing and performance-counter side channels. An unprivileged
// attacker can execute neither invlpg (to drop a TLB entry) nor
// clflush on a kernel line (to drop the cache line holding a PTE), so
// PThammer substitutes measured access streams for both:
//
//   - a TLB eviction set — virtual pages that, walked in order, push
//     the target page's translation out of the dTLB and the sTLB, so
//     the next load of the target must take a hardware page walk; and
//   - an LLC eviction set — addresses whose cache lines conflict with
//     the line holding the target's leaf PTE in the inclusive LLC, so
//     the walk's implicit PTE fetch must go all the way to DRAM.
//
// Construction follows Algorithm 1's shape: over-provision a candidate
// pool of conflicting addresses, confirm the pool evicts the target
// (dtlb_load_misses.miss_causes_a_walk / page_walker.* PMC deltas plus
// load-latency thresholding against a calibrated boundary), then
// minimize by group reduction — repeatedly discard one of
// associativity+1 chunks whose removal keeps the set evicting — and
// finish with an element-wise prune to a fixpoint, so removing any
// single member stops the set from evicting the target.
//
// Everything here issues only demand loads (machine.Prime) and timed
// probes (machine.Probe); the machine's privileged-operation counters
// stay untouched, which the end-to-end tests assert.
package evset

import (
	"fmt"

	"pthammer/internal/cache"
	"pthammer/internal/machine"
	"pthammer/internal/pagetable"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// Options tunes construction. The zero value selects the defaults.
type Options struct {
	// Trials is how many times each eviction verdict is re-measured; the
	// verdict is the majority outcome, which rides out latency-noise
	// spikes on noisy machines (the PMC half of the verdict is exact).
	// Default 3.
	Trials int
}

// poolScale over-provisions the candidate pool as poolScale ×
// associativity + 2 addresses, giving group reduction room to work
// with.
const poolScale = 3

// ptesPerLine is how many leaf PTEs share one cache line: a page's
// PTE-line block is its vpn / ptesPerLine.
const ptesPerLine = cache.LineBytes / pagetable.EntryBytes

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 3
	}
	return o
}

// Calibration records the measured latency boundary an eviction verdict
// thresholds against. Algorithm 1 separates two latency populations —
// target loads with the attacked state still cached versus evicted —
// and places the decision threshold between them. Both anchors are the
// minimum observed in their population, so a noise spike landing on a
// calibration sample widens neither anchor: spikes only ever add
// cycles, and the PMC half of each verdict is exact regardless.
type Calibration struct {
	// Lo is the smallest latency observed while the attacked state was
	// still cached (translation in the TLB; leaf PTE line in the cache
	// hierarchy).
	Lo timing.Cycles
	// Hi is the smallest latency observed with the state evicted (full
	// walk; leaf PTE fetched from DRAM), PMC-confirmed.
	Hi timing.Cycles
	// Threshold is the midpoint: a timed probe at or above it agrees
	// with the PMC signal that the eviction happened.
	Threshold timing.Cycles
}

// TLBSet is a minimized TLB eviction set for one target page: walking
// Pages evicts the target's translation from both TLB levels, forcing
// the next load of Target to take a hardware page walk.
type TLBSet struct {
	Target phys.Addr
	Pages  []phys.Addr
	Cal    Calibration
}

// Evict walks the set — the unprivileged invlpg — returning the cycles
// charged. Allocation-free; this is the hammer loop's hot path.
//
//pthammer:noalloc
func (s *TLBSet) Evict(m *machine.Machine) timing.Cycles {
	return m.Prime(s.Pages)
}

// LLCSet is a minimized LLC eviction set for the cache line holding a
// page's leaf PTE: walking Addrs evicts that line from the inclusive
// LLC (and, by back-invalidation, from L1 and L2), so the next walk of
// Target fetches its PTE from DRAM — the implicit hammer access.
type LLCSet struct {
	// Target is the page whose leaf PTE is attacked; PTE is the
	// physical address of that entry (the line the set conflicts with).
	Target phys.Addr
	PTE    phys.Addr
	Addrs  []phys.Addr
	Cal    Calibration
}

// Evict walks the set — the unprivileged clflush of the PTE line —
// returning the cycles charged. Allocation-free.
//
//pthammer:noalloc
func (s *LLCSet) Evict(m *machine.Machine) timing.Cycles {
	return m.Prime(s.Addrs)
}

// userLimit returns the first address past the attacker-reachable
// region: the machine's page-table pool sits at the top of physical
// memory and candidates must never be drawn from it (those are kernel
// addresses — and loading them would disturb the very rows being
// hammered).
func userLimit(m *machine.Machine) phys.Addr {
	base, _ := m.PageTables().Region()
	return base.Addr()
}

// tlbCandidates generates the candidate pool for a TLB eviction set:
// pages whose virtual page numbers are congruent with the target's
// modulo both TLB levels' set counts (both powers of two, so one
// stride covers both), at the target's page offset, skipping the
// excluded pages, any page whose leaf PTE shares a cache line (the
// block vpn / ptesPerLine) with the target's or an excluded page's
// PTE — the attacker knows this from the same linear VA→PTE layout
// the paper exploits — and everything at or above the kernel region.
func tlbCandidates(m *machine.Machine, target phys.Addr, exclude map[phys.Frame]bool, pteBlocks map[uint64]bool, pool int) []phys.Addr {
	cfg := m.Config().TLB
	dSets := uint64(cfg.L1Entries / cfg.L1Ways)
	sSets := uint64(cfg.L2Entries / cfg.L2Ways)
	stride := dSets
	if sSets > stride {
		stride = sSets
	}
	tvpn := uint64(target) >> phys.FrameShift
	off := phys.Addr(phys.Offset(target))
	limit := userLimit(m)

	out := make([]phys.Addr, 0, pool)
	for vpn := tvpn % stride; len(out) < pool; vpn += stride {
		a := phys.Addr(vpn << phys.FrameShift)
		if a >= limit {
			break
		}
		if pteBlocks[vpn/ptesPerLine] || exclude[phys.FrameOf(a)] {
			continue
		}
		out = append(out, a+off)
	}
	return out
}

// llcCandidates generates the candidate pool for the PTE-line LLC
// eviction set: user addresses mapping to the same LLC set (and line
// offset) as the PTE's line, skipping excluded pages, any page whose
// own leaf PTE shares a cache line with the target's or an excluded
// page's PTE, and the kernel region.
func llcCandidates(m *machine.Machine, pte phys.Addr, exclude map[phys.Frame]bool, pteBlocks map[uint64]bool, pool int) []phys.Addr {
	llc := m.Config().LLC
	stride := llc.Sets() * cache.LineBytes
	limit := userLimit(m)

	out := make([]phys.Addr, 0, pool)
	for a := phys.Addr(uint64(pte) % stride); len(out) < pool; a += phys.Addr(stride) {
		if a >= limit {
			break
		}
		vpn := uint64(a) >> phys.FrameShift
		if pteBlocks[vpn/ptesPerLine] || exclude[phys.FrameOf(a)] {
			continue
		}
		out = append(out, a)
	}
	return out
}

// evictsTLB is the TLB eviction verdict: re-install the target's
// translation, walk the candidate stream, then probe the target. The
// stream evicts when the probe walked (PMC ground truth) and — once a
// threshold is calibrated — the probe latency lands in the walked
// population. Majority over trials.
func evictsTLB(m *machine.Machine, target phys.Addr, pages []phys.Addr, thr timing.Cycles, trials int) bool {
	yes := 0
	for t := 0; t < trials; t++ {
		m.Load(target)
		m.Prime(pages)
		p := m.Probe(target)
		if p.Walked && p.Latency >= thr {
			yes++
		}
	}
	return 2*yes > trials
}

// evictsLLC is the PTE-line eviction verdict: force a walk so the PTE
// line is (re)cached, walk the candidate stream, evict the translation
// again, then probe. The stream evicts when the probe's walk fetched
// the leaf PTE from DRAM (page_walker.l1pte_memory_fetch) and the
// latency clears the calibrated threshold. Majority over trials.
func evictsLLC(m *machine.Machine, target phys.Addr, tlbPages, addrs []phys.Addr, thr timing.Cycles, trials int) bool {
	yes := 0
	for t := 0; t < trials; t++ {
		m.Prime(tlbPages)
		m.Load(target) // the walk refetches the PTE line into the caches
		m.Prime(addrs)
		m.Prime(tlbPages)
		p := m.Probe(target)
		if p.Walked && p.LeafFromDRAM && p.Latency >= thr {
			yes++
		}
	}
	return 2*yes > trials
}

// calibrate separates the cached and evicted latency populations over
// the given samplers, each run trials times. Each sampler reports
// whether its sample is valid (the PMCs agreed the state really was
// cached / evicted); the minimum valid latency anchors each side. An
// inverted boundary means the side channel cannot distinguish the two
// states on this machine, which is a construction failure, not a
// latent one.
func calibrate(trials int, cached, evicted func() (timing.Cycles, bool)) (Calibration, error) {
	min := func(sample func() (timing.Cycles, bool)) (timing.Cycles, bool) {
		var best timing.Cycles
		any := false
		for t := 0; t < trials; t++ {
			lat, ok := sample()
			if !ok {
				continue
			}
			if !any || lat < best {
				best = lat
			}
			any = true
		}
		return best, any
	}
	var cal Calibration
	var ok bool
	if cal.Lo, ok = min(cached); !ok {
		return cal, fmt.Errorf("evset: no valid cached-state calibration sample (target state never stayed resident)")
	}
	if cal.Hi, ok = min(evicted); !ok {
		return cal, fmt.Errorf("evset: candidate pool never evicted during calibration")
	}
	if cal.Lo >= cal.Hi {
		return cal, fmt.Errorf("evset: latency populations overlap (cached %d ≥ evicted %d)", cal.Lo, cal.Hi)
	}
	cal.Threshold = (cal.Lo + cal.Hi) / 2
	return cal, nil
}

// minimize is Algorithm 1's reduction: group reduction while the set
// is larger than the associativity (split into assoc+1 chunks and drop
// any chunk whose removal keeps the set evicting), then an
// element-wise prune to a fixpoint. The fixpoint is what the
// minimality property tests rely on: for every member, the set minus
// that member was measured not to evict.
func minimize(set []phys.Addr, assoc int, evicts func([]phys.Addr) bool) []phys.Addr {
	scratch := make([]phys.Addr, 0, len(set))
	without := func(lo, hi int) []phys.Addr {
		scratch = scratch[:0]
		scratch = append(scratch, set[:lo]...)
		return append(scratch, set[hi:]...)
	}
	for len(set) > assoc {
		chunks := assoc + 1
		size := (len(set) + chunks - 1) / chunks
		reduced := false
		for lo := 0; lo < len(set); lo += size {
			hi := lo + size
			if hi > len(set) {
				hi = len(set)
			}
			if evicts(without(lo, hi)) {
				set = append(set[:lo], set[hi:]...)
				reduced = true
				break
			}
		}
		if !reduced {
			break
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(set); i++ {
			if evicts(without(i, i+1)) {
				set = append(set[:i], set[i+1:]...)
				changed = true
				i--
			}
		}
	}
	return set
}

// excludeSets turns the target and the caller's exclude list into the
// two sets candidate generation skips: the pages themselves, and the
// leaf-PTE-line blocks (vpn / ptesPerLine) of every one of them. The
// second set is what keeps multi-target setups sound: a candidate
// sharing a PTE line with any excluded page would refetch that line on
// its own walks, silently undoing the eviction another set is
// maintaining for it.
func excludeSets(target phys.Addr, exclude []phys.Addr) (frames map[phys.Frame]bool, pteBlocks map[uint64]bool) {
	frames = make(map[phys.Frame]bool, len(exclude)+1)
	pteBlocks = make(map[uint64]bool, len(exclude)+1)
	for _, a := range append([]phys.Addr{target}, exclude...) {
		frames[phys.FrameOf(a)] = true
		pteBlocks[uint64(phys.FrameOf(a))/ptesPerLine] = true
	}
	return frames, pteBlocks
}

// BuildTLB constructs a minimized TLB eviction set for the target page.
// Pages listed in exclude are never used as candidates (the hammer
// pair excludes both aggressors from each other's sets). The target is
// demand-mapped by construction; only loads and timed probes are
// issued — no privileged operations.
func BuildTLB(m *machine.Machine, target phys.Addr, exclude []phys.Addr, opt Options) (*TLBSet, error) {
	opt = opt.withDefaults()
	cfg := m.Config().TLB
	assoc := cfg.L1Ways
	if cfg.L2Ways > assoc {
		assoc = cfg.L2Ways
	}
	frames, pteBlocks := excludeSets(target, exclude)
	pool := tlbCandidates(m, target, frames, pteBlocks, poolScale*assoc+2)
	if len(pool) < assoc {
		return nil, fmt.Errorf("evset: only %d TLB candidates below the kernel region, need ≥ %d", len(pool), assoc)
	}

	m.Load(target) // map the target and warm its translation
	m.Prime(pool)  // demand-map every candidate before measuring

	// Calibrate: the cached population is a re-probed resident
	// translation; the evicted population is a probe after walking the
	// full pool, PMC-confirmed.
	cal, err := calibrate(opt.Trials,
		func() (timing.Cycles, bool) {
			m.Load(target)
			p := m.Probe(target)
			return p.Latency, !p.Walked
		},
		func() (timing.Cycles, bool) {
			m.Load(target)
			m.Prime(pool)
			p := m.Probe(target)
			return p.Latency, p.Walked
		})
	if err != nil {
		return nil, fmt.Errorf("evset: TLB set for %#x: %w", uint64(target), err)
	}

	evicts := func(pages []phys.Addr) bool {
		return evictsTLB(m, target, pages, cal.Threshold, opt.Trials)
	}
	if !evicts(pool) {
		return nil, fmt.Errorf("evset: TLB candidate pool (%d pages) does not evict %#x", len(pool), uint64(target))
	}
	return &TLBSet{
		Target: target,
		Pages:  minimize(pool, assoc, evicts),
		Cal:    cal,
	}, nil
}

// BuildLLCPTE constructs a minimized LLC eviction set for the cache
// line holding the target page's leaf PTE, using the already-built TLB
// set to force walks during verification. The candidate seed is the
// linear VA→PTE layout (the same structure the paper's attacker
// exploits); every verdict is measurement: PMC deltas plus latency
// thresholding, no clflush.
func BuildLLCPTE(m *machine.Machine, target phys.Addr, tlb *TLBSet, exclude []phys.Addr, opt Options) (*LLCSet, error) {
	opt = opt.withDefaults()
	if tlb == nil {
		return nil, fmt.Errorf("evset: LLC construction needs a TLB eviction set to force walks")
	}
	m.Load(target) // ensure the leaf PTE exists
	pte, ok := m.PTEAddr(target, 1)
	if !ok {
		return nil, fmt.Errorf("evset: no leaf PTE for %#x after load", uint64(target))
	}
	assoc := m.Config().LLC.Ways
	frames, pteBlocks := excludeSets(target, exclude)
	pool := llcCandidates(m, pte, frames, pteBlocks, poolScale*assoc+2)
	if len(pool) < assoc {
		return nil, fmt.Errorf("evset: only %d LLC candidates below the kernel region, need ≥ %d", len(pool), assoc)
	}
	m.Prime(pool) // demand-map every candidate before measuring

	// Calibrate: cached population = walk with the PTE line still in
	// the hierarchy; evicted population = walk after the full pool,
	// PMC-confirmed to have fetched the leaf from DRAM.
	cal, err := calibrate(opt.Trials,
		func() (timing.Cycles, bool) {
			m.Prime(tlb.Pages)
			m.Load(target) // walk caches the PTE line
			m.Prime(tlb.Pages)
			p := m.Probe(target)
			return p.Latency, p.Walked && !p.LeafFromDRAM
		},
		func() (timing.Cycles, bool) {
			m.Prime(tlb.Pages)
			m.Load(target)
			m.Prime(pool)
			m.Prime(tlb.Pages)
			p := m.Probe(target)
			return p.Latency, p.Walked && p.LeafFromDRAM
		})
	if err != nil {
		return nil, fmt.Errorf("evset: LLC set for PTE %#x: %w", uint64(pte), err)
	}

	evicts := func(addrs []phys.Addr) bool {
		return evictsLLC(m, target, tlb.Pages, addrs, cal.Threshold, opt.Trials)
	}
	if !evicts(pool) {
		return nil, fmt.Errorf("evset: LLC candidate pool (%d lines) does not evict PTE %#x", len(pool), uint64(pte))
	}
	return &LLCSet{
		Target: target,
		PTE:    pte,
		Addrs:  minimize(pool, assoc, evicts),
		Cal:    cal,
	}, nil
}
