// Package cache models the data-cache hierarchy: per-core private L1
// and L2 levels over one shared, inclusive last-level cache, all
// set-associative with LRU replacement. Inclusivity is what makes the
// paper's LLC eviction sets work: evicting a line from the LLC
// back-invalidates it from every core's private levels, so a later
// load must go to DRAM — and, in the multi-core mode, an eviction
// caused by one core silently degrades another core's private copies,
// which is exactly the cross-core coupling the mt-* scenarios exploit.
// Flush models clflush for the explicit-hammer baseline.
//
// The split mirrors the hardware: SharedLLC is the one slice of
// cross-core state (tag array, arbitration bookkeeping, the registry
// of private levels to back-invalidate), while Hierarchy is one core's
// port onto it — it owns that core's L1/L2 and charges every latency,
// including LLC arbitration, to that core's clock and counters, so the
// clock/Result/PMC agreement invariant holds per core with any number
// of front-ends sharing the LLC.
package cache

import (
	"fmt"

	"pthammer/internal/mem"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// LineBytes is the line size of every cache level.
const LineBytes = 64

// Config sizes one cache level.
type Config struct {
	SizeBytes uint64
	Ways      int
}

// Sets returns the number of sets implied by the config.
func (c Config) Sets() uint64 {
	return c.SizeBytes / (uint64(c.Ways) * LineBytes)
}

// Validate reports an error for degenerate or non-indexable geometry.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes == 0 || c.Ways <= 0:
		return fmt.Errorf("cache: size/ways must be positive (got %d/%d)", c.SizeBytes, c.Ways)
	case c.SizeBytes%(uint64(c.Ways)*LineBytes) != 0:
		return fmt.Errorf("cache: size %d not divisible by ways*line (%d*%d)", c.SizeBytes, c.Ways, LineBytes)
	}
	if err := mem.CheckShape(int(c.Sets()), c.Ways); err != nil {
		return fmt.Errorf("cache: %v", err)
	}
	return nil
}

// newLevel builds one level as a tag-only mem.SetAssoc tagged by line
// number: caches track presence, never a payload.
func newLevel(cfg Config) *mem.SetAssoc {
	return mem.NewSetAssocTags(int(cfg.Sets()), cfg.Ways)
}

// SharedLLC is the cross-core state of one inclusive last-level cache:
// the tag array, the line geometry, and the contention bookkeeping.
// Per-core Hierarchy values attach to it via NewCore; everything here
// is mutated only through those per-core ports, which under the
// multi-core interleaver run one at a time.
type SharedLLC struct {
	cfg Config
	llc *mem.SetAssoc
	arb timing.Cycles
	// lastCore is the index of the core whose access touched the LLC
	// most recently, -1 before the first access. An access from a
	// different core pays the arbitration cost — which means a
	// single-core machine can never be charged.
	lastCore int
	// cores holds the registered per-core hierarchies, indexed by core;
	// an LLC eviction back-invalidates the victim line from every one
	// of them (inclusivity is a property of the whole machine, not of
	// the evicting core).
	cores []*Hierarchy
}

// NewShared builds the shared slice of an inclusive LLC. Per-core
// front-ends attach to it with NewCore; the arbitration cost comes
// from the machine's latency table.
func NewShared(llc Config, lat timing.LatencyTable) (*SharedLLC, error) {
	if err := llc.Validate(); err != nil {
		return nil, err
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	return &SharedLLC{
		cfg:      llc,
		llc:      newLevel(llc),
		arb:      lat.LLCArbitration,
		lastCore: -1,
	}, nil
}

// Cores returns how many per-core hierarchies are attached.
func (s *SharedLLC) Cores() int { return len(s.cores) }

// Reset restores the shared slice to its just-built state: the LLC tag
// array empties and the cross-core arbitration bookkeeping rewinds, so
// the first access of the next cohort pays no stale arbitration
// charge. Per-core private levels are reset by each Hierarchy's Reset
// — once per core, while this runs once per machine (the Reset/Recycle
// contract).
//
//pthammer:noalloc
func (s *SharedLLC) Reset() {
	s.llc.Reset()
	s.lastCore = -1
}

// backInvalidate preserves inclusivity machine-wide: the evicted LLC
// line is dropped from every attached core's private levels, whichever
// core's fill caused the eviction.
//
//pthammer:noalloc
func (s *SharedLLC) backInvalidate(line uint64) {
	for _, h := range s.cores {
		h.l1.Invalidate(line)
		h.l2.Invalidate(line)
	}
}

// Hierarchy is one core's port onto the cache subsystem: private
// L1→L2 plus the shared LLC, a mem.Device that forwards LLC misses to
// the next device (the core's DRAM port). All latencies — private
// hits, LLC hits, and LLC arbitration — are charged to this core's
// clock, so N hierarchies over one SharedLLC keep N independent
// clock/Result/PMC agreements.
type Hierarchy struct {
	l1, l2   *mem.SetAssoc
	shared   *SharedLLC
	core     int
	next     mem.Device
	clock    *timing.Clock
	counters *perf.Counters

	l1Hit, l2Hit, llcHit, flushCost timing.Cycles
}

// NewCore builds core's hierarchy over an existing shared LLC and
// attaches it. The LLC must be large enough to hold the private levels
// (the inclusive property the eviction-set algorithms rely on). Cores
// must attach in index order (core == number already attached), which
// the machine facade guarantees; the check keeps a miswired machine
// from silently aliasing two cores' private levels under one index.
func NewCore(l1, l2 Config, shared *SharedLLC, core int, next mem.Device, clock *timing.Clock, counters *perf.Counters, lat timing.LatencyTable) (*Hierarchy, error) {
	if shared == nil {
		return nil, fmt.Errorf("cache: shared LLC must be non-nil")
	}
	for _, c := range []Config{l1, l2} {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	if shared.cfg.SizeBytes < l1.SizeBytes+l2.SizeBytes {
		return nil, fmt.Errorf("cache: inclusive LLC (%d B) smaller than L1+L2 (%d B)", shared.cfg.SizeBytes, l1.SizeBytes+l2.SizeBytes)
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	if next == nil || clock == nil || counters == nil {
		return nil, fmt.Errorf("cache: next device, clock and counters must be non-nil")
	}
	if core != len(shared.cores) {
		return nil, fmt.Errorf("cache: core %d attached out of order (want %d)", core, len(shared.cores))
	}
	h := &Hierarchy{
		l1:        newLevel(l1),
		l2:        newLevel(l2),
		shared:    shared,
		core:      core,
		next:      next,
		clock:     clock,
		counters:  counters,
		l1Hit:     lat.L1Hit,
		l2Hit:     lat.L2Hit,
		llcHit:    lat.LLCHit,
		flushCost: lat.CLFlushCost,
	}
	shared.cores = append(shared.cores, h)
	return h, nil
}

// Shared returns the LLC slice this hierarchy is attached to.
func (h *Hierarchy) Shared() *SharedLLC { return h.shared }

// Reset empties this core's private levels (L1 and L2). The shared LLC
// is reset separately via SharedLLC.Reset, because on a multi-core
// machine it must be reset exactly once, not once per core.
//
//pthammer:noalloc
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
}

// lineOf returns the line number containing the address.
//
//pthammer:noalloc
func (h *Hierarchy) lineOf(a phys.Addr) uint64 { return uint64(a) / LineBytes }

// Lookup walks L1→L2→LLC and forwards a full miss to the next device,
// filling the line into every level on the way (inclusive fill). Each
// level is probed with a single fused LookupInsert scan: a level that
// misses will be filled with the line no matter where it is eventually
// served from, so the miss path installs it in the same pass that
// detected the miss instead of rescanning the set later. Crossing into
// the shared LLC behind another core's access additionally charges the
// arbitration cost. The whole latency — serving level plus any
// arbitration — is charged to this core's clock.
//
//pthammer:noalloc
func (h *Hierarchy) Lookup(a phys.Addr) mem.Result {
	ln := h.lineOf(a)
	if hit, _, _ := h.l1.LookupInsert(ln); hit {
		h.clock.Advance(h.l1Hit)
		return mem.Result{Latency: h.l1Hit, Hit: true, Source: mem.LevelL1}
	}
	if hit, _, _ := h.l2.LookupInsert(ln); hit {
		h.clock.Advance(h.l2Hit)
		return mem.Result{Latency: h.l2Hit, Hit: true, Source: mem.LevelL2}
	}
	h.counters.Inc(perf.LLCReference)
	s := h.shared
	var arb timing.Cycles
	if s.lastCore != h.core {
		if s.lastCore >= 0 {
			arb = s.arb
		}
		s.lastCore = h.core
	}
	hit, victim, evicted := s.llc.LookupInsert(ln)
	if hit {
		lat := h.llcHit + arb
		h.clock.Advance(lat)
		return mem.Result{Latency: lat, Hit: true, Source: mem.LevelLLC}
	}
	// An LLC fill that evicted a (different) line back-invalidates it
	// from every core's private levels to preserve inclusivity. The
	// victim can never be ln itself: the insert just made ln the set's
	// MRU way.
	if evicted {
		s.backInvalidate(victim)
	}
	h.counters.Inc(perf.LongestLatCacheMiss)
	if arb > 0 {
		h.clock.Advance(arb)
	}
	res := h.next.Lookup(a) //pthammer:alloc-ok interface dispatch to the wired memory device, itself noalloc
	return mem.Result{Latency: res.Latency + arb, Hit: false, Source: res.Source}
}

// Flush models clflush: the line is dropped from every private level
// of every attached core and from the shared LLC (clflush is a
// coherence-domain operation, not a per-core one), and the fixed
// instruction cost is charged to the flushing core whether or not the
// line was cached anywhere.
//
//pthammer:noalloc
func (h *Hierarchy) Flush(a phys.Addr) timing.Cycles {
	ln := h.lineOf(a)
	h.shared.backInvalidate(ln)
	h.shared.llc.Invalidate(ln)
	h.clock.Advance(h.flushCost)
	return h.flushCost
}

// Contains reports which levels currently hold the address's line from
// this core's point of view (its private levels, the shared LLC), for
// tests asserting the inclusive property.
func (h *Hierarchy) Contains(a phys.Addr) (inL1, inL2, inLLC bool) {
	ln := h.lineOf(a)
	return h.l1.Contains(ln), h.l2.Contains(ln), h.shared.llc.Contains(ln)
}
