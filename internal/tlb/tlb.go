// Package tlb models the two-level data-TLB over 4 KiB pages: a small
// first-level dTLB backed by the larger shared sTLB. Entries map a
// virtual page number to the physical frame the page tables resolved
// it to. A full miss is forwarded to the walker (internal/ptwalk's
// hardware page walker, a mem.Translator) and the translation it
// returns is installed in both levels on the way back. The
// dTLB/sTLB/walk split is what Figure 5's three latency plateaus and
// the dtlb_load_misses.* counters measure.
package tlb

import (
	"fmt"

	"pthammer/internal/mem"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// Config sizes the two TLB levels in 4 KiB-page entries.
type Config struct {
	L1Entries int
	L1Ways    int
	L2Entries int
	L2Ways    int
}

// Validate reports an error for degenerate or non-indexable geometry.
func (c Config) Validate() error {
	check := func(name string, entries, ways int) error {
		switch {
		case entries <= 0 || ways <= 0:
			return fmt.Errorf("tlb: %s entries/ways must be positive (got %d/%d)", name, entries, ways)
		case entries%ways != 0:
			return fmt.Errorf("tlb: %s entries %d not divisible by ways %d", name, entries, ways)
		}
		if err := mem.CheckShape(entries/ways, ways); err != nil {
			return fmt.Errorf("tlb: %s %v", name, err)
		}
		return nil
	}
	if err := check("L1", c.L1Entries, c.L1Ways); err != nil {
		return err
	}
	if err := check("L2", c.L2Entries, c.L2Ways); err != nil {
		return err
	}
	if c.L1Entries >= c.L2Entries {
		return fmt.Errorf("tlb: sTLB (%d entries) must be larger than dTLB (%d)", c.L2Entries, c.L1Entries)
	}
	return nil
}

// newLevel builds one TLB level as a mem.SetAssoc tagged by virtual
// page number.
func newLevel(entries, ways int) *mem.SetAssoc {
	return mem.NewSetAssoc(entries/ways, ways)
}

// TLB is the dTLB + sTLB chain. It implements mem.Translator:
// Translate answers the translation side of an access, forwarding
// full misses to the walker.
type TLB struct {
	l1, l2   *mem.SetAssoc
	walker   mem.Translator
	clock    *timing.Clock
	counters *perf.Counters

	l1Hit, l2Hit timing.Cycles
}

// New builds the TLB chain in front of the given walker.
func New(cfg Config, walker mem.Translator, clock *timing.Clock, counters *perf.Counters, lat timing.LatencyTable) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	if walker == nil || clock == nil || counters == nil {
		return nil, fmt.Errorf("tlb: walker, clock and counters must be non-nil")
	}
	return &TLB{
		l1:       newLevel(cfg.L1Entries, cfg.L1Ways),
		l2:       newLevel(cfg.L2Entries, cfg.L2Ways),
		walker:   walker,
		clock:    clock,
		counters: counters,
		l1Hit:    lat.TLBL1Hit,
		l2Hit:    lat.TLBL2Hit,
	}, nil
}

// vpnOf returns the 4 KiB virtual page number of the access.
//
//pthammer:noalloc
func vpnOf(a phys.Addr) uint64 { return uint64(a) >> phys.FrameShift }

// Translate resolves the address's page to its physical frame. A dTLB
// hit charges TLBL1Hit; an sTLB hit charges TLBL2Hit, refills the
// dTLB, and counts dtlb_load_misses.stlb_hit; a full miss counts
// dtlb_load_misses.miss_causes_a_walk, forwards to the walker, and
// installs the frame the walk resolved in both levels. The hit paths
// are a single LookupV scan; the miss path's extra insert scan is
// noise next to the walk it just paid for.
//
//pthammer:noalloc
func (t *TLB) Translate(a phys.Addr) (phys.Frame, mem.Result) {
	vpn := vpnOf(a)
	if v, hit := t.l1.LookupV(vpn); hit {
		t.clock.Advance(t.l1Hit)
		return phys.Frame(v), mem.Result{Latency: t.l1Hit, Hit: true, Source: mem.LevelTLB1}
	}
	if v, hit := t.l2.LookupV(vpn); hit {
		t.counters.Inc(perf.DTLBLoadMissesL1)
		t.clock.Advance(t.l2Hit)
		t.l1.InsertV(vpn, v)
		return phys.Frame(v), mem.Result{Latency: t.l2Hit, Hit: true, Source: mem.LevelTLB2}
	}
	t.counters.Inc(perf.DTLBLoadMissesWalk)
	frame, res := t.walker.Translate(a) //pthammer:alloc-ok interface dispatch to the wired page walker, itself noalloc
	t.l1.InsertV(vpn, uint64(frame))
	t.l2.InsertV(vpn, uint64(frame))
	return frame, mem.Result{Latency: res.Latency, Hit: false, Source: mem.LevelPageWalk}
}

// Reset empties both TLB levels, as a recycled machine's fresh address
// space requires (the Reset/Recycle contract): a stale translation
// surviving into the next cohort would resolve against the previous
// tenant's recycled page tables.
//
//pthammer:noalloc
func (t *TLB) Reset() {
	t.l1.Reset()
	t.l2.Reset()
}

// Invalidate drops the page's translation from both levels (the
// simulated invlpg), reporting whether any level held it.
//
//pthammer:noalloc
func (t *TLB) Invalidate(a phys.Addr) bool {
	vpn := vpnOf(a)
	in1 := t.l1.Invalidate(vpn)
	in2 := t.l2.Invalidate(vpn)
	return in1 || in2
}

// Contains reports which levels currently hold the page's translation.
func (t *TLB) Contains(a phys.Addr) (inL1, inL2 bool) {
	vpn := vpnOf(a)
	return t.l1.Contains(vpn), t.l2.Contains(vpn)
}
