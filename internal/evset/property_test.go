package evset

import (
	"math/rand"
	"testing"

	"pthammer/internal/cache"
	"pthammer/internal/dram"
	"pthammer/internal/machine"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
	"pthammer/internal/tlb"
)

// randomConfig draws a small but valid machine: power-of-two DRAM
// geometry (so the decode stays shift/mask), caches sized well under
// the SandyBridge preset so construction stays fast, and TLB shapes
// varied enough to exercise both the dTLB-bound and sTLB-bound cases.
func randomConfig(r *rand.Rand) machine.Config {
	rowBytes := uint64(4096 << r.Intn(2))
	channels := 1 << r.Intn(2)
	banks := 1 << r.Intn(3)
	rows := uint64(1024)
	d := dram.Config{
		Channels:        channels,
		RanksPerChannel: 1,
		BanksPerRank:    banks,
		Rows:            rows,
		RowBytes:        rowBytes,
		RefreshWindow:   0,
		HammerThreshold: 1 << 20, // victims are irrelevant here
	}
	return machine.Config{
		Lat:  timing.DefaultLatencies(),
		DRAM: d,
		L1:   cache.Config{SizeBytes: 8 << 10, Ways: 2},
		L2:   cache.Config{SizeBytes: 32 << 10, Ways: 4},
		LLC:  cache.Config{SizeBytes: uint64(64<<10) << r.Intn(2), Ways: 4 << r.Intn(2)},
		TLB: tlb.Config{
			L1Entries: 8 << r.Intn(2), L1Ways: 2,
			L2Entries: 64 << r.Intn(2), L2Ways: 4,
		},
	}
}

// TestMinimizedSetsLoseEvictionWithoutAnyElement is the Algorithm 1
// minimality property over seeded random machines: the built sets
// evict, and removing any single element stops them evicting — for
// both the TLB set and the leaf-PTE LLC set.
func TestMinimizedSetsLoseEvictionWithoutAnyElement(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := randomConfig(r)
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// A target somewhere in the low quarter of memory, page 2+, at a
		// non-zero page offset so offset handling is exercised too.
		pages := cfg.DRAM.Capacity() / phys.FrameSize
		target := phys.Addr((2 + r.Uint64()%(pages/4)) << phys.FrameShift)
		target += phys.Addr(uint64(r.Intn(64)) * 64)

		trials := Options{}.withDefaults().Trials
		tlbSet, err := BuildTLB(m, target, nil, Options{})
		if err != nil {
			t.Fatalf("seed %d: BuildTLB: %v", seed, err)
		}
		tlbEvicts := func(pages []phys.Addr) bool {
			return evictsTLB(m, target, pages, tlbSet.Cal.Threshold, trials)
		}
		if !tlbEvicts(tlbSet.Pages) {
			t.Fatalf("seed %d: minimized TLB set does not evict", seed)
		}
		checkMinimal(t, seed, "TLB", tlbSet.Pages, tlbEvicts)

		llcSet, err := BuildLLCPTE(m, target, tlbSet, nil, Options{})
		if err != nil {
			t.Fatalf("seed %d: BuildLLCPTE: %v", seed, err)
		}
		llcEvicts := func(addrs []phys.Addr) bool {
			return evictsLLC(m, target, tlbSet.Pages, addrs, llcSet.Cal.Threshold, trials)
		}
		if !llcEvicts(llcSet.Addrs) {
			t.Fatalf("seed %d: minimized LLC set does not evict", seed)
		}
		checkMinimal(t, seed, "LLC", llcSet.Addrs, llcEvicts)
	}
}

// checkMinimal asserts that dropping any single element of the set
// breaks eviction.
func checkMinimal(t *testing.T, seed int64, kind string, set []phys.Addr, evicts func([]phys.Addr) bool) {
	t.Helper()
	sub := make([]phys.Addr, 0, len(set))
	for i := range set {
		sub = append(sub[:0], set[:i]...)
		sub = append(sub, set[i+1:]...)
		if evicts(sub) {
			t.Fatalf("seed %d: %s set of %d still evicts without element %d (%#x)",
				seed, kind, len(set), i, uint64(set[i]))
		}
	}
}
