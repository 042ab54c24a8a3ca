package bench

import (
	"reflect"
	"testing"

	"pthammer/internal/dram"
	"pthammer/internal/evset"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// hammerConfig lowers the threshold and disables refresh so a short
// loop can cross it.
func hammerConfig() machine.Config {
	cfg := machine.SandyBridge()
	cfg.DRAM.HammerThreshold = 64
	cfg.DRAM.RefreshWindow = 0
	return cfg
}

// TestPrivilegedHammerReachesThreshold is the privileged baseline: a
// invlpg-clflush-load loop whose only DRAM traffic to the aggressor
// rows is the walker's PTE fetches drives the
// page-table victim row past the hammer threshold, while the shared
// clock, the per-access Results, and the perf counters stay in exact
// agreement.
func TestPrivilegedHammerReachesThreshold(t *testing.T) {
	m := machine.MustNew(hammerConfig())
	geom := m.Config().DRAM

	pair, ok := FindImplicitAggressors(m, 256)
	if !ok {
		t.Fatal("no implicit aggressor pair found")
	}
	if pair.Loc1.Bank != pair.Loc2.Bank || pair.Loc2.Row-pair.Loc1.Row != 2 {
		t.Fatalf("pair not double-sided same-bank: %+v / %+v", pair.Loc1, pair.Loc2)
	}
	// The attacker's explicit accesses (the data loads) must not touch
	// the aggressor rows themselves — that is the whole point.
	for _, loc := range []struct {
		name string
		row  uint64
		bank int
	}{
		{"va1 data", geom.Map(pair.VA1).Row, geom.Map(pair.VA1).Bank},
		{"va2 data", geom.Map(pair.VA2).Row, geom.Map(pair.VA2).Bank},
	} {
		if loc.bank == pair.Loc1.Bank && (loc.row == pair.Loc1.Row || loc.row == pair.Loc2.Row) {
			t.Fatalf("%s lands in an aggressor row", loc.name)
		}
	}

	const rounds = 40
	start := m.Clock().Now()
	snap := m.Counters().Snapshot()
	var sum timing.Cycles
	for i := 0; i < rounds; i++ {
		m.InvalidatePage(pair.VA1)
		sum += m.Flush(pair.PTE1)
		sum += m.Load(pair.VA1).Latency
		m.InvalidatePage(pair.VA2)
		sum += m.Flush(pair.PTE2)
		sum += m.Load(pair.VA2).Latency
	}

	// Clock/Result agreement end-to-end with the real walker: every
	// cycle the loop charged is accounted for by a returned latency.
	if got := m.Clock().Now() - start; got != sum {
		t.Fatalf("clock delta %d != latency sum %d", got, sum)
	}
	// Every load walked, and every walk's leaf PTE came from DRAM —
	// the implicit accesses that do the hammering.
	if got := snap.Delta(m.Counters(), perf.DTLBLoadMissesWalk); got != 2*rounds {
		t.Fatalf("walks = %d, want %d", got, 2*rounds)
	}
	if got := snap.Delta(m.Counters(), perf.L1PTEMemoryFetch); got != 2*rounds {
		t.Fatalf("L1 PTE memory fetches = %d, want %d", got, 2*rounds)
	}

	// The sandwiched page-table row is hammer-eligible, and every
	// reported victim lives in the PTE bank — none of them is adjacent
	// to anything the attacker loaded explicitly.
	stats := m.HammerStats()
	found := false
	for _, v := range stats.Victims {
		if v.Channel == pair.Loc1.Channel && v.Rank == pair.Loc1.Rank &&
			v.Bank == pair.Loc1.Bank && v.Row == pair.VictimRow {
			found = true
			if v.Pressure < 2*rounds {
				t.Fatalf("victim pressure = %d, want ≥ %d", v.Pressure, 2*rounds)
			}
		}
	}
	if !found {
		t.Fatalf("PTE victim row %d not in victims: %+v", pair.VictimRow, stats.Victims)
	}
}

// TestEvictionHammerReachesThreshold is the PR's acceptance test: the
// flush-free loop — TLB and LLC eviction-set walks plus target loads,
// nothing else — drives the PTE victim row past the hammer threshold
// with zero privileged operations (counter-asserted across both
// construction and hammering), while clock, Results and PMCs agree.
func TestEvictionHammerReachesThreshold(t *testing.T) {
	m := machine.MustNew(hammerConfig())
	flushes0, invlpgs0 := m.PrivilegedOps()

	h, err := NewImplicitHammer(m, 256, evset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pair := h.Pair
	if pair.Loc1.Bank != pair.Loc2.Bank || pair.Loc2.Row-pair.Loc1.Row != 2 {
		t.Fatalf("pair not double-sided same-bank: %+v / %+v", pair.Loc1, pair.Loc2)
	}
	const rounds = 40
	start := m.Clock().Now()
	snap := m.Counters().Snapshot()
	var sum timing.Cycles
	for i := 0; i < rounds; i++ {
		it := h.HammerOnce(m)
		sum += it.Cycles
		if !it.Walked {
			t.Fatalf("round %d: a target load did not walk — TLB eviction set failed", i)
		}
		if !it.LeafFromDRAM {
			t.Fatalf("round %d: a leaf PTE was served from cache — LLC eviction set failed", i)
		}
	}

	// Clock/Result agreement: every cycle the eviction-driven loop
	// charged is accounted for by a returned latency.
	if got := m.Clock().Now() - start; got != sum {
		t.Fatalf("clock delta %d != latency sum %d", got, sum)
	}
	// PMC agreement: at least the 2·rounds target walks fetched a leaf
	// PTE from DRAM (eviction-stream loads may add walks of their own,
	// but each round's two probes were individually PMC-confirmed).
	if got := snap.Delta(m.Counters(), perf.L1PTEMemoryFetch); got < 2*rounds {
		t.Fatalf("L1 PTE memory fetches = %d, want ≥ %d", got, 2*rounds)
	}
	if got := snap.Delta(m.Counters(), perf.DTLBLoadMissesWalk); got < 2*rounds {
		t.Fatalf("walks = %d, want ≥ %d", got, 2*rounds)
	}

	// The sandwiched page-table row is hammer-eligible with at least
	// one activation per probe.
	stats := m.HammerStats()
	found := false
	for _, v := range stats.Victims {
		if v.Channel == pair.Loc1.Channel && v.Rank == pair.Loc1.Rank &&
			v.Bank == pair.Loc1.Bank && v.Row == pair.VictimRow {
			found = true
			if v.Pressure < 2*rounds {
				t.Fatalf("victim pressure = %d, want ≥ %d", v.Pressure, 2*rounds)
			}
		}
	}
	if !found {
		t.Fatalf("PTE victim row %d not in victims: %+v", pair.VictimRow, stats.Victims)
	}

	// The whole attack — eviction-set construction and the hammer loop —
	// used no privileged operation.
	if f, inv := m.PrivilegedOps(); f != flushes0 || inv != invlpgs0 {
		t.Fatalf("privileged ops used: flushes %d→%d, invlpg %d→%d", flushes0, f, invlpgs0, inv)
	}
}

// TestEvictionStreamsAvoidAggressorPages: the exclusion plumbing keeps
// both aggressor pages out of all four streams, so the loop's only
// explicit accesses to them are the timed probes.
func TestEvictionStreamsAvoidAggressorPages(t *testing.T) {
	m := machine.MustNew(hammerConfig())
	h, err := NewImplicitHammer(m, 256, evset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, stream := range map[string][]phys.Addr{
		"tlb1": h.TLB1.Pages, "tlb2": h.TLB2.Pages,
		"llc1": h.LLC1.Addrs, "llc2": h.LLC2.Addrs,
	} {
		for _, a := range stream {
			f := phys.FrameOf(a)
			if f == phys.FrameOf(h.Pair.VA1) || f == phys.FrameOf(h.Pair.VA2) {
				t.Fatalf("%s stream contains aggressor page %#x", name, uint64(a))
			}
		}
	}
}

// TestImplicitHammerSteadyStateZeroAllocs pins the hot-path contract
// for the eviction-driven loop: once built and warm, a full iteration —
// four stream walks and two probes — allocates nothing.
func TestImplicitHammerSteadyStateZeroAllocs(t *testing.T) {
	m := machine.MustNew(machine.SandyBridge())
	h, err := NewImplicitHammer(m, 256, evset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		h.HammerOnce(m)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.HammerOnce(m) }); allocs != 0 {
		t.Fatalf("steady-state implicit hammer allocates %.1f per iteration, want 0", allocs)
	}
}

// TestPrivilegedHammerSteadyStateZeroAllocs keeps the same contract on
// the privileged baseline loop.
func TestPrivilegedHammerSteadyStateZeroAllocs(t *testing.T) {
	m := machine.MustNew(machine.SandyBridge())
	pair, ok := FindImplicitAggressors(m, 256)
	if !ok {
		t.Fatal("no implicit aggressor pair found")
	}
	for i := 0; i < 64; i++ {
		pair.HammerOncePrivileged(m)
	}
	if allocs := testing.AllocsPerRun(1000, func() { pair.HammerOncePrivileged(m) }); allocs != 0 {
		t.Fatalf("steady-state privileged hammer allocates %.1f per iteration, want 0", allocs)
	}
}

// TestFullPresetWindowPressure pins what one 64 ms refresh window of
// each hammer loop puts on its aggressor pair on the full SandyBridge
// preset. Pressure is the pair's summed activations, sampled after
// every iteration that ends inside the window the loop starts in; the
// iteration that crosses the window's end is not sampled. Against the
// preset's HammerThreshold of 139,000 the flush-free loop reaches
// 0.43×, the privileged invlpg+clflush loop 6.1× and the explicit
// clflush loop 6.8×, which is why every reported flip comes from a
// scaled machine.
func TestFullPresetWindowPressure(t *testing.T) {
	cfg := machine.SandyBridge()
	window := cfg.DRAM.RefreshWindow
	if window != 217_600_000 {
		t.Fatalf("RefreshWindow = %d cycles, want 217,600,000 (64 ms at machine.FreqHz)", window)
	}
	windowPeak := func(m *machine.Machine, loc1, loc2 dram.Location, iter func()) uint64 {
		start := m.HammerStats().WindowStart
		var peak uint64
		for {
			iter()
			if m.Clock().Now()-start >= window {
				return peak
			}
			peak = max(peak, m.Activations(loc1)+m.Activations(loc2))
		}
	}
	check := func(loop string, peak, want uint64) {
		t.Helper()
		if peak != want {
			t.Errorf("%s loop: peak pair pressure %d, want %d", loop, peak, want)
		}
	}

	m := machine.MustNew(cfg)
	h, err := NewImplicitHammer(m, 256, evset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := [4]int{len(h.TLB1.Pages), len(h.TLB2.Pages), len(h.LLC1.Addrs), len(h.LLC2.Addrs)}; got != [4]int{7, 7, 8, 16} {
		t.Fatalf("eviction set sizes (TLB1, TLB2, LLC1, LLC2) = %v, want [7 7 8 16]", got)
	}
	check("flush-free", windowPeak(m, h.Pair.Loc1, h.Pair.Loc2, func() { h.HammerOnce(m) }), 59_944)

	// One steady-state iteration after the window: 33 of its 35 ACTs
	// are eviction-stream traffic, 2 are the aggressor PTE fetches.
	snap := m.Counters().Snapshot()
	if it := h.HammerOnce(m); it.Cycles != 7_260 {
		t.Errorf("steady-state iteration costs %d cycles, want 7,260", it.Cycles)
	}
	for ev, want := range map[perf.Event]uint64{
		perf.DTLBLoadMissesWalk:  40,
		perf.LLCReference:        42,
		perf.LongestLatCacheMiss: 35,
		perf.DRAMActivate:        35,
		perf.DRAMRowConflicts:    35,
		perf.L1PTEMemoryFetch:    2,
	} {
		if got := snap.Delta(m.Counters(), ev); got != want {
			t.Errorf("steady-state iteration: %v = %d, want %d", ev, got, want)
		}
	}

	m = machine.MustNew(cfg)
	pair, ok := FindImplicitAggressors(m, 256)
	if !ok {
		t.Fatal("no implicit aggressor pair found")
	}
	check("privileged", windowPeak(m, pair.Loc1, pair.Loc2, func() { pair.HammerOncePrivileged(m) }), 843_408)

	m = machine.MustNew(cfg)
	row1, row3 := dram.Location{Row: 1}, dram.Location{Row: 3}
	a1, a3 := cfg.DRAM.AddrOf(row1), cfg.DRAM.AddrOf(row3)
	check("explicit", windowPeak(m, row1, row3, func() {
		m.Flush(a1)
		m.Flush(a3)
		m.Load(a1)
		m.Load(a3)
	}), 941_988)
}

// TestEscalationIterationVector pins the per-iteration event vector of
// BuildEscalation(ClassA, 1)'s hammer — 5-page TLB sets and 16-line
// LLC sets on EscalationConfig — over its first 3,000 iterations, as a
// histogram of (cycles, walks, LLC references, LLC misses, ACTs, row
// conflicts, leaf-PTE DRAM fetches). After a cold first iteration,
// every iteration costs 7,024 cycles with 34 ACTs, all row conflicts,
// except one per refresh window: the window's closing precharge turns
// one access that would conflict (190 cycles) into a closed-row
// activation (135 cycles).
func TestEscalationIterationVector(t *testing.T) {
	m, _, h, err := BuildEscalation(flip.ClassA(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := [4]int{len(h.TLB1.Pages), len(h.TLB2.Pages), len(h.LLC1.Addrs), len(h.LLC2.Addrs)}; got != [4]int{5, 5, 16, 16} {
		t.Fatalf("eviction set sizes (TLB1, TLB2, LLC1, LLC2) = %v, want [5 5 16 16]", got)
	}
	events := []perf.Event{perf.DTLBLoadMissesWalk, perf.LLCReference, perf.LongestLatCacheMiss,
		perf.DRAMActivate, perf.DRAMRowConflicts, perf.L1PTEMemoryFetch}
	got := make(map[[7]uint64]int)
	for i := 0; i < 3000; i++ {
		snap := m.Counters().Snapshot()
		var v [7]uint64
		v[0] = uint64(h.HammerOnce(m).Cycles)
		for k, ev := range events {
			v[k+1] = snap.Delta(m.Counters(), ev)
		}
		got[v]++
	}
	want := map[[7]uint64]int{
		{2_169, 44, 34, 4, 4, 3, 2}:    1,
		{7_024, 44, 34, 34, 34, 34, 2}: 2_939,
		{6_969, 44, 34, 34, 34, 33, 2}: 60,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iteration vectors [cycles walks LLC-refs LLC-misses ACTs row-conflicts leaf-PTE-fetches]: count\n got %v\nwant %v", got, want)
	}
}
