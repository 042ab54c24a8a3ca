package machine

import (
	"math"
	"runtime"
	"testing"

	"pthammer/internal/cache"
	"pthammer/internal/dram"
	"pthammer/internal/fault"
	"pthammer/internal/flip"
	"pthammer/internal/mem"
	"pthammer/internal/pagetable"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

func TestSandyBridgeConfigIsCoherent(t *testing.T) {
	cfg := SandyBridge()
	if err := cfg.Lat.Validate(); err != nil {
		t.Fatalf("preset latency table invalid: %v", err)
	}
	if got := cfg.DRAM.Capacity(); got != 1<<30 {
		t.Fatalf("preset memory = %d bytes, want 1 GiB", got)
	}
	if _, err := New(cfg); err != nil {
		t.Fatalf("New(SandyBridge()): %v", err)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	cfg := SandyBridge()
	cfg.Lat.TLBL1Hit = 0
	if _, err := New(cfg); err == nil {
		t.Error("invalid latency table accepted")
	}

	cfg = SandyBridge()
	cfg.NoiseProb = 2
	if _, err := New(cfg); err == nil {
		t.Error("invalid noise config accepted")
	}

	cfg = SandyBridge()
	cfg.DRAM.HammerThreshold = 0
	if _, err := New(cfg); err == nil {
		t.Error("invalid DRAM config accepted")
	}

	if _, err := New(tinyConfig()); err == nil {
		t.Error("memory too small for its page-table pool accepted")
	}
	mustPanicMachine(t, "MustNew of a bad config", func() { MustNew(tinyConfig()) })
}

// tinyConfig is a one-frame machine: too small to hold a page-table
// pool beside the memory it maps.
func tinyConfig() Config {
	cfg := SandyBridge()
	cfg.DRAM.Channels, cfg.DRAM.BanksPerRank = 1, 1
	cfg.DRAM.Rows, cfg.DRAM.RowBytes = 1, phys.FrameSize
	return cfg
}

// TestNewRejectsUnbuildableShapes pins that every set-associative
// structure's shape and the DRAM geometry are config errors from both
// constructors: an associativity past mem.MaxWays, an array past
// mem.MaxEntries and a capacity that wraps uint64 must fail validation,
// never reach mem.NewSetAssoc's panic or a make that cannot be met.
func TestNewRejectsUnbuildableShapes(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"32-way LLC", func(c *Config) { c.LLC.Ways = 32 }},
		{"32-way L1", func(c *Config) { c.L1.Ways = 32 }},
		{"32-way L2", func(c *Config) { c.L2.Ways = 32 }},
		{"32-way dTLB", func(c *Config) { c.TLB.L1Ways = 32 }},
		{"64-way sTLB", func(c *Config) { c.TLB.L2Ways = 64 }},
		// 2^50 sets: make panicked with len out of range.
		{"2^60-byte LLC", func(c *Config) { c.LLC.SizeBytes = 1 << 60 }},
		// The capacity wraps to 16 MiB, but one bank holds 2^52+2^12
		// rows: dram.New's count array could not be made.
		{"capacity wrapping to 16 MiB", func(c *Config) {
			c.DRAM.Channels, c.DRAM.RanksPerChannel, c.DRAM.BanksPerRank = 1, 1, 1
			c.DRAM.Rows, c.DRAM.RowBytes = 1<<52+1<<12, 4096
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SandyBridge()
			tc.edit(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("New accepted the config")
			}
			if _, err := NewMulti(MultiConfig{Config: cfg, Cores: 2}); err == nil {
				t.Error("NewMulti accepted the config")
			}
		})
	}
}

// TestColdThenWarmLoadEndToEnd is the acceptance test: one cold load
// traverses TLB miss → 4-level page walk whose PTE fetches go through
// the caches into DRAM → LLC miss → DRAM activation, a warm repeat
// hits the dTLB and L1, and the latency gap agrees with the
// perf-counter deltas and the shared clock.
func TestColdThenWarmLoadEndToEnd(t *testing.T) {
	m := MustNew(SandyBridge())
	lat := m.Config().Lat
	a := phys.Addr(0x1234560)

	start := m.Clock().Now()
	snap := m.Counters().Snapshot()

	cold := m.Load(a)
	if cold.Hit || cold.Source != mem.LevelDRAM {
		t.Fatalf("cold load = %+v, want DRAM miss", cold)
	}
	// The walk fetched one entry per level plus the data line: five
	// cache traversals, each missing to DRAM, plus four walk steps. The
	// exact DRAM cycles depend on which table frames share rows, so
	// bound rather than enumerate; the clock check below pins exactness.
	minCold := 4*lat.PageWalkStep + 4*lat.DRAMRowHit + lat.DRAMRowClosed
	maxCold := 4*lat.PageWalkStep + 5*lat.DRAMRowConflict
	if cold.Latency < minCold || cold.Latency > maxCold {
		t.Fatalf("cold latency = %d, want in [%d, %d]", cold.Latency, minCold, maxCold)
	}
	for _, c := range []struct {
		ev   perf.Event
		want uint64
	}{
		{perf.DTLBLoadMissesWalk, 1},
		{perf.PageWalkCompleted, 1},
		{perf.WalkStepPML4E, 1},
		{perf.WalkStepPDPTE, 1},
		{perf.WalkStepPDE, 1},
		{perf.WalkStepPTE, 1},
		{perf.L1PTEMemoryFetch, 1},
		{perf.PSCacheHit, 0},
		{perf.LLCReference, 5}, // 4 PTE fetches + the data line
		{perf.LongestLatCacheMiss, 5},
		{perf.DRAMRowConflicts, 0},
		{perf.DTLBLoadMissesL1, 0},
	} {
		if got := snap.Delta(m.Counters(), c.ev); got != c.want {
			t.Errorf("cold %v delta = %d, want %d", c.ev, got, c.want)
		}
	}
	// Every activation this load caused is in the table region or the
	// data row: at least the data row and the PT row activated.
	if got := snap.Delta(m.Counters(), perf.DRAMActivate); got < 2 || got > 5 {
		t.Errorf("cold DRAMActivate delta = %d, want 2..5", got)
	}

	snap = m.Counters().Snapshot()
	warm := m.Load(a)
	if !warm.Hit || warm.Source != mem.LevelL1 {
		t.Fatalf("warm load = %+v, want L1 hit", warm)
	}
	wantWarm := lat.TLBL1Hit + lat.L1Hit
	if warm.Latency != wantWarm {
		t.Fatalf("warm latency = %d, want %d", warm.Latency, wantWarm)
	}
	for _, ev := range []perf.Event{
		perf.DTLBLoadMissesWalk, perf.PageWalkCompleted, perf.PSCacheHit,
		perf.LLCReference, perf.LongestLatCacheMiss, perf.DRAMActivate,
	} {
		if got := snap.Delta(m.Counters(), ev); got != 0 {
			t.Errorf("warm %v delta = %d, want 0", ev, got)
		}
	}

	if cold.Latency <= warm.Latency {
		t.Fatalf("cold (%d) not slower than warm (%d)", cold.Latency, warm.Latency)
	}
	// Clock and reported latencies agree by construction.
	if got := m.Clock().Now() - start; got != cold.Latency+warm.Latency {
		t.Fatalf("clock delta %d != latency sum %d", got, cold.Latency+warm.Latency)
	}
	// Loads of never-written memory still read zeros without
	// materializing host frames; the only frames the walk wrote are the
	// demand-allocated page tables themselves.
	if got, tables := m.Memory().Materialized(), m.PageTables().Allocated(); got != tables {
		t.Fatalf("pure loads materialized %d frames, want only the %d table frames", got, tables)
	}
}

// TestPSCacheServesPartialWalk: after one full walk the PDE cache
// holds the PT frame, so a TLB-invalidated retranslation skips the
// three upper levels — one PS-cache charge plus a single PT-level
// fetch that hits L1.
func TestPSCacheServesPartialWalk(t *testing.T) {
	m := MustNew(SandyBridge())
	lat := m.Config().Lat
	a := phys.Addr(0x1234560)

	m.Load(a)
	if pde, pdpte, pml4e := m.Walker().PSContains(a); !pde || !pdpte || !pml4e {
		t.Fatalf("PS caches after full walk = %v %v %v, want all true", pde, pdpte, pml4e)
	}
	// Drop only the TLB entry; the paging-structure caches survive
	// (the paper's eviction sets target exactly this asymmetry).
	m.TLB().Invalidate(a)

	snap := m.Counters().Snapshot()
	frame, res := m.Translate(a)
	if frame != phys.FrameOf(a) {
		t.Fatalf("frame = %d, want identity %d", frame, phys.FrameOf(a))
	}
	want := lat.PSCacheHit + lat.PageWalkStep + lat.L1Hit // PDE hit, PTE line still in L1
	if res.Latency != want {
		t.Fatalf("partial-walk latency = %d, want %d", res.Latency, want)
	}
	for _, c := range []struct {
		ev   perf.Event
		want uint64
	}{
		{perf.PSCacheHit, 1},
		{perf.WalkStepPTE, 1},
		{perf.WalkStepPDE, 0},
		{perf.WalkStepPDPTE, 0},
		{perf.WalkStepPML4E, 0},
		{perf.PageWalkCompleted, 1},
		{perf.L1PTEMemoryFetch, 0}, // served from L1, not DRAM
	} {
		if got := snap.Delta(m.Counters(), c.ev); got != c.want {
			t.Errorf("%v delta = %d, want %d", c.ev, got, c.want)
		}
	}
}

// TestPTECorruptionRedirectsTranslation is the paper's exploitation
// step: a single bit flip in a PT entry (the kind the hammer loop
// induces) makes the next walk resolve the VA to a different frame.
func TestPTECorruptionRedirectsTranslation(t *testing.T) {
	m := MustNew(SandyBridge())
	va := phys.Addr(0x5000)

	m.Load(va)
	pte, ok := m.PTEAddr(va, 1)
	if !ok {
		t.Fatal("PTE not mapped after load")
	}
	// Flip bit 12 of the entry (byte 1, bit 4): the lowest frame bit.
	m.Memory().FlipBit(pte+1, 4)

	// The stale TLB entry still serves the old translation — flips are
	// invisible until the translation is re-walked.
	if frame, _ := m.Translate(va); frame != phys.FrameOf(va) {
		t.Fatalf("TLB-cached translation = %d, want stale identity %d", frame, phys.FrameOf(va))
	}

	m.InvalidatePage(va)
	frame, res := m.Translate(va)
	if want := phys.FrameOf(va) ^ 1; frame != want {
		t.Fatalf("corrupted translation = %d, want %d", frame, want)
	}
	if res.Hit || res.Source != mem.LevelPageWalk {
		t.Fatalf("corrupted translation came from %v, want a walk", res.Source)
	}
	// The data side follows the corrupted translation: the load now
	// fills the cache line of the *wrong* physical frame.
	m.Load(va)
	wrongPA := (phys.FrameOf(va) ^ 1).Addr() + phys.Addr(phys.Offset(va))
	if in1, _, _ := m.Caches().Contains(wrongPA); !in1 {
		t.Fatal("load after corruption did not touch the redirected frame")
	}
}

// TestPDECorruptionAndPSCacheInvalidation pins the paging-structure
// cache semantics around corruption: a flipped PDE is masked by a
// cached PDE entry (the walk skips the corrupted level) until invlpg
// drops the PS caches, after which the walk follows the corrupted
// entry into the *adjacent page table* and resolves a different frame.
func TestPDECorruptionAndPSCacheInvalidation(t *testing.T) {
	m := MustNew(SandyBridge())
	va1 := phys.Addr(0)                 // region 0 → PT allocated first
	va2 := phys.Addr(pagetable.Span(2)) // region 1 → next PT frame
	m.Load(va1)
	m.Load(va2)

	pt1, ok1 := m.PTEAddr(va1, 1)
	pt2, ok2 := m.PTEAddr(va2, 1)
	if !ok1 || !ok2 {
		t.Fatal("PTs not mapped")
	}
	// Precondition of the chosen flip: the two PT frames differ in
	// exactly frame bit 0, so flipping entry bit 12 swaps them.
	if phys.FrameOf(pt2) != phys.FrameOf(pt1)^1 {
		t.Fatalf("PT frames %d/%d not bit-0 adjacent; demand-alloc order changed",
			phys.FrameOf(pt1), phys.FrameOf(pt2))
	}
	pde, ok := m.PTEAddr(va1, 2)
	if !ok {
		t.Fatal("PDE not mapped")
	}
	m.Memory().FlipBit(pde+1, 4)

	// TLB dropped but PS caches intact: the cached PDE still points at
	// the original PT, so translation is still correct.
	m.TLB().Invalidate(va1)
	if frame, _ := m.Translate(va1); frame != phys.FrameOf(va1) {
		t.Fatalf("PS-cached translation = %d, want %d (corrupted PDE should be skipped)",
			frame, phys.FrameOf(va1))
	}

	// Full invlpg drops the PS caches too: the walk now reads the
	// corrupted PDE and lands in va2's page table, whose same-index
	// entry maps va2's frame.
	m.InvalidatePage(va1)
	if frame, _ := m.Translate(va1); frame != phys.FrameOf(va2) {
		t.Fatalf("post-invlpg translation = %d, want redirected %d", frame, phys.FrameOf(va2))
	}
	// The reference resolver agrees — the corruption lives in the
	// tables themselves, not in walker state.
	if frame, ok := m.PageTables().Resolve(va1); !ok || frame != phys.FrameOf(va2) {
		t.Fatalf("Resolve = %d/%v, want %d", frame, ok, phys.FrameOf(va2))
	}
}

// hammerConfig is SandyBridge with a tiny hammer threshold and no
// refresh window so a short test loop can cross it.
func hammerConfig() Config {
	cfg := SandyBridge()
	cfg.DRAM.HammerThreshold = 16
	cfg.DRAM.RefreshWindow = 0
	return cfg
}

// TestFlushHammerLoopReachesThreshold drives the clflush-based
// explicit hammer baseline through the facade: alternate loads to two
// same-bank rows with flushes in between, and observe the sandwiched
// victim row become hammer-eligible. The first touch of each aggressor
// happens before the snapshot so the page-walk activations of the cold
// translations stay out of the hammer accounting.
func TestFlushHammerLoopReachesThreshold(t *testing.T) {
	m := MustNew(hammerConfig())
	geom := m.Config().DRAM

	above := geom.AddrOf(dram.Location{Row: 100})
	below := geom.AddrOf(dram.Location{Row: 102})
	if la, lb := geom.Map(above), geom.Map(below); la.Channel != lb.Channel || la.Rank != lb.Rank || la.Bank != lb.Bank {
		t.Fatalf("aggressors not same-bank: %+v vs %+v", la, lb)
	}
	m.Load(above)
	m.Flush(above)
	m.Load(below)
	m.Flush(below)

	snap := m.Counters().Snapshot()
	for i := 0; i < 8; i++ {
		m.Load(above)
		m.Flush(above)
		m.Load(below)
		m.Flush(below)
	}
	// Translations are TLB-cached, so no walks: with the flushes every
	// load re-activates exactly its own row, 8 activations per
	// aggressor.
	if got := snap.Delta(m.Counters(), perf.DRAMActivate); got != 16 {
		t.Fatalf("activations = %d, want 16", got)
	}
	if got := snap.Delta(m.Counters(), perf.DTLBLoadMissesWalk); got != 0 {
		t.Fatalf("hammer loop walked %d times, want 0 (translations cached)", got)
	}

	s := m.HammerStats()
	if len(s.Victims) != 1 {
		t.Fatalf("victims = %+v, want exactly the sandwiched row", s.Victims)
	}
	v := s.Victims[0]
	// 8 loop activations + 1 warm-up activation per side.
	if v.Row != 101 || v.Pressure != 18 {
		t.Fatalf("victim = %+v, want row 101 pressure 18", v)
	}
	// The per-row counts behind that pressure, read through the core's
	// own DRAM port.
	if a, b := m.Activations(geom.Map(above)), m.Activations(geom.Map(below)); a != 9 || b != 9 {
		t.Fatalf("aggressor activations = %d and %d, want 9 each", a, b)
	}
}

// TestCachesAbsorbHammerWithoutFlush is the negative control: the same
// loop without flushes stays in the cache (data, TLB and
// paging-structure caches alike) and never re-activates.
func TestCachesAbsorbHammerWithoutFlush(t *testing.T) {
	m := MustNew(hammerConfig())
	geom := m.Config().DRAM
	above := geom.AddrOf(dram.Location{Row: 100})
	below := geom.AddrOf(dram.Location{Row: 102})
	m.Load(above)
	m.Load(below)

	snap := m.Counters().Snapshot()
	for i := 0; i < 32; i++ {
		m.Load(above)
		m.Load(below)
	}
	if got := snap.Delta(m.Counters(), perf.DRAMActivate); got != 0 {
		t.Fatalf("activations = %d, want 0 (everything cached)", got)
	}
	if s := m.HammerStats(); len(s.Victims) != 0 {
		t.Fatalf("victims without flushing: %+v", s.Victims)
	}
}

func TestNoiseStaysConsistentWithClock(t *testing.T) {
	cfg := SandyBridge()
	cfg.NoiseSeed = 7
	cfg.NoiseProb = 0.5
	cfg.NoiseMin = 500
	cfg.NoiseMax = 1500
	m := MustNew(cfg)

	start := m.Clock().Now()
	var sum timing.Cycles
	spiked := false
	warm := cfg.Lat.TLBL1Hit + cfg.Lat.L1Hit
	for i := 0; i < 200; i++ {
		res := m.Load(phys.Addr(0x40))
		sum += res.Latency
		if i > 0 && res.Latency > warm {
			spiked = true
		}
	}
	if !spiked {
		t.Fatal("no spike in 200 samples at prob 0.5")
	}
	if got := m.Clock().Now() - start; got != sum {
		t.Fatalf("clock delta %d != latency sum %d", got, sum)
	}
}

func TestLoadPanicsOutOfRange(t *testing.T) {
	m := MustNew(SandyBridge())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range load did not panic")
		}
	}()
	m.Load(phys.Addr(m.Config().DRAM.Capacity()))
}

func TestTranslatePanicsOutOfRange(t *testing.T) {
	m := MustNew(SandyBridge())
	mustPanicMachine(t, "out-of-range translate", func() { m.Translate(phys.Addr(m.Config().DRAM.Capacity())) })
}

func TestFlushPanicsOutOfRange(t *testing.T) {
	m := MustNew(SandyBridge())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range flush did not panic")
		}
	}()
	m.Flush(phys.Addr(m.Config().DRAM.Capacity()))
}

func TestFlushDoesNotTouchTLB(t *testing.T) {
	m := MustNew(SandyBridge())
	a := phys.Addr(0x9000)
	m.Load(a)
	m.Flush(a)
	// The data line is gone but the translation survives — the reason
	// the paper needs eviction-based TLB flushing from user space.
	res := m.Load(a)
	if res.Hit || res.Source != mem.LevelDRAM {
		t.Fatalf("post-flush load = %+v, want DRAM", res)
	}
	if in1, _ := m.TLB().Contains(a); !in1 {
		t.Fatal("Flush evicted the TLB entry")
	}
	if got := m.Counters().Read(perf.DTLBLoadMissesWalk); got != 1 {
		t.Fatalf("walks = %d, want 1 (translation cached)", got)
	}
}

// TestLoadSteadyStateZeroAllocs pins the hot-path contract: once the
// machine is warmed up, Load (hit or full DRAM miss) allocates nothing.
func TestLoadSteadyStateZeroAllocs(t *testing.T) {
	m := MustNew(SandyBridge())
	geom := m.Config().DRAM
	a1 := geom.AddrOf(dram.Location{Row: 1})
	a2 := geom.AddrOf(dram.Location{Row: 3})
	// Warm up: touch the flush-hammer working set so lazily grown
	// bookkeeping (touched-row lists) reaches steady state.
	for i := 0; i < 64; i++ {
		m.Flush(a1)
		m.Flush(a2)
		m.Load(a1)
		m.Load(a2)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Flush(a1)
		m.Flush(a2)
		m.Load(a1)
		m.Load(a2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state flush-hammer loop allocates %.1f per iteration, want 0", allocs)
	}
}

// TestPrimeMatchesLoads: the batch eviction-stream primitive is just
// Load in a loop — same clock movement, same counters, and the
// returned cycle total equals the sum of the individual latencies.
func TestPrimeMatchesLoads(t *testing.T) {
	addrs := []phys.Addr{0x0, 0x1000, 0x80000, 0x200000, 0x1000}
	single := MustNew(SandyBridge())
	batched := MustNew(SandyBridge())

	var want timing.Cycles
	for _, a := range addrs {
		want += single.Load(a).Latency
	}
	got := batched.Prime(addrs)
	if got != want {
		t.Fatalf("Prime returned %d cycles, want %d", got, want)
	}
	if single.Clock().Now() != batched.Clock().Now() {
		t.Fatalf("clocks diverged: %d vs %d", single.Clock().Now(), batched.Clock().Now())
	}
	for _, ev := range []perf.Event{
		perf.DTLBLoadMissesWalk, perf.LLCReference, perf.DRAMActivate, perf.PageWalkCompleted,
	} {
		if single.Counters().Read(ev) != batched.Counters().Read(ev) {
			t.Fatalf("counter %v diverged", ev)
		}
	}
	// Prime on a warmed stream allocates nothing — it is the eviction
	// hammer's hot path.
	if allocs := testing.AllocsPerRun(100, func() { batched.Prime(addrs) }); allocs != 0 {
		t.Fatalf("steady-state Prime allocates %.1f per call, want 0", allocs)
	}
}

// TestProbeDecodesPMCDeltas: a cold probe sees the walk, the DRAM leaf
// fetch and the LLC miss; a warm reprobe sees none of them; an
// sTLB-only miss is distinguished from a full walk.
func TestProbeDecodesPMCDeltas(t *testing.T) {
	m := MustNew(SandyBridge())
	a := phys.Addr(0x345678)

	cold := m.Probe(a)
	if !cold.Walked || !cold.LeafFromDRAM || !cold.LLCMiss {
		t.Fatalf("cold probe = %+v, want walk + DRAM leaf + LLC miss", cold)
	}
	if cold.STLBHit {
		t.Fatal("cold probe cannot hit the sTLB")
	}
	warm := m.Probe(a)
	if warm.Walked || warm.LeafFromDRAM || warm.LLCMiss || warm.STLBHit {
		t.Fatalf("warm probe = %+v, want no miss events", warm)
	}
	if warm.Latency >= cold.Latency {
		t.Fatalf("warm probe (%d) not faster than cold (%d)", warm.Latency, cold.Latency)
	}
	// Evict a from the dTLB only: prime pages that share its dTLB set
	// (vpn stride = dTLB set count) but land in different sTLB sets, so
	// the probe hits the sTLB — STLBHit without a walk.
	cfg := m.Config().TLB
	dSets := uint64(cfg.L1Entries / cfg.L1Ways)
	conflicts := make([]phys.Addr, cfg.L1Ways)
	for i := range conflicts {
		conflicts[i] = a + phys.Addr((uint64(i)+1)*dSets<<phys.FrameShift)
	}
	m.Prime(conflicts)
	if p := m.Probe(a); p.Walked || !p.STLBHit {
		t.Fatalf("probe after dTLB-only eviction = %+v, want sTLB hit without walk", p)
	}
	// Probe charges exactly what it reports.
	before := m.Clock().Now()
	p := m.Probe(a)
	if got := m.Clock().Now() - before; got != p.Latency {
		t.Fatalf("probe charged %d cycles but reported %d", got, p.Latency)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Probe(a) }); allocs != 0 {
		t.Fatalf("Probe allocates %.1f per call, want 0", allocs)
	}
}

// TestPrivilegedOpsCountsFlushAndInvlpg: only the two privileged
// operations move the counters; the attacker-available primitives
// (Load, Prime, Probe) never do.
func TestPrivilegedOpsCountsFlushAndInvlpg(t *testing.T) {
	m := MustNew(SandyBridge())
	a := phys.Addr(0x2000)
	m.Load(a)
	m.Prime([]phys.Addr{0x3000, 0x4000})
	m.Probe(a)
	if f, i := m.PrivilegedOps(); f != 0 || i != 0 {
		t.Fatalf("unprivileged traffic counted as privileged: flushes=%d invlpg=%d", f, i)
	}
	m.Flush(a)
	m.InvalidatePage(a)
	m.InvalidatePage(a)
	if f, i := m.PrivilegedOps(); f != 1 || i != 2 {
		t.Fatalf("privileged ops = %d/%d, want 1 flush, 2 invlpg", f, i)
	}
}

// TestLoadNMatchesLoad checks the batched path is just Load in a loop:
// same results, same clock and counter movement.
func TestLoadNMatchesLoad(t *testing.T) {
	addrs := []phys.Addr{0x0, 0x1000, 0x40, 0x200000, 0x1000, 0x7fff8}
	single := MustNew(SandyBridge())
	batched := MustNew(SandyBridge())

	var want []mem.Result
	for _, a := range addrs {
		want = append(want, single.Load(a))
	}
	got := batched.LoadN(addrs, nil)
	if len(got) != len(want) {
		t.Fatalf("LoadN returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if single.Clock().Now() != batched.Clock().Now() {
		t.Fatalf("clocks diverged: %d vs %d", single.Clock().Now(), batched.Clock().Now())
	}
	for _, ev := range []perf.Event{
		perf.DTLBLoadMissesWalk, perf.DTLBLoadMissesL1, perf.LongestLatCacheMiss,
		perf.LLCReference, perf.DRAMActivate, perf.DRAMRowConflicts, perf.PageWalkCompleted,
	} {
		if single.Counters().Read(ev) != batched.Counters().Read(ev) {
			t.Fatalf("counter %v diverged", ev)
		}
	}

	// Appending into a reused buffer extends rather than clobbers.
	buf := make([]mem.Result, 0, 16)
	buf = batched.LoadN(addrs[:2], buf)
	buf = batched.LoadN(addrs[2:4], buf)
	if len(buf) != 4 {
		t.Fatalf("reused buffer length = %d, want 4", len(buf))
	}
}

// TestFlipModelEndToEnd wires the disturbance-error engine through the
// facade: a flush-hammer loop crossing refresh windows makes the
// configured model corrupt cells in the sandwiched victim row — real
// bytes change in phys.Memory — while a machine without a model keeps
// memory ideal.
func TestFlipModelEndToEnd(t *testing.T) {
	cfg := hammerConfig()
	cfg.DRAM.RefreshWindow = 5000
	// An eager profile so a short loop flips: certain past threshold,
	// always discharging.
	model := flip.MustNewModel(flip.Profile{
		Name: "eager", AttemptsPerWindow: 16, ExcessScale: 1, OneToZeroBias: 1,
	}, 99)
	cfg.FlipModel = model
	m := MustNew(cfg)
	if m.FlipModel() != model {
		t.Fatal("FlipModel accessor does not return the configured model")
	}

	geom := m.Config().DRAM
	above := geom.AddrOf(dram.Location{Row: 100})
	below := geom.AddrOf(dram.Location{Row: 102})
	// The victim row holds attacker-readable data: fill it with ones so
	// every discharge is observable.
	victimStart, victimBytes := geom.RowRange(0, 0, 0, 101)
	for off := uint64(0); off < victimBytes; off++ {
		m.Memory().Write8(victimStart+phys.Addr(off), 0xFF)
	}

	m.Load(above)
	m.Load(below)
	for i := 0; i < 400 && len(m.Flips()) == 0; i++ {
		m.Flush(above)
		m.Flush(below)
		m.Load(above)
		m.Load(below)
	}
	flips := m.Flips()
	if len(flips) == 0 {
		t.Fatalf("no flips after hammering across %d windows", model.Windows())
	}
	for _, f := range flips {
		if f.Addr < victimStart || f.Addr >= victimStart+phys.Addr(victimBytes) {
			t.Fatalf("flip at %#x outside victim row [%#x, %#x)", uint64(f.Addr), uint64(victimStart), uint64(victimStart)+victimBytes)
		}
		if !f.OneToZero {
			t.Fatalf("0→1 flip from an all-ones row: %+v", f)
		}
		if got := m.Memory().Bit(f.Addr, f.Bit); got != 0 {
			t.Fatalf("flipped cell %#x bit %d still reads %d", uint64(f.Addr), f.Bit, got)
		}
	}

	// The control machine, hammered identically without a model, stays
	// pristine.
	ctl := MustNew(hammerConfig())
	if ctl.Flips() != nil {
		t.Fatal("machine without FlipModel reports flips")
	}
}

// TestNewRejectsBoundFlipModel: a model already bound to one machine
// cannot be wired into a second.
func TestNewRejectsBoundFlipModel(t *testing.T) {
	cfg := hammerConfig()
	cfg.FlipModel = flip.MustNewModel(flip.ClassA(), 1)
	if _, err := New(cfg); err != nil {
		t.Fatalf("first machine: %v", err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("second machine accepted an already-bound flip model")
	}
}

// TestResetRefreshWindowClearsPressure: construction-style traffic is
// discarded by an explicit reset, so measured pressure starts at zero.
func TestResetRefreshWindowClearsPressure(t *testing.T) {
	m := MustNew(hammerConfig())
	geom := m.Config().DRAM
	above := geom.AddrOf(dram.Location{Row: 100})
	below := geom.AddrOf(dram.Location{Row: 102})
	m.Load(above)
	m.Load(below)
	for i := 0; i < 16; i++ {
		m.Flush(above)
		m.Flush(below)
		m.Load(above)
		m.Load(below)
	}
	if s := m.HammerStats(); s.Activations == 0 || len(s.Victims) == 0 {
		t.Fatalf("expected construction pressure, got %+v", s)
	}
	m.ResetRefreshWindow()
	if s := m.HammerStats(); s.Activations != 0 || len(s.Victims) != 0 {
		t.Fatalf("stats after reset = %+v, want zero", s)
	}
}

// TestStore64WritesThroughTranslation: a store translates like a load,
// charges the clock exactly its reported latency, lands its bytes in
// physical memory, and leaves the line cached for the next access.
func TestStore64WritesThroughTranslation(t *testing.T) {
	m := MustNew(SandyBridge())
	va := phys.Addr(0x7008)
	const v = 0xfeed_face_cafe_f00d

	start := m.Clock().Now()
	res := m.Store64(va, v)
	if got := m.Clock().Now() - start; got != res.Latency {
		t.Fatalf("clock advanced %d, result says %d", got, res.Latency)
	}
	if res.Hit || res.Source != mem.LevelDRAM {
		t.Fatalf("cold store result = %+v, want DRAM miss", res)
	}
	if got := m.Memory().Read64(va); got != v {
		t.Fatalf("stored value = %#x, want %#x", got, uint64(v))
	}
	// Write-allocate: the line is now cached, so a warm store hits L1
	// with its translation in the dTLB.
	res2 := m.Store64(va, v+1)
	if !res2.Hit || res2.Source != mem.LevelL1 {
		t.Fatalf("warm store result = %+v, want L1 hit", res2)
	}
	if got := m.Memory().Read64(va); got != v+1 {
		t.Fatalf("second store lost: %#x", got)
	}
	mustPanicMachine(t, "out-of-range store", func() { m.Store64(phys.Addr(m.Memory().Size()), 1) })
}

func mustPanicMachine(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// TestFaultProbeJitterStaysConsistentWithClock: threshold-drift spikes
// are charged to the shared clock, so the clock-delta/latency-sum
// agreement invariant holds under drift too.
func TestFaultProbeJitterStaysConsistentWithClock(t *testing.T) {
	cfg := hammerConfig()
	cfg.FaultModel = fault.MustNewModel(fault.Config{Class: fault.ThresholdDrift, Seed: 3})
	m := MustNew(cfg)

	start := m.Clock().Now()
	var sum timing.Cycles
	for i := 0; i < 500; i++ {
		sum += m.Probe(phys.Addr(0x40)).Latency
	}
	if got := m.Clock().Now() - start; got != sum {
		t.Fatalf("clock delta %d != probe latency sum %d", got, sum)
	}
	if m.FaultModel().Stats().ProbesPerturbed == 0 {
		t.Fatal("no probe perturbed in 500 samples at default drift prob")
	}
}

// TestFaultPrimeDecayDropsMembers: once the decay model's quiet head
// of Prime calls has passed, a burst makes the Prime stream lose
// members, visible as both the model's drop counter and a cheaper
// total than the honest walk.
func TestFaultPrimeDecayDropsMembers(t *testing.T) {
	cfg := hammerConfig()
	cfg.FaultModel = fault.MustNewModel(fault.Config{Class: fault.EvictionDecay, Seed: 1})
	m := MustNew(cfg)

	addrs := make([]phys.Addr, 32)
	for i := range addrs {
		addrs[i] = phys.Addr(i) * 4096
	}
	if got := m.Prime(nil); got != 0 {
		t.Fatalf("faulted Prime of empty stream charged %d cycles", got)
	}
	// The walk is warm after its first pass, so every honest Prime
	// costs the same; the quiet head is a few thousand calls.
	m.Prime(addrs)
	honest := m.Prime(addrs)
	cheaper := false
	for i := 0; i < 10_000 && !cheaper; i++ {
		cheaper = m.Prime(addrs) < honest
	}
	s := m.FaultModel().Stats()
	if !cheaper || s.MembersDropped == 0 || s.PrimesFaulted == 0 {
		t.Fatalf("decay burst injected nothing in 10,000 Primes (cheaper walk %v): %+v", cheaper, s)
	}
}

// TestFaultFreeMachineHasNilModel: the default config carries no fault
// model and the accessor says so.
func TestFaultFreeMachineHasNilModel(t *testing.T) {
	m := MustNew(hammerConfig())
	if m.FaultModel() != nil {
		t.Fatal("fault-free machine reports a fault model")
	}
}

// TestNewRejectsBoundFaultModel: like flip models, a fault model
// belongs to exactly one machine.
func TestNewRejectsBoundFaultModel(t *testing.T) {
	cfg := hammerConfig()
	cfg.FaultModel = fault.MustNewModel(fault.Config{Class: fault.TRRSuppress, Seed: 1})
	if _, err := New(cfg); err != nil {
		t.Fatalf("first machine: %v", err)
	}
	cfg.FlipModel = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("second machine accepted an already-bound fault model")
	}
}

// TestFaultSuppressAllKillsFlips: a perfect TRR sampler (suppress rate
// 1.0) wired through New means the flip engine records windows but
// never a single attempt — the structural "unrecoverable" case the
// escalation driver must turn into a budgeted abort.
func TestFaultSuppressAllKillsFlips(t *testing.T) {
	cfg := hammerConfig()
	cfg.DRAM.RefreshWindow = 200_000
	cfg.FlipModel = flip.MustNewModel(flip.ClassA(), 1)
	cfg.FaultModel = fault.MustNewModel(fault.Config{Class: fault.TRRSuppress, Seed: 1, SuppressRate: 1})
	m := MustNew(cfg)
	geom := m.Config().DRAM

	above := geom.AddrOf(dram.Location{Row: 100})
	below := geom.AddrOf(dram.Location{Row: 102})
	victim := geom.AddrOf(dram.Location{Row: 101})
	m.Memory().Write8(victim, 0xff)
	for i := 0; i < 20_000; i++ {
		m.Load(above)
		m.Flush(above)
		m.Load(below)
		m.Flush(below)
	}
	model := m.FlipModel()
	if model.Windows() == 0 {
		t.Fatal("no refresh window elapsed")
	}
	if got := model.Attempts(); got != 0 {
		t.Fatalf("perfect suppression let %d attempts through", got)
	}
	if got := m.FaultModel().Stats().AttemptsSuppressed; got == 0 {
		t.Fatal("suppression count did not move")
	}
	if len(m.Flips()) != 0 {
		t.Fatalf("flips recorded under total suppression: %d", len(m.Flips()))
	}
}

// TestNewRejectsMislandOnShortBanks: flip-misland moves a flip eight
// rows up, or down at the top of a bank, so a bank of fewer than 16
// rows has rows with neither neighbour. New must reject such a
// geometry with the fault model's error; relocating a flip from one of
// those rows wrapped below row 0 to an address far outside memory, and
// the flip engine then panicked writing it. 16 rows is enough.
func TestNewRejectsMislandOnShortBanks(t *testing.T) {
	for _, tc := range []struct {
		rows uint64
		ok   bool
	}{{12, false}, {16, true}} {
		cfg := SandyBridge()
		cfg.DRAM.Channels, cfg.DRAM.RanksPerChannel, cfg.DRAM.BanksPerRank = 1, 1, 2
		cfg.DRAM.Rows = tc.rows
		cfg.FaultModel = fault.MustNewModel(fault.Config{Class: fault.FlipMisland, Seed: 1, MislandRate: 1})
		_, err := New(cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%d-row banks: New error %v, want ok=%v", tc.rows, err, tc.ok)
		}
	}
}

// TestNewFootprint pins machine.New's host cost on the SandyBridge
// preset: it allocates the cache, TLB and paging-structure arrays its
// config sizes, plus at most 64 KiB for everything else — the frame and
// row directories of the physical memory and DRAM included, not one
// host word per modelled frame or row. An array of sets × ways costs a
// 32-byte header per set and an 8-byte tag per entry, and the TLBs' and
// paging-structure caches' arrays 8 bytes more per entry for the
// payload (the walker's three caches are 8 × 4, 1 × 4 and 1 × 4).
// TotalAlloc is process-wide and New allocates the same bytes on every
// call, so the smallest delta of five builds is New's own.
func TestNewFootprint(t *testing.T) {
	cfg := SandyBridge()
	array := func(sets, ways uint64, payload bool) uint64 {
		per := uint64(8)
		if payload {
			per += 8
		}
		return sets*32 + sets*ways*per
	}
	cacheArray := func(c cache.Config) uint64 { return array(c.Sets(), uint64(c.Ways), false) }
	arrays := cacheArray(cfg.L1) + cacheArray(cfg.L2) + cacheArray(cfg.LLC) +
		array(uint64(cfg.TLB.L1Entries/cfg.TLB.L1Ways), uint64(cfg.TLB.L1Ways), true) +
		array(uint64(cfg.TLB.L2Entries/cfg.TLB.L2Ways), uint64(cfg.TLB.L2Ways), true) +
		array(8, 4, true) + 2*array(1, 4, true)
	limit := arrays + 64<<10
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		runtime.KeepAlive(m)
	}
	t.Logf("New allocated %d bytes: %d in cache, TLB and paging-structure arrays", least, arrays)
	if least > limit {
		t.Errorf("New allocated %d bytes, want at most %d (%d in arrays + 64 KiB)", least, limit, arrays)
	}
}
