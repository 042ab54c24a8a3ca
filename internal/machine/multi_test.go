package machine

import (
	"reflect"
	"runtime"
	"testing"

	"pthammer/internal/dram"
	"pthammer/internal/fault"
	"pthammer/internal/flip"
	"pthammer/internal/mem"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

func TestNewMultiWiring(t *testing.T) {
	mm := MustNewMulti(MultiConfig{Config: SandyBridge(), Cores: 3, Tenants: []int{0, 1, 0}})
	if mm.NumCores() != 3 || mm.Tenants() != 2 {
		t.Fatalf("got %d cores / %d tenants, want 3 / 2", mm.NumCores(), mm.Tenants())
	}
	for i := 0; i < 3; i++ {
		c := mm.Core(i)
		if c.Core() != i {
			t.Fatalf("core %d reports index %d", i, c.Core())
		}
		if c.Memory() != mm.Memory() || c.DRAM() != mm.DRAM() {
			t.Fatalf("core %d does not share memory/DRAM", i)
		}
		if c.PageTables() != mm.Tables(mm.Tenant(i)) {
			t.Fatalf("core %d not attached to tenant %d's tables", i, mm.Tenant(i))
		}
	}
	// Same tenant ⇒ same address space; different tenant ⇒ disjoint.
	if mm.Core(0).PageTables() != mm.Core(2).PageTables() {
		t.Fatal("cores 0 and 2 (both tenant 0) have different tables")
	}
	if mm.Core(0).PageTables() == mm.Core(1).PageTables() {
		t.Fatal("tenants 0 and 1 share tables")
	}
	// Clocks are per core: advancing one must not move another.
	mm.Core(0).Load(0)
	if mm.Core(1).Clock().Now() != 0 {
		t.Fatal("core 0's load advanced core 1's clock")
	}
}

func TestNewMultiRejectsBadConfigs(t *testing.T) {
	base := SandyBridge()
	cases := []MultiConfig{
		{Config: base, Cores: 0},
		{Config: base, Cores: 2, Tenants: []int{0}},     // wrong length
		{Config: base, Cores: 2, Tenants: []int{0, -1}}, // negative
		{Config: base, Cores: 2, Tenants: []int{0, 2}},  // not dense
		{Config: base, Cores: 2, Tenants: []int{1, 1}},  // tenant 0 unused
	}
	for i, cfg := range cases {
		if _, err := NewMulti(cfg); err == nil {
			t.Fatalf("case %d: NewMulti accepted invalid config %+v", i, cfg)
		}
	}
}

// TestTenantPoolsStripeAdjacentRows pins the cross-tenant attack
// surface: with two tenants, the page-table pools alternate DRAM row
// indices, so each tenant's table rows are physically sandwiched by
// the other tenant's.
func TestTenantPoolsStripeAdjacentRows(t *testing.T) {
	cfg := SandyBridge()
	pools, err := tenantPools(cfg, 2, LayoutInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	geom := cfg.DRAM
	rowOf := func(f phys.Frame) uint64 {
		l := geom.Map(f.Addr())
		return l.Row
	}
	// Frames within one pool must never collide with the other.
	inPool0 := map[phys.Frame]bool{}
	for _, f := range pools[0] {
		inPool0[f] = true
	}
	for _, f := range pools[1] {
		if inPool0[f] {
			t.Fatalf("frame %#x in both tenant pools", f.Addr())
		}
	}
	// Tenant 1's first row index sits directly between two of tenant
	// 0's in the same bank: rows r and r+2 belong to tenant 0, r+1 to
	// tenant 1 (row indices interleave across banks in pairs under the
	// open mapping, hence the per-bank row distance of 2 per index).
	l0 := geom.Map(pools[0][0].Addr())
	l1 := geom.Map(pools[1][0].Addr())
	if l0.Channel != l1.Channel || l0.Rank != l1.Rank || l0.Bank != l1.Bank {
		// Row indices span every bank, so bank 0's slice of consecutive
		// indices must land in the same bank.
		t.Fatalf("first pool frames not in the same bank: %+v vs %+v", l0, l1)
	}
	if rowOf(pools[1][0])-rowOf(pools[0][0]) == 0 {
		t.Fatal("tenant pools share a DRAM row")
	}
}

// TestCrossCoreLLCInclusivity is the satellite-4 coverage: filling the
// shared LLC from core 0 until core 1's line is evicted must drop that
// line from core 1's private L1/L2 as well (inclusive back-
// invalidation crosses cores), so core 1's next load goes to DRAM.
func TestCrossCoreLLCInclusivity(t *testing.T) {
	mm := MustNewMulti(MultiConfig{Config: SandyBridge(), Cores: 2})
	a, b := mm.Core(0), mm.Core(1)

	target := phys.Addr(64 << 10)
	b.Load(target)
	if inL1, inL2, inLLC := b.Caches().Contains(target); !inL1 || !inL2 || !inLLC {
		t.Fatalf("core 1's load did not fill all levels: L1=%v L2=%v LLC=%v", inL1, inL2, inLLC)
	}

	// Core 0 walks addresses that index the same LLC set as target;
	// twice the associativity guarantees the target's way is recycled
	// whatever the PTE-fetch traffic does to the set's LRU order.
	llc := mm.Config().LLC
	stride := phys.Addr(llc.Sets() * llc.LineBytes)
	for k := 1; k <= 2*llc.Ways; k++ {
		a.Load(target + phys.Addr(k)*stride)
	}

	if inL1, inL2, inLLC := b.Caches().Contains(target); inL1 || inL2 || inLLC {
		t.Fatalf("core 0's LLC fills left core 1 holding the line: L1=%v L2=%v LLC=%v", inL1, inL2, inLLC)
	}
	if res := b.Load(target); res.Source != mem.LevelDRAM {
		t.Fatalf("core 1's reload served from %v, want DRAM", res.Source)
	}
}

// TestLLCArbitrationCharging: crossing into the LLC behind the other
// core costs the arbitration surcharge, consecutive same-core accesses
// do not, and the surcharge lands on the crossing core's own clock.
func TestLLCArbitrationCharging(t *testing.T) {
	cfg := SandyBridge()
	mm := MustNewMulti(MultiConfig{Config: cfg, Cores: 2})
	a, b := mm.Core(0), mm.Core(1)

	target := phys.Addr(1 << 20)
	a.Load(target)       // fills the LLC with target's line
	b.Load(target + 64)  // warms core 1's TLB for the page (and the bank's open row)
	a.Load(target + 128) // core 0 reclaims the LLC slice

	// Core 1 now hits target's line in the LLC from behind core 0: the
	// arbitration surcharge is charged on top of the LLC hit, to core
	// 1's own clock.
	before := b.Clock().Now()
	res := b.Load(target)
	if res.Source != mem.LevelLLC {
		t.Fatalf("core 1's probe served from %v, want LLC", res.Source)
	}
	want := cfg.Lat.TLBL1Hit + cfg.Lat.LLCHit + cfg.Lat.LLCArbitration
	if got := b.Clock().Now() - before; got != want || res.Latency != want {
		t.Fatalf("cross-core LLC hit charged %d (Result %d), want %d", got, res.Latency, want)
	}

	// Core 1, a fresh line of the same (open) row: it owns the LLC
	// slice now, but core 0's reclaim load was the bank's last visitor,
	// so the DRAM-side arbitration fires instead.
	before = b.Clock().Now()
	res = b.Load(target + 320)
	if res.Source != mem.LevelDRAM {
		t.Fatalf("fresh line served from %v, want DRAM", res.Source)
	}
	want = cfg.Lat.TLBL1Hit + cfg.Lat.DRAMRowHit + cfg.Lat.DRAMBankArbitration
	if got := b.Clock().Now() - before; got != want || res.Latency != want {
		t.Fatalf("cross-core DRAM miss charged %d (Result %d), want %d", got, res.Latency, want)
	}

	// And once core 1 owns both the slice and the bank, a further fresh
	// line pays no arbitration at all: TLB hit + row hit, nothing else.
	before = b.Clock().Now()
	res = b.Load(target + 384)
	want = cfg.Lat.TLBL1Hit + cfg.Lat.DRAMRowHit
	if got := b.Clock().Now() - before; got != want || res.Latency != want {
		t.Fatalf("same-core DRAM miss charged %d (Result %d), want %d", got, res.Latency, want)
	}
}

// multiWorkload is the fixed scenario the determinism tests replay:
// each core strides through its own slice of memory, yielding every
// few loads, with enough traffic to rotate refresh windows and collide
// in the shared LLC sets.
func multiWorkload(mm *MultiMachine) {
	mm.Run(func(i int, m *Machine, yield func()) {
		base := phys.Addr(uint64(i) * (8 << 20))
		for n := 0; n < 400; n++ {
			m.Load(base + phys.Addr(uint64(n%64)*4096+uint64(n)*64))
			if n%8 == 7 {
				yield()
			}
		}
	})
}

type multiFingerprint struct {
	Log    []int
	Clocks []timing.Cycles
	Acts   uint64
}

func fingerprint(mm *MultiMachine) multiFingerprint {
	fp := multiFingerprint{}
	mm.Run(func(i int, m *Machine, yield func()) {
		base := phys.Addr(uint64(i) * (8 << 20))
		for n := 0; n < 400; n++ {
			m.Load(base + phys.Addr(uint64(n%64)*4096+uint64(n)*64))
			if n%8 == 7 {
				yield()
			}
		}
	})
	for i := 0; i < mm.NumCores(); i++ {
		fp.Clocks = append(fp.Clocks, mm.Core(i).Clock().Now())
	}
	fp.Acts = mm.Core(0).HammerStats().Activations
	return fp
}

// TestMultiMachineDeterministic is the tentpole acceptance test: the
// same multi-core workload on fresh machines produces bit-identical
// schedules and state for any GOMAXPROCS value.
func TestMultiMachineDeterministic(t *testing.T) {
	cfg := SandyBridge()
	cfg.DRAM.RefreshWindow = 50_000
	build := func() *MultiMachine {
		return MustNewMulti(MultiConfig{Config: cfg, Cores: 3, Tenants: []int{0, 1, 0}})
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	ref := fingerprint(build())
	if len(ref.Clocks) != 3 || ref.Clocks[0] == 0 {
		t.Fatalf("degenerate reference fingerprint: %+v", ref)
	}
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		got := fingerprint(build())
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("GOMAXPROCS=%d fingerprint diverged:\n got %+v\nwant %+v", p, got, ref)
		}
	}
}

// TestMultiRunPanicTeardown: a body that panics mid-run must surface
// its original value from mm.Run on the caller's goroutine — not crash
// the process from a core's goroutine — after the other cores unwind
// through their deferred cleanup; the machine stays usable afterwards.
func TestMultiRunPanicTeardown(t *testing.T) {
	mm := MustNewMulti(MultiConfig{Config: SandyBridge(), Cores: 3, Tenants: []int{0, 1, 0}})
	cleaned := make([]bool, 3)
	func() {
		defer func() {
			if r := recover(); r != "core 1 body blew up" {
				t.Fatalf("recovered %v, want the original panic value", r)
			}
		}()
		mm.Run(func(i int, m *Machine, yield func()) {
			defer func() { cleaned[i] = true }()
			for n := 0; ; n++ {
				m.Load(phys.Addr(uint64(i*8+n%4) * phys.FrameSize))
				if i == 1 && n == 5 {
					panic("core 1 body blew up")
				}
				yield()
			}
		})
		t.Fatal("Run returned instead of panicking")
	}()
	for i, c := range cleaned {
		if !c {
			t.Errorf("core %d deferred cleanup never ran", i)
		}
	}
	// The interleaver tore down cleanly: a fresh Run on the same machine
	// still schedules.
	log := mm.Run(func(i int, m *Machine, yield func()) {
		m.Load(phys.Addr(uint64(i) * phys.FrameSize))
	})
	if len(log) != 3 {
		t.Fatalf("post-panic Run grant log = %v, want one grant per core", log)
	}
}

// TestMultiFlipMislandInvariant is the other satellite-4 case: with a
// flip model and a flip-misland fault model active while two cores
// hammer concurrently — mislanded flips relocated onto rows the other
// core is probing — the flip engine's books still balance
// (Attempts − Misses == Flips) and every flip is attributed to a core.
func TestMultiFlipMislandInvariant(t *testing.T) {
	cfg := SandyBridge()
	cfg.DRAM.HammerThreshold = 16
	cfg.DRAM.RefreshWindow = 5000
	model := flip.MustNewModel(flip.Profile{
		Name: "eager", AttemptsPerWindow: 16, ExcessScale: 1, OneToZeroBias: 1,
	}, 99)
	cfg.FlipModel = model
	fm, err := fault.NewModel(fault.Config{Class: fault.FlipMisland, Seed: 7, MislandRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultModel = fm

	mm := MustNewMulti(MultiConfig{Config: cfg, Cores: 2, Tenants: []int{0, 1}})
	geom := mm.DRAM().Config()
	// Core 0 hammers rows 100/102 (victim 101); core 1 probes row 101's
	// frames while hammering its own pair two banks over — the row a
	// mislanded flip can be redirected onto is in core 1's working set.
	rows := [][2]phys.Addr{
		{geom.AddrOf(dram.Location{Row: 100}), geom.AddrOf(dram.Location{Row: 102})},
		{geom.AddrOf(dram.Location{Channel: 1, Row: 200}), geom.AddrOf(dram.Location{Channel: 1, Row: 202})},
	}
	victimStart, victimBytes := geom.RowRange(0, 0, 0, 101)
	for off := uint64(0); off < victimBytes; off += 8 {
		mm.Memory().Write64(victimStart+phys.Addr(off), ^uint64(0))
	}

	mm.Run(func(i int, m *Machine, yield func()) {
		above, below := rows[i][0], rows[i][1]
		for n := 0; n < 300; n++ {
			m.Flush(above)
			m.Flush(below)
			m.Load(above)
			m.Load(below)
			if i == 1 {
				m.Load(victimStart + phys.Addr(uint64(n%16)*64))
			}
			yield()
		}
	})

	if model.Windows() == 0 {
		t.Fatal("no refresh windows rotated under the multi-core hammer")
	}
	flips := model.Flips()
	if got, want := model.Attempts()-model.Misses(), uint64(len(flips)); got != want {
		t.Fatalf("Attempts−Misses = %d, want %d flips", got, want)
	}
	if len(flips) == 0 {
		t.Fatal("eager profile produced no flips")
	}
	if fm.Stats().FlipsRedirected == 0 {
		t.Fatal("misland fault never fired")
	}
	for _, f := range flips {
		if f.Core < 0 || f.Core >= mm.NumCores() {
			t.Fatalf("flip attributed to core %d outside [0, %d)", f.Core, mm.NumCores())
		}
	}
}

// TestAlignClocks: after construction-style skew (one core loads, the
// other loads more), AlignClocks brings every core to the former
// maximum and opens a fresh refresh window there, so the measured
// phase starts from zero activation pressure.
func TestAlignClocks(t *testing.T) {
	mm := MustNewMulti(MultiConfig{Config: SandyBridge(), Cores: 3, Tenants: []int{0, 1, 1}})
	mm.Core(0).Load(0)
	for k := 0; k < 8; k++ {
		mm.Core(1).Load(phys.Addr(k) << 21)
	}
	var latest timing.Cycles
	for i := 0; i < mm.NumCores(); i++ {
		latest = max(latest, mm.Core(i).Clock().Now())
	}
	if mm.Core(0).HammerStats().Activations == 0 || mm.Core(0).Clock().Now() == latest {
		t.Fatal("set-up produced no skew or no activations; the test proves nothing")
	}
	mm.AlignClocks()
	for i := 0; i < mm.NumCores(); i++ {
		if now := mm.Core(i).Clock().Now(); now != latest {
			t.Fatalf("core %d clock = %d after AlignClocks, want %d", i, now, latest)
		}
	}
	if s := mm.Core(0).HammerStats(); s.Activations != 0 || len(s.Victims) != 0 {
		t.Fatalf("pressure after AlignClocks: %+v, want zero", s)
	}
}

// TestTablesInRow: under interleaved striping a row holding one of
// tenant 1's table frames reports tenant 1's tables, and tenant 0's
// table row — one row index away — does not.
func TestTablesInRow(t *testing.T) {
	mm := MustNewMulti(MultiConfig{Config: SandyBridge(), Cores: 2, Tenants: []int{0, 1}})
	mm.Core(1).Load(0)
	geom := mm.DRAM().Config()
	own := geom.Map(mm.Tables(1).Frames()[0].Addr())
	other := geom.Map(mm.Tables(0).Frames()[0].Addr())
	if !own.SameBank(other) || own.Row == other.Row {
		t.Fatalf("first table frames not in one bank on different rows: %+v vs %+v", own, other)
	}
	if !mm.TablesInRow(1, own) {
		t.Fatalf("row %+v holds tenant 1's root table, TablesInRow says no", own)
	}
	if mm.TablesInRow(1, other) {
		t.Fatalf("tenant 0's table row %+v reported as holding tenant 1's tables", other)
	}
	if !mm.TablesInRow(0, other) {
		t.Fatalf("row %+v holds tenant 0's root table, TablesInRow says no", other)
	}
}
