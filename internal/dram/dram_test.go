package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"pthammer/internal/mem"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// testConfig is a small geometry: 2 channels × 1 rank × 2 banks,
// 16 rows of 8 KiB, no refresh window, threshold 10.
func testConfig() Config {
	return Config{
		Channels:        2,
		RanksPerChannel: 1,
		BanksPerRank:    2,
		Rows:            16,
		RowBytes:        8192,
		HammerThreshold: 10,
	}
}

func newTestDRAM(t *testing.T, cfg Config) (*DRAM, *timing.Clock, *perf.Counters) {
	t.Helper()
	clock := timing.MustNewClock(1_000_000_000)
	counters := &perf.Counters{}
	d, err := New(cfg, clock, counters, timing.DefaultLatencies())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, clock, counters
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.RanksPerChannel = -1 },
		func(c *Config) { c.BanksPerRank = 0 },
		func(c *Config) { c.Rows = 0 },
		func(c *Config) { c.RowBytes = 0 },
		func(c *Config) { c.RowBytes = phys.FrameSize + 1 },
		func(c *Config) { c.HammerThreshold = 0 },
	}
	for i, mutate := range bad {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestMapAddrOfRoundTrip(t *testing.T) {
	cfg := testConfig()
	if got := cfg.Capacity(); got != 4*16*8192 {
		t.Fatalf("Capacity = %d", got)
	}
	// Every (bank, row, col) sample round-trips through AddrOf → Map.
	for ch := 0; ch < cfg.Channels; ch++ {
		for bank := 0; bank < cfg.BanksPerRank; bank++ {
			for _, row := range []uint64{0, 7, 15} {
				loc := Location{Channel: ch, Bank: bank, Row: row, Col: 513}
				got := cfg.Map(cfg.AddrOf(loc))
				if got != loc {
					t.Fatalf("round trip %+v -> %+v", loc, got)
				}
			}
		}
	}
	// Consecutive row-sized blocks land in different banks (channel
	// interleaving first).
	a, b := cfg.Map(0), cfg.Map(phys.Addr(cfg.RowBytes))
	if a.Channel == b.Channel && a.Rank == b.Rank && a.Bank == b.Bank {
		t.Fatal("adjacent blocks mapped to the same bank")
	}
}

func TestMapPanicsBeyondCapacity(t *testing.T) {
	cfg := testConfig()
	defer func() {
		if recover() == nil {
			t.Fatal("Map beyond capacity did not panic")
		}
	}()
	cfg.Map(phys.Addr(cfg.Capacity()))
}

func TestRowBufferOutcomes(t *testing.T) {
	d, clock, counters := newTestDRAM(t, testConfig())
	lat := timing.DefaultLatencies()
	cfg := d.Config()

	row0 := cfg.AddrOf(Location{Row: 0})
	row1 := cfg.AddrOf(Location{Row: 1}) // same bank, different row

	// Cold bank: closed-row activation.
	res := d.Lookup(mem.Access{Addr: row0, Kind: mem.KindLoad})
	if res.Latency != lat.DRAMRowClosed || res.Hit || res.Source != mem.LevelDRAM {
		t.Fatalf("cold access = %+v", res)
	}
	if counters.Read(perf.DRAMActivate) != 1 {
		t.Fatalf("activations = %d, want 1", counters.Read(perf.DRAMActivate))
	}

	// Same row again: row-buffer hit, no new activation.
	res = d.Lookup(mem.Access{Addr: row0 + 64, Kind: mem.KindLoad})
	if res.Latency != lat.DRAMRowHit || !res.Hit {
		t.Fatalf("row hit access = %+v", res)
	}
	if counters.Read(perf.DRAMActivate) != 1 {
		t.Fatal("row hit incremented activations")
	}

	// Different row in the same bank: conflict.
	res = d.Lookup(mem.Access{Addr: row1, Kind: mem.KindLoad})
	if res.Latency != lat.DRAMRowConflict || res.Hit {
		t.Fatalf("conflict access = %+v", res)
	}
	if counters.Read(perf.DRAMRowConflicts) != 1 || counters.Read(perf.DRAMActivate) != 2 {
		t.Fatalf("conflict counters: conflicts %d activates %d",
			counters.Read(perf.DRAMRowConflicts), counters.Read(perf.DRAMActivate))
	}

	wantClock := lat.DRAMRowClosed + lat.DRAMRowHit + lat.DRAMRowConflict
	if clock.Now() != wantClock {
		t.Fatalf("clock = %d, want %d", clock.Now(), wantClock)
	}
}

func TestHammerStatsDoubleSided(t *testing.T) {
	cfg := testConfig() // threshold 10
	d, _, _ := newTestDRAM(t, cfg)

	// Double-sided pair around victim row 6 in bank (0,0,0).
	above := cfg.AddrOf(Location{Row: 5})
	below := cfg.AddrOf(Location{Row: 7})

	// 4 alternations = 8 activations total: below threshold.
	for i := 0; i < 4; i++ {
		d.Lookup(mem.Access{Addr: above})
		d.Lookup(mem.Access{Addr: below})
	}
	if s := d.HammerStats(); len(s.Victims) != 0 {
		t.Fatalf("victims before threshold: %+v", s.Victims)
	}

	// One more alternation crosses the threshold for row 6
	// (5 activations each side = 10 combined).
	d.Lookup(mem.Access{Addr: above})
	d.Lookup(mem.Access{Addr: below})
	s := d.HammerStats()
	if s.Activations != 10 {
		t.Fatalf("total activations = %d, want 10", s.Activations)
	}
	if len(s.Victims) != 1 {
		t.Fatalf("victims = %+v, want exactly row 6", s.Victims)
	}
	v := s.Victims[0]
	if v.Row != 6 || v.Pressure != 10 || v.Channel != 0 || v.Rank != 0 || v.Bank != 0 {
		t.Fatalf("victim = %+v", v)
	}

	// Per-row accounting is visible too.
	if got := d.Activations(Location{Row: 5}); got != 5 {
		t.Fatalf("row 5 activations = %d, want 5", got)
	}
}

func TestHammerStatsSingleSidedAndOrdering(t *testing.T) {
	cfg := testConfig()
	cfg.HammerThreshold = 3
	d, _, _ := newTestDRAM(t, cfg)
	other := cfg.AddrOf(Location{Row: 9}) // forces conflicts to re-activate row 2
	aggr := cfg.AddrOf(Location{Row: 2})
	for i := 0; i < 4; i++ {
		d.Lookup(mem.Access{Addr: aggr})
		d.Lookup(mem.Access{Addr: other})
	}
	s := d.HammerStats()
	// Row 2 hammered 4×, row 9 hammered 4×: victims 1,3 (pressure 4)
	// and 8,10 (pressure 4). All ties broken by row number.
	if len(s.Victims) != 4 {
		t.Fatalf("victims = %+v", s.Victims)
	}
	rows := []uint64{s.Victims[0].Row, s.Victims[1].Row, s.Victims[2].Row, s.Victims[3].Row}
	want := []uint64{1, 3, 8, 10}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("victim rows = %v, want %v", rows, want)
		}
	}
}

func TestHammerStatsTiedVictimsDeterministicOrder(t *testing.T) {
	cfg := testConfig()
	cfg.HammerThreshold = 4
	d, _, _ := newTestDRAM(t, cfg)

	// Identical double-sided pattern in two different channels: two
	// victims with equal pressure and row must come back in a fixed
	// location order every time.
	for i := 0; i < 2; i++ {
		for _, ch := range []int{1, 0} {
			d.Lookup(mem.Access{Addr: cfg.AddrOf(Location{Channel: ch, Row: 5})})
			d.Lookup(mem.Access{Addr: cfg.AddrOf(Location{Channel: ch, Row: 7})})
		}
	}
	s := d.HammerStats()
	if len(s.Victims) != 2 {
		t.Fatalf("victims = %+v, want 2", s.Victims)
	}
	for i, v := range s.Victims {
		if v.Row != 6 || v.Pressure != 4 || v.Channel != i {
			t.Fatalf("victim %d = %+v, want row 6 pressure 4 channel %d", i, v, i)
		}
	}
}

func TestRefreshWindowResets(t *testing.T) {
	cfg := testConfig()
	cfg.RefreshWindow = 10_000
	d, clock, _ := newTestDRAM(t, cfg)

	aggr1 := cfg.AddrOf(Location{Row: 5})
	aggr2 := cfg.AddrOf(Location{Row: 7})
	for i := 0; i < 6; i++ {
		d.Lookup(mem.Access{Addr: aggr1})
		d.Lookup(mem.Access{Addr: aggr2})
	}
	if s := d.HammerStats(); len(s.Victims) == 0 {
		t.Fatal("expected victims before refresh")
	}

	// Crossing the refresh boundary precharges banks and clears counts.
	clock.Advance(20_000)
	s := d.HammerStats()
	if len(s.Victims) != 0 || s.Activations != 0 {
		t.Fatalf("stats after refresh = %+v", s)
	}
	if s.WindowStart == 0 {
		t.Fatal("window start did not advance")
	}

	// Banks were precharged: next access is a closed-row activation,
	// not a row hit or conflict.
	res := d.Lookup(mem.Access{Addr: aggr1})
	if res.Latency != timing.DefaultLatencies().DRAMRowClosed {
		t.Fatalf("post-refresh access latency = %d", res.Latency)
	}
}

// refMap is an independent naive div/mod reference for the address
// decode, kept deliberately dumb so the property tests below check the
// optimized decoder (shift/mask or generic) against first principles.
func refMap(c Config, a phys.Addr) Location {
	block := uint64(a) / c.RowBytes
	nb := uint64(c.TotalBanks())
	gb := int(block % nb)
	loc := Location{
		Channel: gb % c.Channels,
		Rank:    gb / c.Channels % c.RanksPerChannel,
		Bank:    gb / c.Channels / c.RanksPerChannel,
		Row:     block / nb,
		Col:     uint64(a) % c.RowBytes,
	}
	return loc
}

// TestDecodeMatchesGenericAcrossGeometries is the shift/mask property
// test: over random geometries (power-of-two and not) and random
// in-range addresses, the decoder agrees with the naive reference.
func TestDecodeMatchesGenericAcrossGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	geoms := []Config{
		testConfig(), // pow2: 4 banks × 8 KiB rows
		{Channels: 2, RanksPerChannel: 1, BanksPerRank: 8, Rows: 8192, RowBytes: 8192, HammerThreshold: 1}, // SandyBridge shape
		{Channels: 3, RanksPerChannel: 1, BanksPerRank: 2, Rows: 64, RowBytes: 8192, HammerThreshold: 1},   // 6 banks: generic path
		{Channels: 1, RanksPerChannel: 3, BanksPerRank: 4, Rows: 32, RowBytes: 12288, HammerThreshold: 1},  // non-pow2 row bytes
		{Channels: 1, RanksPerChannel: 1, BanksPerRank: 1, Rows: 16, RowBytes: 4096, HammerThreshold: 1},   // degenerate single bank
	}
	for gi, cfg := range geoms {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("geometry %d invalid: %v", gi, err)
		}
		dec := cfg.newDecoder()
		wantPow2 := cfg.RowBytes&(cfg.RowBytes-1) == 0 && uint64(cfg.TotalBanks())&(uint64(cfg.TotalBanks())-1) == 0
		if dec.pow2 != wantPow2 {
			t.Fatalf("geometry %d: pow2 = %v, want %v", gi, dec.pow2, wantPow2)
		}
		for i := 0; i < 2000; i++ {
			a := phys.Addr(rng.Uint64() % cfg.Capacity())
			want := refMap(cfg, a)
			if got := cfg.Map(a); got != want {
				t.Fatalf("geometry %d: Map(%#x) = %+v, want %+v", gi, uint64(a), got, want)
			}
			gb, row, col := dec.decode(a)
			if gb != cfg.globalBank(want) || row != want.Row || col != want.Col {
				t.Fatalf("geometry %d: decode(%#x) = (%d, %d, %d), want (%d, %d, %d)",
					gi, uint64(a), gb, row, col, cfg.globalBank(want), want.Row, want.Col)
			}
			if back := cfg.AddrOf(want); back != a {
				t.Fatalf("geometry %d: AddrOf(Map(%#x)) = %#x", gi, uint64(a), uint64(back))
			}
		}
	}
}

// TestHammerStatsVictimsDoNotAliasScratch pins the ownership contract:
// Stats.Victims is a caller-owned copy, so a later HammerStats call
// (with different DRAM state) must not mutate an earlier result.
func TestHammerStatsVictimsDoNotAliasScratch(t *testing.T) {
	cfg := testConfig()
	cfg.HammerThreshold = 2
	d, _, _ := newTestDRAM(t, cfg)

	hammer := func(row uint64, times int) {
		aggr := cfg.AddrOf(Location{Row: row})
		other := cfg.AddrOf(Location{Row: row + 2})
		for i := 0; i < times; i++ {
			d.Lookup(mem.Access{Addr: aggr})
			d.Lookup(mem.Access{Addr: other})
		}
	}
	hammer(5, 3)
	first := d.HammerStats()
	if len(first.Victims) == 0 {
		t.Fatal("no victims after hammering")
	}
	snapshot := append([]Victim(nil), first.Victims...)

	// More hammering at other rows changes the victim set; the first
	// result must be unaffected.
	hammer(12, 5)
	second := d.HammerStats()
	if len(second.Victims) <= len(first.Victims) {
		t.Fatalf("second call found %d victims, want more than %d", len(second.Victims), len(first.Victims))
	}
	for i := range snapshot {
		if first.Victims[i] != snapshot[i] {
			t.Fatalf("victim %d mutated by later HammerStats: %+v != %+v", i, first.Victims[i], snapshot[i])
		}
	}
}

// TestActivationsLazyResetAcrossWindows exercises the epoch tagging:
// counts written in an old window must read as zero after rotation
// without any explicit clearing.
func TestActivationsLazyResetAcrossWindows(t *testing.T) {
	cfg := testConfig()
	cfg.RefreshWindow = 100_000
	d, clock, _ := newTestDRAM(t, cfg)

	aggr := cfg.AddrOf(Location{Row: 3})
	conflict := cfg.AddrOf(Location{Row: 8})
	for i := 0; i < 3; i++ {
		d.Lookup(mem.Access{Addr: aggr})
		d.Lookup(mem.Access{Addr: conflict})
	}
	if got := d.Activations(Location{Row: 3}); got != 3 {
		t.Fatalf("activations = %d, want 3", got)
	}
	clock.Advance(200_000)
	if got := d.Activations(Location{Row: 3}); got != 0 {
		t.Fatalf("activations after rotation = %d, want 0", got)
	}
	// Re-activating in the new window starts counting from scratch.
	d.Lookup(mem.Access{Addr: aggr})
	if got := d.Activations(Location{Row: 3}); got != 1 {
		t.Fatalf("activations in new window = %d, want 1", got)
	}
}

// BenchmarkLookupRowConflict measures the worst-case per-access DRAM
// path: alternating rows in one bank, so every access is a conflict
// plus an activation.
func BenchmarkLookupRowConflict(b *testing.B) {
	cfg := Config{
		Channels: 2, RanksPerChannel: 1, BanksPerRank: 8,
		Rows: 8192, RowBytes: 8192,
		RefreshWindow:   timing.Cycles(217_600_000),
		HammerThreshold: 139_000,
	}
	clock := timing.MustNewClock(3_400_000_000)
	d, err := New(cfg, clock, &perf.Counters{}, timing.DefaultLatencies())
	if err != nil {
		b.Fatal(err)
	}
	a1 := cfg.AddrOf(Location{Row: 1})
	a2 := cfg.AddrOf(Location{Row: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(mem.Access{Addr: a1})
		d.Lookup(mem.Access{Addr: a2})
	}
}

// BenchmarkHammerStats measures the stats pass over a window with many
// touched rows spread across banks.
func BenchmarkHammerStats(b *testing.B) {
	cfg := Config{
		Channels: 2, RanksPerChannel: 1, BanksPerRank: 8,
		Rows: 8192, RowBytes: 8192,
		HammerThreshold: 4,
	}
	clock := timing.MustNewClock(3_400_000_000)
	d, err := New(cfg, clock, &perf.Counters{}, timing.DefaultLatencies())
	if err != nil {
		b.Fatal(err)
	}
	// Alternate each aggressor with a far row in the same bank so every
	// access is a conflict that re-activates, spreading 4 ACTs over each
	// of 256 aggressor rows.
	for row := uint64(0); row < 512; row += 2 {
		far := cfg.AddrOf(Location{Row: row + 4096})
		aggr := cfg.AddrOf(Location{Row: row})
		for i := 0; i < 4; i++ {
			d.Lookup(mem.Access{Addr: aggr})
			d.Lookup(mem.Access{Addr: far})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := d.HammerStats()
		if len(s.Victims) == 0 {
			b.Fatal("no victims")
		}
	}
}

// TestRowRangeCoversExactlyOneRow: every address inside the reported
// range decodes to the victim's (channel, rank, bank, row), and the
// addresses one byte either side do not.
func TestRowRangeCoversExactlyOneRow(t *testing.T) {
	for _, cfg := range []Config{
		testConfig(),
		{Channels: 3, RanksPerChannel: 1, BanksPerRank: 2, Rows: 64, RowBytes: 8192, HammerThreshold: 1},
	} {
		loc := Location{Channel: cfg.Channels - 1, Rank: 0, Bank: 1, Row: 3}
		start, bytes := cfg.RowRange(loc.Channel, loc.Rank, loc.Bank, loc.Row)
		if bytes != cfg.RowBytes {
			t.Fatalf("row span = %d bytes, want %d", bytes, cfg.RowBytes)
		}
		for _, off := range []uint64{0, 1, bytes / 2, bytes - 1} {
			got := cfg.Map(start + phys.Addr(off))
			if got.Channel != loc.Channel || got.Rank != loc.Rank || got.Bank != loc.Bank || got.Row != loc.Row {
				t.Fatalf("offset %d decodes to %+v, want row %+v", off, got, loc)
			}
			if got.Col != off {
				t.Fatalf("offset %d decodes to column %d", off, got.Col)
			}
		}
		if start > 0 {
			if got := cfg.Map(start - 1); got == (Location{Channel: loc.Channel, Rank: loc.Rank, Bank: loc.Bank, Row: loc.Row, Col: got.Col}) {
				t.Fatalf("byte before range still in row: %+v", got)
			}
		}
		after := cfg.Map(start + phys.Addr(bytes))
		if after.Channel == loc.Channel && after.Rank == loc.Rank && after.Bank == loc.Bank && after.Row == loc.Row {
			t.Fatalf("byte past range still in row: %+v", after)
		}
	}
}

// TestWindowHookReceivesEndedWindow: a natural rotation hands the hook
// the ended window's stats (victims included), the device has already
// started the fresh window when the hook runs, and idle windows do not
// fire.
func TestWindowHookReceivesEndedWindow(t *testing.T) {
	cfg := testConfig()
	cfg.RefreshWindow = 10_000
	d, clock, _ := newTestDRAM(t, cfg)

	var reports []Stats
	d.SetWindowHook(func(s Stats) {
		// The hook may read the device: it must observe the fresh,
		// already-rotated window, not the one being reported.
		if live := d.HammerStats(); live.Activations != 0 {
			t.Errorf("hook saw %d live activations, want 0 (fresh window)", live.Activations)
		}
		reports = append(reports, s)
	})

	aggr1 := cfg.AddrOf(Location{Row: 5})
	aggr2 := cfg.AddrOf(Location{Row: 7})
	for i := 0; i < 6; i++ {
		d.Lookup(mem.Access{Addr: aggr1})
		d.Lookup(mem.Access{Addr: aggr2})
	}
	clock.Advance(20_000)
	d.Lookup(mem.Access{Addr: aggr1}) // triggers the lazy rotation
	if len(reports) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(reports))
	}
	got := reports[0]
	if got.Activations != 12 {
		t.Fatalf("ended window reported %d activations, want 12", got.Activations)
	}
	found := false
	for _, v := range got.Victims {
		if v.Row == 6 && v.Pressure == 12 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ended window victims = %+v, want row 6 at pressure 12", got.Victims)
	}

	// An idle crossing (only the post-rotation probe access in the
	// window) reports once more for that access; a crossing with no
	// activity at all stays silent.
	clock.Advance(20_000)
	d.Lookup(mem.Access{Addr: aggr1})
	if len(reports) != 2 {
		t.Fatalf("hook fired %d times after second crossing, want 2", len(reports))
	}
	clock.Advance(20_000)
	if s := d.HammerStats(); s.Activations != 0 {
		t.Fatalf("live activations = %d, want 0", s.Activations)
	}
	if len(reports) != 3 {
		// The single Lookup above was the third window's only activity.
		t.Fatalf("hook fired %d times, want 3", len(reports))
	}
	clock.Advance(20_000)
	d.HammerStats() // rotation with a completely idle window: no report
	if len(reports) != 3 {
		t.Fatalf("idle window fired the hook (%d reports)", len(reports))
	}
}

// TestResetWindowDiscardsWithoutFiring: ResetWindow zeroes the
// bookkeeping, precharges the banks, and never invokes the hook — the
// discard path construction traffic takes.
func TestResetWindowDiscardsWithoutFiring(t *testing.T) {
	cfg := testConfig()
	cfg.RefreshWindow = 1 << 40 // far away: only ResetWindow rotates
	d, _, _ := newTestDRAM(t, cfg)
	fired := 0
	d.SetWindowHook(func(Stats) { fired++ })

	aggr1 := cfg.AddrOf(Location{Row: 5})
	aggr2 := cfg.AddrOf(Location{Row: 7})
	for i := 0; i < 6; i++ {
		d.Lookup(mem.Access{Addr: aggr1})
		d.Lookup(mem.Access{Addr: aggr2})
	}
	if s := d.HammerStats(); len(s.Victims) == 0 {
		t.Fatal("expected victims before reset")
	}
	d.ResetWindow()
	if fired != 0 {
		t.Fatalf("ResetWindow fired the hook %d times", fired)
	}
	s := d.HammerStats()
	if s.Activations != 0 || len(s.Victims) != 0 {
		t.Fatalf("stats after reset = %+v, want empty", s)
	}
	if got := d.Activations(Location{Row: 5}); got != 0 {
		t.Fatalf("row 5 activations after reset = %d, want 0", got)
	}
	// Banks precharged: the next access is a closed-row activation.
	res := d.Lookup(mem.Access{Addr: aggr1})
	if res.Latency != timing.DefaultLatencies().DRAMRowClosed {
		t.Fatalf("post-reset access latency = %d, want closed-row", res.Latency)
	}
}

// TestResetWindowWorksWithWindowingDisabled: RefreshWindow 0 means no
// natural rotation ever happens, but an explicit reset still discards.
func TestResetWindowWorksWithWindowingDisabled(t *testing.T) {
	cfg := testConfig() // RefreshWindow 0
	d, _, _ := newTestDRAM(t, cfg)
	a := cfg.AddrOf(Location{Row: 2})
	for i := 0; i < 4; i++ {
		d.Lookup(mem.Access{Addr: a})
		d.Lookup(mem.Access{Addr: cfg.AddrOf(Location{Row: 4})})
	}
	if d.Activations(Location{Row: 2}) == 0 {
		t.Fatal("no activations recorded")
	}
	d.ResetWindow()
	if got := d.Activations(Location{Row: 2}); got != 0 {
		t.Fatalf("activations after reset = %d, want 0", got)
	}
}

// TestPortAccessors pins the multi-core port plumbing: each port knows
// its device and core index, and NewPort rejects nil wiring and
// negative cores.
func TestPortAccessors(t *testing.T) {
	d, clock, counters := newTestDRAM(t, testConfig())
	p, err := d.NewPort(2, clock, counters)
	if err != nil {
		t.Fatal(err)
	}
	if p.DRAM() != d || p.Core() != 2 {
		t.Fatalf("port accessors: DRAM match %v, core %d", p.DRAM() == d, p.Core())
	}
	if _, err := d.NewPort(-1, clock, counters); err == nil {
		t.Fatal("NewPort accepted a negative core index")
	}
	if _, err := d.NewPort(0, nil, counters); err == nil {
		t.Fatal("NewPort accepted a nil clock")
	}
}

// TestSameBank: two locations share a bank only when channel, rank and
// bank index all match; row and column never matter.
func TestSameBank(t *testing.T) {
	base := Location{Channel: 1, Rank: 1, Bank: 2, Row: 5, Col: 64}
	cases := []struct {
		name string
		o    Location
		want bool
	}{
		{"identical", base, true},
		{"other row and column", Location{Channel: 1, Rank: 1, Bank: 2, Row: 9, Col: 0}, true},
		{"other channel", Location{Channel: 0, Rank: 1, Bank: 2, Row: 5, Col: 64}, false},
		{"other rank", Location{Channel: 1, Rank: 0, Bank: 2, Row: 5, Col: 64}, false},
		{"other bank", Location{Channel: 1, Rank: 1, Bank: 3, Row: 5, Col: 64}, false},
	}
	for _, tc := range cases {
		if got := base.SameBank(tc.o); got != tc.want {
			t.Errorf("%s: SameBank = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.o.SameBank(base); got != tc.want {
			t.Errorf("%s: SameBank not symmetric", tc.name)
		}
	}
}

// TestPairs pins the shared pair enumeration every aggressor finder
// builds on: same-bank pairs only, never two locations on one row,
// lower row first, in scan order (i < j, i-major), and a break stops
// the scan.
func TestPairs(t *testing.T) {
	bank := func(b int, row uint64) Location { return Location{Bank: b, Row: row} }
	type pair struct{ lo, hi int }
	cases := []struct {
		name string
		locs []Location
		want []pair
	}{
		{"empty", nil, nil},
		{"single", []Location{bank(0, 1)}, nil},
		{"lower row first", []Location{bank(0, 7), bank(0, 5)}, []pair{{1, 0}}},
		{"same row skipped", []Location{bank(0, 3), {Bank: 0, Row: 3, Col: 64}}, nil},
		{"cross-bank skipped", []Location{bank(0, 3), bank(1, 5)}, nil},
		{"cross-channel skipped", []Location{{Channel: 0, Row: 3}, {Channel: 1, Row: 5}}, nil},
		{"cross-rank skipped", []Location{{Rank: 0, Row: 3}, {Rank: 1, Row: 5}}, nil},
		{
			"scan order",
			[]Location{bank(0, 4), bank(1, 2), bank(0, 2), bank(1, 4), bank(0, 6), bank(0, 4)},
			[]pair{{2, 0}, {0, 4}, {1, 3}, {2, 4}, {2, 5}, {5, 4}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []pair
			for lo, hi := range Pairs(tc.locs) {
				got = append(got, pair{lo, hi})
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Pairs = %v, want %v", got, tc.want)
			}
		})
	}

	// A break ends the enumeration: the yield contract of a range
	// iterator, which first-match finders rely on.
	locs := []Location{bank(0, 1), bank(0, 3), bank(0, 5)}
	n := 0
	for range Pairs(locs) {
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("loop body ran %d times after a break at 2", n)
	}
}
