package dram

import (
	"testing"

	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// TestRecycleResetClearsArbitration pins the difference between a
// window discard and a full recycle: ResetWindow deliberately keeps
// per-bank lastCore (the scheduler state survives a refresh), but
// Reset must return it to the fresh-device -1, so the first access of
// the next cohort pays no stale cross-core bank-arbitration charge.
func TestRecycleResetClearsArbitration(t *testing.T) {
	lat := timing.DefaultLatencies()
	p0, _, _ := newTestDRAM(t, testConfig())
	p1, err := p0.DRAM().NewPort(1, &timing.Clock{}, &perf.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	addr := testConfig().AddrOf(Location{Row: 2})

	// Reference: on a fresh device the very first access is a plain
	// closed-row activation, no arbitration.
	if got := p0.Lookup(addr).Latency; got != lat.DRAMRowClosed {
		t.Fatalf("fresh first access latency = %d, want %d", got, lat.DRAMRowClosed)
	}
	// Hand the bank to core 1 so lastCore is non-zero state to leak.
	if got := p1.Lookup(addr).Latency; got != lat.DRAMRowHit+lat.DRAMBankArbitration {
		t.Fatalf("cross-core hit latency = %d, want %d", got, lat.DRAMRowHit+lat.DRAMBankArbitration)
	}

	// After a window discard the arbitration state survives: core 0
	// re-entering the bank still pays for displacing core 1.
	p0.ResetWindow()
	if got := p0.Lookup(addr).Latency; got != lat.DRAMRowClosed+lat.DRAMBankArbitration {
		t.Fatalf("post-ResetWindow cross-core latency = %d, want %d", got, lat.DRAMRowClosed+lat.DRAMBankArbitration)
	}

	// After a recycle it must not: the first access matches the fresh
	// device's, whichever core issues it.
	p1.Lookup(addr)
	p0.Reset()
	if got := p0.Lookup(addr).Latency; got != lat.DRAMRowClosed {
		t.Errorf("post-Reset first access latency = %d, want fresh-device %d", got, lat.DRAMRowClosed)
	}
}

// TestRecycleResetIsEpochLazy pins the O(banks + touched) cost model's
// correctness half: Reset zeroes the touched rows' ACT counts, not the
// whole row array, and those counts must read as zero and restart from
// one on the next activation. (The name predates the single count
// array, when Reset bumped a window epoch instead.)
func TestRecycleResetIsEpochLazy(t *testing.T) {
	p, _, _ := newTestDRAM(t, testConfig())
	cfg := testConfig()
	a := cfg.AddrOf(Location{Row: 4})
	b := cfg.AddrOf(Location{Row: 6})
	for i := 0; i < 5; i++ {
		p.Lookup(a)
		p.Lookup(b)
	}
	if got := p.Activations(Location{Row: 4}); got != 5 {
		t.Fatalf("pre-recycle activations = %d, want 5", got)
	}

	p.Reset()
	if got := p.Activations(Location{Row: 4}); got != 0 {
		t.Errorf("stale activations visible after recycle: %d", got)
	}
	if st := p.HammerStats(); st.Activations != 0 || len(st.Victims) != 0 {
		t.Errorf("stats leaked across recycle: %+v", st)
	}
	p.Lookup(a)
	if got := p.Activations(Location{Row: 4}); got != 1 {
		t.Errorf("post-recycle activation count = %d, want 1", got)
	}
}

// TestRecycleResetNoAlloc pins the alloc half of the satellite: a
// recycle on a large-geometry module with a realistic touched set must
// not allocate — cohort turnover calls this once per slice.
func TestRecycleResetNoAlloc(t *testing.T) {
	cfg := Config{
		Channels: 1, RanksPerChannel: 1, BanksPerRank: 8,
		Rows: 1 << 16, RowBytes: 8192,
		HammerThreshold: 100,
	}
	p, _, _ := newTestDRAM(t, cfg)
	touch := func() {
		for r := uint64(0); r < 64; r++ {
			p.Lookup(cfg.AddrOf(Location{Row: r * 11}))
		}
	}
	touch() // warm the touched-slice capacity once
	if avg := testing.AllocsPerRun(100, func() {
		touch()
		p.Reset()
	}); avg != 0 {
		t.Errorf("recycle reset allocates: %v allocs/op", avg)
	}
}

// BenchmarkRecycleReset is the regression pin behind the
// dram-recycle-reset bench scenario: on a 2^16-row module with ~64
// touched rows, a recycle must stay O(banks + touched), zeroing only
// the touched rows' counts. An implementation that scrubs the whole
// per-row count array would be three orders of magnitude slower here
// and trip the bench gate.
func BenchmarkRecycleReset(b *testing.B) {
	cfg := Config{
		Channels: 1, RanksPerChannel: 1, BanksPerRank: 8,
		Rows: 1 << 16, RowBytes: 8192,
		HammerThreshold: 100,
	}
	p, _, _ := newTestDRAM(b, cfg)
	addrs := make([]phys.Addr, 64)
	for r := range addrs {
		addrs[r] = cfg.AddrOf(Location{Row: uint64(r) * 11})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range addrs {
			p.Lookup(a)
		}
		p.Reset()
	}
}
