package tlb

import (
	"testing"

	"pthammer/internal/mem"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// fakeWalker is a fixed-cost stand-in for the page walker. It
// "translates" a page to a frame derived from its vpn so tests can
// check the TLB caches and returns the walker's frame, not something
// it made up.
type fakeWalker struct {
	clock *timing.Clock
	cost  timing.Cycles
	walks int
}

// frameFor is the fake translation: an offset identity map, so frame
// != vpn and value plumbing bugs show up.
func frameFor(vpn uint64) phys.Frame { return phys.Frame(vpn + 1000) }

func (w *fakeWalker) Translate(a phys.Addr) (phys.Frame, mem.Result) {
	w.walks++
	w.clock.Advance(w.cost)
	vpn := uint64(a) >> phys.FrameShift
	return frameFor(vpn), mem.Result{Latency: w.cost, Hit: false, Source: mem.LevelPageWalk}
}

// tinyConfig: dTLB 4 entries 2-way (2 sets), sTLB 16 entries 2-way
// (8 sets).
func tinyConfig() Config {
	return Config{L1Entries: 4, L1Ways: 2, L2Entries: 16, L2Ways: 2}
}

func newTestTLB(t *testing.T) (*TLB, *fakeWalker, *timing.Clock, *perf.Counters) {
	t.Helper()
	clock := &timing.Clock{}
	counters := &perf.Counters{}
	w := &fakeWalker{clock: clock, cost: 50}
	tl, err := New(tinyConfig(), w, clock, counters, timing.DefaultLatencies())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tl, w, clock, counters
}

func pageAddr(vpn uint64) phys.Addr { return phys.Addr(vpn << phys.FrameShift) }

func TestConfigValidate(t *testing.T) {
	if err := tinyConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{L1Entries: 0, L1Ways: 2, L2Entries: 16, L2Ways: 2},
		{L1Entries: 4, L1Ways: 0, L2Entries: 16, L2Ways: 2},
		{L1Entries: 4, L1Ways: 3, L2Entries: 16, L2Ways: 2},  // not divisible
		{L1Entries: 12, L1Ways: 2, L2Entries: 16, L2Ways: 2}, // 6 sets
		{L1Entries: 16, L1Ways: 2, L2Entries: 16, L2Ways: 2}, // sTLB not larger
		{L1Entries: 4, L1Ways: 2, L2Entries: 64, L2Ways: 32}, // past mem.MaxWays
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

// TestNewRejectsBadInputs covers New's validation branches: a bad shape,
// a bad latency table or a nil dependency is an error, never a panic.
func TestNewRejectsBadInputs(t *testing.T) {
	clock := &timing.Clock{}
	counters := &perf.Counters{}
	w := &fakeWalker{clock: clock, cost: 50}
	lat := timing.DefaultLatencies()
	badCfg := Config{L1Entries: 4, L1Ways: 2, L2Entries: 32, L2Ways: 32} // one set, past mem.MaxWays
	badLat := lat
	badLat.TLBL1Hit = 0
	if _, err := New(badCfg, w, clock, counters, lat); err == nil {
		t.Error("shape past mem.MaxWays accepted")
	}
	if _, err := New(tinyConfig(), w, clock, counters, badLat); err == nil {
		t.Error("invalid latency table accepted")
	}
	if _, err := New(tinyConfig(), nil, clock, counters, lat); err == nil {
		t.Error("nil walker accepted")
	}
}

func TestMissWalkThenHits(t *testing.T) {
	tl, w, clock, counters := newTestTLB(t)
	lat := timing.DefaultLatencies()
	a := pageAddr(5)

	// Cold: full miss, walk, install.
	frame, res := tl.Translate(a)
	if res.Hit || res.Source != mem.LevelPageWalk || res.Latency != 50 {
		t.Fatalf("cold translate = %+v", res)
	}
	if frame != frameFor(5) {
		t.Fatalf("cold frame = %d, want %d", frame, frameFor(5))
	}
	if w.walks != 1 || counters.Read(perf.DTLBLoadMissesWalk) != 1 {
		t.Fatal("walk not counted")
	}

	// Warm: dTLB hit, same page different offset, same frame.
	frame, res = tl.Translate(a + 123)
	if !res.Hit || res.Source != mem.LevelTLB1 || res.Latency != lat.TLBL1Hit {
		t.Fatalf("warm translate = %+v", res)
	}
	if frame != frameFor(5) {
		t.Fatalf("warm frame = %d, want %d", frame, frameFor(5))
	}
	if w.walks != 1 {
		t.Fatal("dTLB hit walked")
	}

	wantClock := timing.Cycles(50) + lat.TLBL1Hit
	if clock.Now() != wantClock {
		t.Fatalf("clock = %d, want %d", clock.Now(), wantClock)
	}
}

func TestSTLBHitRefillsDTLB(t *testing.T) {
	tl, w, _, counters := newTestTLB(t)
	lat := timing.DefaultLatencies()

	// dTLB set 0 holds vpns ≡ 0 (mod 2); three such pages overflow its
	// 2 ways, evicting vpn 0 from the dTLB while the 8-set sTLB still
	// holds all three.
	for _, vpn := range []uint64{0, 2, 4} {
		tl.Translate(pageAddr(vpn))
	}
	if in1, in2 := tl.Contains(pageAddr(0)); in1 || !in2 {
		t.Fatalf("expected sTLB-only residence, got dTLB %v sTLB %v", in1, in2)
	}

	frame, res := tl.Translate(pageAddr(0))
	if !res.Hit || res.Source != mem.LevelTLB2 || res.Latency != lat.TLBL2Hit {
		t.Fatalf("sTLB translate = %+v", res)
	}
	if frame != frameFor(0) {
		t.Fatalf("sTLB frame = %d, want %d: refill lost the mapping", frame, frameFor(0))
	}
	if counters.Read(perf.DTLBLoadMissesL1) != 1 {
		t.Fatalf("stlb_hit counter = %d, want 1", counters.Read(perf.DTLBLoadMissesL1))
	}
	if w.walks != 3 {
		t.Fatalf("walks = %d, want 3", w.walks)
	}
	// Refilled: now a dTLB hit, frame preserved through the refill.
	if frame, res := tl.Translate(pageAddr(0)); res.Source != mem.LevelTLB1 || frame != frameFor(0) {
		t.Fatalf("after refill, source = %v frame = %d", res.Source, frame)
	}
}

func TestInvalidate(t *testing.T) {
	tl, w, _, _ := newTestTLB(t)
	a := pageAddr(9)
	tl.Translate(a)
	if !tl.Invalidate(a) {
		t.Fatal("Invalidate missed a cached translation")
	}
	if in1, in2 := tl.Contains(a); in1 || in2 {
		t.Fatal("translation survived Invalidate")
	}
	if tl.Invalidate(a) {
		t.Fatal("second Invalidate reported a hit")
	}
	// Next lookup walks again.
	before := w.walks
	if _, res := tl.Translate(a); res.Hit || w.walks != before+1 {
		t.Fatal("invalidated page did not re-walk")
	}
}

func TestSTLBEvictionForcesRewalk(t *testing.T) {
	tl, w, _, counters := newTestTLB(t)
	// sTLB set 0 (2 ways) holds vpns ≡ 0 (mod 8): 0, 8, 16 overflow it.
	for _, vpn := range []uint64{0, 8, 16} {
		tl.Translate(pageAddr(vpn))
	}
	before := counters.Read(perf.DTLBLoadMissesWalk)
	// vpn 0 was LRU in sTLB set 0; its dTLB copy was also evicted by
	// the dTLB set-0 overflow (0, 8, 16 share dTLB set 0 as well).
	_, res := tl.Translate(pageAddr(0))
	if res.Hit {
		t.Fatalf("expected full miss, got %+v", res)
	}
	if counters.Read(perf.DTLBLoadMissesWalk) != before+1 || w.walks != 4 {
		t.Fatal("eviction did not force a re-walk")
	}
}
