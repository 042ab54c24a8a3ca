package cache

import (
	"testing"

	"pthammer/internal/mem"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// fakeDRAM is a terminal device with a fixed latency, standing in for
// the real DRAM model.
type fakeDRAM struct {
	clock   *timing.Clock
	lat     timing.Cycles
	lookups int
}

func (f *fakeDRAM) Lookup(phys.Addr) mem.Result {
	f.lookups++
	f.clock.Advance(f.lat)
	return mem.Result{Latency: f.lat, Hit: false, Source: mem.LevelDRAM}
}

// tiny configs: L1 2 sets × 2 ways, L2 4 sets × 2 ways, LLC 4 sets × 4
// ways, 64 B lines.
func tinyConfigs() (l1, l2, llc Config) {
	l1 = Config{SizeBytes: 2 * 2 * 64, Ways: 2}
	l2 = Config{SizeBytes: 4 * 2 * 64, Ways: 2}
	llc = Config{SizeBytes: 4 * 4 * 64, Ways: 4}
	return
}

func newTestHierarchy(t *testing.T) (*Hierarchy, *fakeDRAM, *timing.Clock, *perf.Counters) {
	t.Helper()
	clock := &timing.Clock{}
	counters := &perf.Counters{}
	d := &fakeDRAM{clock: clock, lat: 200}
	l1, l2, llc := tinyConfigs()
	shared, err := NewShared(llc, timing.DefaultLatencies())
	if err != nil {
		t.Fatalf("NewShared: %v", err)
	}
	h, err := NewCore(l1, l2, shared, 0, d, clock, counters, timing.DefaultLatencies())
	if err != nil {
		t.Fatalf("NewCore: %v", err)
	}
	return h, d, clock, counters
}

func TestConfigValidate(t *testing.T) {
	good := Config{SizeBytes: 32 << 10, Ways: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, Ways: 8},
		{SizeBytes: 32 << 10, Ways: 0},
		{SizeBytes: 100, Ways: 3},        // not divisible
		{SizeBytes: 3 * 8 * 64, Ways: 8}, // 3 sets
		{SizeBytes: 32 << 10, Ways: 32},  // past mem.MaxWays
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestNewRejectsMismatchedHierarchy(t *testing.T) {
	clock := &timing.Clock{}
	counters := &perf.Counters{}
	d := &fakeDRAM{clock: clock, lat: 200}
	l1, l2, llc := tinyConfigs()
	lat := timing.DefaultLatencies()
	badLat := lat
	badLat.L1Hit = 0
	wide := Config{SizeBytes: 32 * 64, Ways: 32} // one set, past mem.MaxWays
	if _, err := NewShared(wide, lat); err == nil {
		t.Error("LLC past mem.MaxWays accepted")
	}
	if _, err := NewShared(llc, badLat); err == nil {
		t.Error("invalid latency table accepted by NewShared")
	}
	shared, err := NewShared(llc, lat)
	if err != nil {
		t.Fatal(err)
	}

	// A rejected core never attaches, so every case below tries core 0.
	small, err := NewShared(Config{SizeBytes: 2 * 2 * 64, Ways: 2}, lat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCore(l1, l2, small, 0, d, clock, counters, lat); err == nil {
		t.Error("non-inclusive-capable LLC accepted")
	}
	if _, err := NewCore(l1, l2, shared, 0, nil, clock, counters, lat); err == nil {
		t.Error("nil next device accepted")
	}
	if _, err := NewCore(l1, l2, nil, 0, d, clock, counters, lat); err == nil {
		t.Error("nil shared LLC accepted")
	}
	if _, err := NewCore(wide, l2, shared, 0, d, clock, counters, lat); err == nil {
		t.Error("L1 past mem.MaxWays accepted")
	}
	if _, err := NewCore(l1, l2, shared, 0, d, clock, counters, badLat); err == nil {
		t.Error("invalid latency table accepted by NewCore")
	}
	if _, err := NewCore(l1, l2, shared, 1, d, clock, counters, lat); err == nil {
		t.Error("core attached out of order accepted")
	}
}

func TestMissFillsAndHitsDescendLevels(t *testing.T) {
	h, d, clock, counters := newTestHierarchy(t)
	lat := timing.DefaultLatencies()
	addr := phys.Addr(0x1000)

	// Cold miss goes to DRAM and fills every level.
	res := h.Lookup(addr)
	if res.Hit || res.Source != mem.LevelDRAM || res.Latency != 200 {
		t.Fatalf("cold lookup = %+v", res)
	}
	if d.lookups != 1 {
		t.Fatalf("DRAM lookups = %d", d.lookups)
	}
	if in1, in2, in3 := h.Contains(addr); !in1 || !in2 || !in3 {
		t.Fatalf("fill missing levels: %v %v %v", in1, in2, in3)
	}
	if counters.Read(perf.LLCReference) != 1 || counters.Read(perf.LongestLatCacheMiss) != 1 {
		t.Fatal("cold miss counters wrong")
	}

	// Warm repeat: L1 hit, no DRAM traffic, no LLC reference.
	res = h.Lookup(addr + 63) // same line
	if !res.Hit || res.Source != mem.LevelL1 || res.Latency != lat.L1Hit {
		t.Fatalf("warm lookup = %+v", res)
	}
	if d.lookups != 1 || counters.Read(perf.LLCReference) != 1 {
		t.Fatal("L1 hit leaked to lower levels")
	}

	wantClock := timing.Cycles(200) + lat.L1Hit
	if clock.Now() != wantClock {
		t.Fatalf("clock = %d, want %d", clock.Now(), wantClock)
	}
}

func TestL2AndLLCHitPaths(t *testing.T) {
	h, _, _, _ := newTestHierarchy(t)
	lat := timing.DefaultLatencies()

	// L1 has 2 sets × 2 ways. Lines 0, 2, 4 (even line numbers) all
	// index L1 set 0; loading three of them evicts line 0 from L1 only.
	a0, a2, a4 := phys.Addr(0), phys.Addr(2*64), phys.Addr(4*64)
	h.Lookup(a0)
	h.Lookup(a2)
	h.Lookup(a4)
	if in1, _, _ := h.Contains(a0); in1 {
		t.Fatal("line 0 still in L1 after two conflicting fills")
	}

	// a0 now hits in L2 (L2 set 0 holds lines 0 and 4; line 2 went to
	// L2 set 2).
	res := h.Lookup(a0)
	if !res.Hit || res.Source != mem.LevelL2 || res.Latency != lat.L2Hit {
		t.Fatalf("expected L2 hit, got %+v", res)
	}
}

func TestInclusiveLLCBackInvalidates(t *testing.T) {
	h, d, _, _ := newTestHierarchy(t)

	// LLC set 0 has 4 ways; line numbers ≡ 0 (mod 4) map there.
	// Fill five such lines: the LRU one (line 0) is evicted from the
	// LLC and must be back-invalidated from L1/L2 too.
	target := phys.Addr(0)
	h.Lookup(target)
	for i := 1; i <= 4; i++ {
		h.Lookup(phys.Addr(i * 4 * 64))
	}
	if in1, in2, in3 := h.Contains(target); in1 || in2 || in3 {
		t.Fatalf("line survived inclusive eviction: L1 %v L2 %v LLC %v", in1, in2, in3)
	}

	// The next access must go to DRAM again.
	before := d.lookups
	res := h.Lookup(target)
	if res.Hit || d.lookups != before+1 {
		t.Fatalf("evicted line did not refetch from DRAM: %+v", res)
	}
}

func TestFlush(t *testing.T) {
	h, d, clock, _ := newTestHierarchy(t)
	lat := timing.DefaultLatencies()
	addr := phys.Addr(0x2000)

	h.Lookup(addr)
	start := clock.Now()
	if got := h.Flush(addr); got != lat.CLFlushCost {
		t.Fatalf("Flush cost = %d, want %d", got, lat.CLFlushCost)
	}
	if clock.Now()-start != lat.CLFlushCost {
		t.Fatal("Flush did not charge the clock")
	}
	if in1, in2, in3 := h.Contains(addr); in1 || in2 || in3 {
		t.Fatal("Flush left the line cached")
	}
	before := d.lookups
	if res := h.Lookup(addr); res.Hit || d.lookups != before+1 {
		t.Fatal("flushed line did not refetch from DRAM")
	}

	// Flushing an uncached line still costs the instruction.
	if got := h.Flush(phys.Addr(0x7000)); got != lat.CLFlushCost {
		t.Fatal("Flush of uncached line free")
	}
}

func TestLRUWithinSet(t *testing.T) {
	h, d, _, _ := newTestHierarchy(t)
	// L1 set 0, 2 ways: load lines 0 and 2, touch 0, then load 4.
	// The LRU victim must be 2, not 0.
	a0, a2, a4 := phys.Addr(0), phys.Addr(2*64), phys.Addr(4*64)
	h.Lookup(a0)
	h.Lookup(a2)
	h.Lookup(a0) // refresh a0
	h.Lookup(a4)
	if in1, _, _ := h.Contains(a0); !in1 {
		t.Fatal("recently used line evicted from L1")
	}
	if in1, _, _ := h.Contains(a2); in1 {
		t.Fatal("LRU line survived in L1")
	}
	_ = d
}

// TestLLCArbitrationChargesSwitchingCore: an LLC access that follows
// another core's pays LLCArbitration on the accessing core's own clock,
// on the hit path and the miss path alike; the first LLC access and a
// core's repeat access pay nothing.
func TestLLCArbitrationChargesSwitchingCore(t *testing.T) {
	lat := timing.DefaultLatencies()
	l1, l2, llc := tinyConfigs()
	shared, err := NewShared(llc, lat)
	if err != nil {
		t.Fatal(err)
	}
	var cores [2]*Hierarchy
	var clocks [2]*timing.Clock
	for i := range cores {
		clocks[i] = &timing.Clock{}
		d := &fakeDRAM{clock: clocks[i], lat: 200}
		if cores[i], err = NewCore(l1, l2, shared, i, d, clocks[i], &perf.Counters{}, lat); err != nil {
			t.Fatal(err)
		}
	}
	a, b := phys.Addr(0x1000), phys.Addr(0x2000)
	steps := []struct {
		core int
		addr phys.Addr
		want timing.Cycles
	}{
		{0, a, 200},                             // first LLC access: a miss, no arbitration
		{1, b, 200 + lat.LLCArbitration},        // miss behind core 0
		{1, a, lat.LLCHit},                      // core 0's line, core 1 again: plain LLC hit
		{0, b, lat.LLCHit + lat.LLCArbitration}, // core 1's line, behind core 1
	}
	var spent [2]timing.Cycles
	for i, st := range steps {
		if got := cores[st.core].Lookup(st.addr).Latency; got != st.want {
			t.Fatalf("step %d (core %d, %#x): latency %d, want %d", i, st.core, uint64(st.addr), got, st.want)
		}
		spent[st.core] += st.want
	}
	for i, c := range clocks {
		if c.Now() != spent[i] {
			t.Fatalf("core %d clock = %d, want %d (its own accesses only)", i, c.Now(), spent[i])
		}
	}
}

// TestSharedAccessors: each per-core hierarchy knows its shared LLC
// slice, and the slice counts its attached cores.
func TestSharedAccessors(t *testing.T) {
	clock := &timing.Clock{}
	counters := &perf.Counters{}
	d := &fakeDRAM{clock: clock, lat: 200}
	l1, l2, llc := tinyConfigs()
	shared, err := NewShared(llc, timing.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if shared.Cores() != 0 {
		t.Fatalf("fresh shared LLC reports %d cores", shared.Cores())
	}
	h, err := NewCore(l1, l2, shared, 0, d, clock, counters, timing.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if h.Shared() != shared || shared.Cores() != 1 {
		t.Fatalf("attachment bookkeeping: shared match %v, cores %d", h.Shared() == shared, shared.Cores())
	}
}
