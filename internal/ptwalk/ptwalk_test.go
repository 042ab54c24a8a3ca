package ptwalk

import (
	"testing"

	"pthammer/internal/mem"
	"pthammer/internal/pagetable"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// fakeMem stands in for the cache hierarchy: it records every access
// the walker issues and serves each at a fixed latency from a
// configurable level.
type fakeMem struct {
	clock    *timing.Clock
	lat      timing.Cycles
	source   mem.Level
	accesses []phys.Addr
}

func (f *fakeMem) Lookup(a phys.Addr) mem.Result {
	f.accesses = append(f.accesses, a)
	f.clock.Advance(f.lat)
	return mem.Result{Latency: f.lat, Hit: false, Source: f.source}
}

type fixture struct {
	w      *Walker
	tables *pagetable.Tables
	pmem   *phys.Memory
	dev    *fakeMem
	clock  *timing.Clock
	ctrs   *perf.Counters
	lat    timing.LatencyTable
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	const size = 16 << 20
	pmem := phys.MustNew(size)
	// A contiguous 64-frame table pool at the top of memory, where the
	// machine facade puts it.
	pool := make([]phys.Frame, 64)
	for i := range pool {
		pool[i] = phys.Frame(size/phys.FrameSize-64) + phys.Frame(i)
	}
	tables, err := pagetable.NewWithFrames(pmem, pool)
	if err != nil {
		t.Fatalf("pagetable.NewWithFrames: %v", err)
	}
	clock := &timing.Clock{}
	ctrs := &perf.Counters{}
	lat := timing.DefaultLatencies()
	dev := &fakeMem{clock: clock, lat: 100, source: mem.LevelDRAM}
	w, err := New(tables, dev, pmem, clock, ctrs, lat)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &fixture{w: w, tables: tables, pmem: pmem, dev: dev, clock: clock, ctrs: ctrs, lat: lat}
}

// TestNewRejectsBadInputs covers New's validation branches: a bad
// latency table or a nil dependency is an error, never a panic.
func TestNewRejectsBadInputs(t *testing.T) {
	f := newFixture(t)
	badLat := f.lat
	badLat.PSCacheHit = 0
	if _, err := New(f.tables, f.dev, f.pmem, f.clock, f.ctrs, badLat); err == nil {
		t.Error("invalid latency table accepted")
	}
	if _, err := New(nil, f.dev, f.pmem, f.clock, f.ctrs, f.lat); err == nil {
		t.Error("nil tables accepted")
	}
}

func TestFullWalkFetchesEveryLevel(t *testing.T) {
	f := newFixture(t)
	va := phys.Addr(0x42000)
	f.tables.Map(va, phys.Frame(7))

	start := f.clock.Now()
	frame, res := f.w.Translate(va)
	if frame != 7 {
		t.Fatalf("frame = %d, want 7", frame)
	}
	if res.Hit || res.Source != mem.LevelPageWalk {
		t.Fatalf("result = %+v, want page-walk miss", res)
	}

	// The walker's PTE fetch, once per level, aimed exactly at the entries the
	// layout says the walk consults, in root-to-leaf order.
	if len(f.dev.accesses) != 4 {
		t.Fatalf("walk issued %d accesses, want 4", len(f.dev.accesses))
	}
	for i, level := range []int{4, 3, 2, 1} {
		want, ok := f.tables.EntryAddr(va, level)
		if !ok {
			t.Fatalf("EntryAddr(level %d) missing", level)
		}
		got := f.dev.accesses[i]
		if got != want {
			t.Fatalf("access %d = %#x, want pte-fetch at %#x", i, uint64(got), uint64(want))
		}
	}

	// Latency: per level the memory fetch plus the fixed step; clock
	// agreement is the Translator contract.
	want := 4 * (f.dev.lat + f.lat.PageWalkStep)
	if res.Latency != want {
		t.Fatalf("latency = %d, want %d", res.Latency, want)
	}
	if got := f.clock.Now() - start; got != want {
		t.Fatalf("clock delta = %d, want %d", got, want)
	}
	for _, c := range []struct {
		ev   perf.Event
		want uint64
	}{
		{perf.WalkStepPML4E, 1}, {perf.WalkStepPDPTE, 1}, {perf.WalkStepPDE, 1},
		{perf.WalkStepPTE, 1}, {perf.PageWalkCompleted, 1},
		{perf.L1PTEMemoryFetch, 1}, {perf.PSCacheHit, 0},
	} {
		if got := f.ctrs.Read(c.ev); got != c.want {
			t.Errorf("%v = %d, want %d", c.ev, got, c.want)
		}
	}
}

func TestPSCacheSkipsUpperLevels(t *testing.T) {
	f := newFixture(t)
	va := phys.Addr(0x42000)
	f.tables.Map(va, phys.Frame(7))
	f.w.Translate(va)
	if pde, pdpte, pml4e := f.w.PSContains(va); !pde || !pdpte || !pml4e {
		t.Fatalf("PS caches = %v %v %v after full walk, want all true", pde, pdpte, pml4e)
	}

	f.dev.accesses = nil
	start := f.clock.Now()
	frame, res := f.w.Translate(va)
	if frame != 7 {
		t.Fatalf("frame = %d, want 7", frame)
	}
	// PDE cache hit: only the PT-level entry is fetched.
	if len(f.dev.accesses) != 1 {
		t.Fatalf("partial walk issued %d accesses, want 1", len(f.dev.accesses))
	}
	if pte, _ := f.tables.EntryAddr(va, 1); f.dev.accesses[0] != pte {
		t.Fatalf("partial walk fetched %#x, want the PTE at %#x", uint64(f.dev.accesses[0]), uint64(pte))
	}
	want := f.lat.PSCacheHit + f.dev.lat + f.lat.PageWalkStep
	if res.Latency != want || f.clock.Now()-start != want {
		t.Fatalf("latency = %d (clock %d), want %d", res.Latency, f.clock.Now()-start, want)
	}
	if got := f.ctrs.Read(perf.PSCacheHit); got != 1 {
		t.Fatalf("PSCacheHit = %d, want 1", got)
	}
	if got := f.ctrs.Read(perf.WalkStepPML4E); got != 1 {
		t.Fatalf("WalkStepPML4E = %d, want 1 (second walk must skip it)", got)
	}

	// A different VA in the same 2 MiB region shares the PDE entry.
	va2 := va + phys.FrameSize
	f.tables.Map(va2, phys.Frame(9))
	f.dev.accesses = nil
	if frame, _ := f.w.Translate(va2); frame != 9 || len(f.dev.accesses) != 1 {
		t.Fatalf("same-region walk: frame %d, %d accesses", frame, len(f.dev.accesses))
	}
}

func TestInvalidateDropsPSEntries(t *testing.T) {
	f := newFixture(t)
	va := phys.Addr(0x42000)
	f.tables.Map(va, phys.Frame(7))
	f.w.Translate(va)

	if !f.w.Invalidate(va) {
		t.Fatal("Invalidate found nothing after a walk")
	}
	if pde, pdpte, pml4e := f.w.PSContains(va); pde || pdpte || pml4e {
		t.Fatalf("PS caches = %v %v %v after Invalidate, want all false", pde, pdpte, pml4e)
	}
	if f.w.Invalidate(va) {
		t.Fatal("second Invalidate reported entries")
	}
	f.dev.accesses = nil
	f.w.Translate(va)
	if len(f.dev.accesses) != 4 {
		t.Fatalf("post-invalidate walk issued %d accesses, want full 4", len(f.dev.accesses))
	}
}

func TestL1PTEMemoryFetchCountsOnlyDRAMServedPTEs(t *testing.T) {
	f := newFixture(t)
	va := phys.Addr(0x42000)
	f.tables.Map(va, phys.Frame(7))
	f.dev.source = mem.LevelL1 // every fetch served by the cache
	f.w.Translate(va)
	if got := f.ctrs.Read(perf.L1PTEMemoryFetch); got != 0 {
		t.Fatalf("L1PTEMemoryFetch = %d for cache-served walk, want 0", got)
	}
	if got := f.ctrs.Read(perf.WalkStepPTE); got != 1 {
		t.Fatalf("WalkStepPTE = %d, want 1", got)
	}
}

func TestFaultHandlerMapsOnDemand(t *testing.T) {
	f := newFixture(t)
	va := phys.Addr(0x42000)
	faults := 0
	f.w.Fault = func(fva phys.Addr, level int) {
		faults++
		if fva != va {
			t.Fatalf("fault for %#x, want %#x", uint64(fva), uint64(va))
		}
		f.tables.Map(fva, phys.FrameOf(fva))
	}
	frame, _ := f.w.Translate(va)
	if frame != phys.FrameOf(va) {
		t.Fatalf("demand-mapped frame = %d, want identity %d", frame, phys.FrameOf(va))
	}
	// The handler maps the whole path on the first (PML4-level) fault.
	if faults != 1 {
		t.Fatalf("faults = %d, want 1", faults)
	}
	// Walk again: everything mapped, no further faults.
	f.w.Invalidate(va)
	f.w.Translate(va)
	if faults != 1 {
		t.Fatalf("faults after remap walk = %d, want still 1", faults)
	}
}

func TestNonPresentWithoutHandlerPanics(t *testing.T) {
	f := newFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped walk without handler did not panic")
		}
	}()
	f.w.Translate(0x42000)
}

func TestCorruptedEntryRedirectsWalk(t *testing.T) {
	f := newFixture(t)
	va := phys.Addr(0x42000)
	f.tables.Map(va, phys.FrameOf(va))
	f.w.Translate(va)

	// Flip the lowest frame bit of the leaf PTE (byte 1, bit 4 = entry
	// bit 12) — the disturbance a hammered PT row suffers.
	pte, _ := f.tables.EntryAddr(va, 1)
	f.pmem.FlipBit(pte+1, 4)

	// PS caches cover only upper levels, so even without invalidation
	// the next walk re-reads the corrupted PTE.
	frame, _ := f.w.Translate(va)
	if want := phys.FrameOf(va) ^ 1; frame != want {
		t.Fatalf("corrupted walk = %d, want %d", frame, want)
	}
}
