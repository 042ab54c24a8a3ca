package perf

import (
	"strings"
	"testing"
)

func TestIncAddReadReset(t *testing.T) {
	var c Counters
	c.Inc(DRAMActivate)
	c.Inc(DRAMActivate)
	c.Add(LLCReference, 40)
	if got := c.Read(DRAMActivate); got != 2 {
		t.Fatalf("DRAMActivate = %d, want 2", got)
	}
	if got := c.Read(LLCReference); got != 40 {
		t.Fatalf("LLCReference = %d, want 40", got)
	}
	if got := c.Read(PageWalkCompleted); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
	c.Reset()
	if c.Read(DRAMActivate) != 0 || c.Read(LLCReference) != 0 {
		t.Fatal("Reset left counters nonzero")
	}
}

func TestSnapshotDelta(t *testing.T) {
	var c Counters
	c.Add(DTLBLoadMissesWalk, 5)
	s := c.Snapshot()
	c.Add(DTLBLoadMissesWalk, 3)
	c.Inc(LongestLatCacheMiss)
	if got := s.Delta(&c, DTLBLoadMissesWalk); got != 3 {
		t.Fatalf("walk delta = %d, want 3", got)
	}
	if got := s.Delta(&c, LongestLatCacheMiss); got != 1 {
		t.Fatalf("LLC miss delta = %d, want 1", got)
	}
	if got := s.Delta(&c, DRAMActivate); got != 0 {
		t.Fatalf("untouched delta = %d, want 0", got)
	}
	// Snapshot is a copy: further increments don't change it.
	s2 := c.Snapshot()
	c.Inc(DTLBLoadMissesWalk)
	if got := s2.Delta(&c, DTLBLoadMissesWalk); got != 1 {
		t.Fatalf("second delta = %d, want 1", got)
	}
}

func TestSnapshotAdvanced(t *testing.T) {
	var c Counters
	c.Add(L1PTEMemoryFetch, 7)
	s := c.Snapshot()
	if s.Advanced(&c, L1PTEMemoryFetch) {
		t.Fatal("unmoved counter reported as advanced")
	}
	c.Inc(L1PTEMemoryFetch)
	if !s.Advanced(&c, L1PTEMemoryFetch) {
		t.Fatal("moved counter not reported as advanced")
	}
	if s.Advanced(&c, DRAMActivate) {
		t.Fatal("untouched event reported as advanced")
	}
}

func TestEventStrings(t *testing.T) {
	want := map[Event]string{
		DTLBLoadMissesWalk:  "dtlb_load_misses.miss_causes_a_walk",
		DTLBLoadMissesL1:    "dtlb_load_misses.stlb_hit",
		LongestLatCacheMiss: "longest_lat_cache.miss",
		LLCReference:        "longest_lat_cache.reference",
		DRAMActivate:        "dram.activate",
		DRAMRowConflicts:    "dram.row_conflict",
		PageWalkCompleted:   "page_walker.walks_completed",
		PSCacheHit:          "page_walker.pscache_hit",
		L1PTEMemoryFetch:    "page_walker.l1pte_memory_fetch",
		WalkStepPML4E:       "page_walker.step_pml4e",
		WalkStepPDPTE:       "page_walker.step_pdpte",
		WalkStepPDE:         "page_walker.step_pde",
		WalkStepPTE:         "page_walker.step_pte",
	}
	for e, s := range want {
		if got := e.String(); got != s {
			t.Errorf("%d.String() = %q, want %q", int(e), got, s)
		}
	}
	if got := Event(999).String(); !strings.Contains(got, "999") {
		t.Errorf("unknown event String = %q", got)
	}
}
