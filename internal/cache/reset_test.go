package cache

import (
	"testing"

	"pthammer/internal/mem"
	"pthammer/internal/phys"
)

// TestResetSplitsPrivateAndShared pins the cache half of the
// Reset/Recycle contract, including the multi-core split: a
// Hierarchy.Reset empties only that core's private L1/L2 (on a
// multi-core machine it runs once per core), while the LLC is emptied
// exactly once via SharedLLC.Reset. A lookup between the two resets
// must therefore still be served by the shared slice without DRAM
// traffic, and only after the shared reset does the line re-miss all
// the way down.
func TestResetSplitsPrivateAndShared(t *testing.T) {
	h, d, _, _ := newTestHierarchy(t)
	addr := phys.Addr(0x2000)

	h.Lookup(addr)
	if d.lookups != 1 {
		t.Fatalf("cold fill: DRAM lookups = %d, want 1", d.lookups)
	}

	h.Reset()
	if in1, in2, in3 := h.Contains(addr); in1 || in2 || !in3 {
		t.Fatalf("post private Reset Contains = %v %v %v, want false false true", in1, in2, in3)
	}
	res := h.Lookup(addr)
	if !res.Hit || res.Source != mem.LevelLLC || d.lookups != 1 {
		t.Fatalf("post private Reset lookup = %+v (DRAM lookups %d), want LLC hit without DRAM traffic", res, d.lookups)
	}

	h.Reset()
	h.Shared().Reset()
	if in1, in2, in3 := h.Contains(addr); in1 || in2 || in3 {
		t.Fatalf("line survived full reset: %v %v %v", in1, in2, in3)
	}
	res = h.Lookup(addr)
	if res.Hit || res.Source != mem.LevelDRAM || d.lookups != 2 {
		t.Fatalf("post full reset lookup = %+v (DRAM lookups %d), want fresh cold miss", res, d.lookups)
	}
}
