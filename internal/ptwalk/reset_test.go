package ptwalk

import (
	"testing"

	"pthammer/internal/phys"
)

// TestResetColdPagingStructureCaches pins the walker's half of the
// Reset/Recycle contract: Reset empties the paging-structure caches,
// so a translation that had warmed them re-fetches every level —
// byte-for-byte the fresh walker's access trace. A PSC entry leaking
// across a recycle would let the next cohort's first walk skip levels
// and desynchronise its timing from a fresh machine's.
func TestResetColdPagingStructureCaches(t *testing.T) {
	f := newFixture(t)
	va := phys.Addr(0x42000)
	f.tables.Map(va, phys.Frame(7))

	f.w.Translate(va)
	coldAccesses := len(f.dev.accesses)

	// Warm walk: the upper levels are served from the PSCs, so fewer
	// memory fetches are issued. (Guards the reset assertion below
	// against vacuity.)
	f.w.Translate(va)
	warmAccesses := len(f.dev.accesses) - coldAccesses
	if warmAccesses >= coldAccesses {
		t.Fatalf("warm walk fetched %d levels, cold fetched %d; PSCs not caching", warmAccesses, coldAccesses)
	}

	f.w.Reset()
	f.dev.accesses = f.dev.accesses[:0]
	frame, res := f.w.Translate(va)
	if frame != 7 || res.Hit {
		t.Fatalf("post-Reset translate = (%d, %+v), want full-walk miss to frame 7", frame, res)
	}
	if len(f.dev.accesses) != coldAccesses {
		t.Errorf("post-Reset walk fetched %d levels, want the fresh walker's %d", len(f.dev.accesses), coldAccesses)
	}
}
