package pagetable

import (
	"testing"

	"pthammer/internal/phys"
)

// TestResetRecyclesPool pins the page-table half of the Reset/Recycle
// contract: Reset returns every handed-out table frame to the pool
// scrubbed, rebuilds an empty root, and leaves the address space with
// no mapping — so a recycled Tables maps the next cohort's pages using
// exactly the frames (and allocation count) a fresh instance would.
func TestResetRecyclesPool(t *testing.T) {
	const size = 16 << 20
	m := phys.MustNew(size)
	tbl, err := NewWithFrames(m, topPool(size, 64))
	if err != nil {
		t.Fatal(err)
	}

	va := phys.Addr(0x42000)
	tbl.Map(va, phys.Frame(7))
	tbl.Map(va+phys.Addr(Span(3)), phys.Frame(9)) // force a second PDPT subtree
	allocated := tbl.Allocated()
	if allocated <= 1 {
		t.Fatalf("setup allocated %d frames, want a multi-level tree", allocated)
	}

	tbl.Reset()
	if tbl.Allocated() != 1 {
		t.Errorf("post-Reset Allocated = %d, want 1 (root only)", tbl.Allocated())
	}
	if _, ok := tbl.Resolve(va); ok {
		t.Error("mapping survived Reset")
	}
	root := tbl.Root()
	for off := phys.Addr(0); off < phys.FrameSize; off += 8 {
		if v := m.Read64(root.Addr() + off); v != 0 {
			t.Fatalf("root entry at +%#x = %#x after Reset, want scrubbed 0", off, v)
		}
	}

	// The pool is fully reusable: remapping the same pages consumes the
	// same number of frames as the first pass did.
	tbl.Map(va, phys.Frame(7))
	tbl.Map(va+phys.Addr(Span(3)), phys.Frame(9))
	if tbl.Allocated() != allocated {
		t.Errorf("remap allocated %d frames, fresh pass used %d", tbl.Allocated(), allocated)
	}
	if f, ok := tbl.Resolve(va); !ok || f != 7 {
		t.Errorf("remapped Resolve = (%d, %v), want (7, true)", f, ok)
	}
}
