package tlb

import "testing"

// TestResetEmptiesBothLevels pins the TLB half of the Reset/Recycle
// contract: after Reset no stale translation survives in either level,
// so the next access re-walks — the load-bearing property for a
// recycled machine, whose fresh address space must not resolve through
// a previous cohort's mappings.
func TestResetEmptiesBothLevels(t *testing.T) {
	tl, w, _, _ := newTestTLB(t)
	a := pageAddr(5)

	tl.Translate(a)
	if frame, res := tl.Translate(a); !res.Hit || frame != frameFor(5) || w.walks != 1 {
		t.Fatalf("warm translate = (%d, %+v), walks %d; want dTLB hit after 1 walk", frame, res, w.walks)
	}

	tl.Reset()
	if in1, in2 := tl.Contains(a); in1 || in2 {
		t.Fatalf("translation survived Reset: L1 %v, L2 %v", in1, in2)
	}
	frame, res := tl.Translate(a)
	if res.Hit || frame != frameFor(5) || w.walks != 2 {
		t.Fatalf("post-Reset translate = (%d, %+v), walks %d; want a fresh full walk", frame, res, w.walks)
	}
}
