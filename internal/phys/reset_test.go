package phys

import "testing"

// TestMemoryResetRestoresHoles pins Memory.Reset: every materialized
// frame is released back to hole status (not merely zeroed) and the
// accounting rewinds, so a recycled machine presents the same
// all-holes memory as a fresh one — in particular FlipBit into a
// previously written, now-reset frame must again be the hole no-op.
// Frames written after Reset materialize zeroed and are the only ones
// counted, and a second round behaves exactly like the first. Every
// round fills its frames with non-zero bytes, so a line-table or line
// slab entry reused after a Reset without clearing shows up as stale
// content.
func TestMemoryResetRestoresHoles(t *testing.T) {
	m := MustNew(4 * FrameSize)
	full := make([]byte, FrameSize)
	for i := range full {
		full[i] = byte(i) | 1
	}
	// zeroExcept reports the first byte of frame f that is non-zero,
	// other than the one at offset off.
	zeroExcept := func(f Frame, off int) (int, bool) {
		buf := make([]byte, FrameSize)
		m.ReadFrame(f, buf)
		for i, b := range buf {
			if b != 0 && i != off {
				return i, false
			}
		}
		return 0, true
	}
	for round := 0; round < 2; round++ {
		m.WriteFrame(0, full)
		m.WriteFrame(3, full)
		if m.Materialized() != 2 || m.WriteCount() == 0 {
			t.Fatalf("round %d setup: %d frames, %d writes", round, m.Materialized(), m.WriteCount())
		}

		m.Reset()
		if m.Materialized() != 0 || m.WriteCount() != 0 {
			t.Errorf("round %d post-Reset accounting: %d frames, %d writes, want 0, 0",
				round, m.Materialized(), m.WriteCount())
		}
		if got := m.Read8(Frame(0).Addr()); got != 0 {
			t.Errorf("round %d post-Reset read = %#x, want 0", round, got)
		}
		if got := m.Read8(Frame(3).Addr() + 100); got != 0 {
			t.Errorf("round %d post-Reset read = %#x, want 0", round, got)
		}
		if _, ok := m.FlipBit(Frame(3).Addr()+100, 0); ok {
			t.Errorf("round %d: FlipBit into a reset frame applied; want hole no-op", round)
		}
		if m.Materialized() != 0 || m.WriteCount() != 0 {
			t.Errorf("round %d: hole probes materialized %d frames, counted %d writes",
				round, m.Materialized(), m.WriteCount())
		}

		// A new write materializes only its own frame, zeroed: the
		// old contents of a released frame never come back, although
		// the slabs' capacity is reused.
		m.Write8(Frame(3).Addr(), 7)
		m.Write8(Frame(1).Addr(), 9)
		for _, f := range []Frame{3, 1} {
			if i, ok := zeroExcept(f, 0); !ok {
				t.Errorf("round %d: rematerialized frame %d reads %#x at offset %d, want 0",
					round, f, m.Read8(f.Addr()+Addr(i)), i)
			}
		}
		if got := m.Read8(Frame(0).Addr()); got != 0 {
			t.Errorf("round %d: unwritten frame reads %#x, want 0", round, got)
		}
		if m.Materialized() != 2 {
			t.Errorf("round %d: Materialized = %d, want 2 (frames 1 and 3)", round, m.Materialized())
		}
		if _, ok := m.FlipBit(Frame(0).Addr(), 0); ok {
			t.Errorf("round %d: FlipBit into an unwritten frame applied", round)
		}
		m.Reset()
	}
}

// TestMemoryRematerializeNoAlloc pins frame's reuse of the arrays a
// Reset released: after Reset, materializing as many frames as before
// — other frames, each round a different set — allocates nothing.
func TestMemoryRematerializeNoAlloc(t *testing.T) {
	const frames = 16
	m := MustNew(4 * frames * FrameSize)
	for f := Frame(0); f < frames; f++ {
		m.Write8(f.Addr(), 1)
	}
	round := 0
	allocs := testing.AllocsPerRun(8, func() {
		m.Reset()
		round++
		for k := Frame(0); k < frames; k++ {
			f := 4*k + Frame(round%4)
			m.Write8(f.Addr()+Addr(round), byte(round))
		}
	})
	if allocs != 0 {
		t.Errorf("re-materializing %d frames after Reset allocated %v times per round, want 0", frames, allocs)
	}
	if m.Materialized() != frames {
		t.Fatalf("Materialized = %d, want %d", m.Materialized(), frames)
	}
}

// TestMemoryResetNoAlloc pins the recycle cost: resetting a memory with
// materialized frames allocates nothing. AllocsPerRun makes one
// unmeasured warm-up call first, so each call resets its own
// pre-filled memory.
func TestMemoryResetNoAlloc(t *testing.T) {
	const runs = 8
	mems := make([]*Memory, runs+1)
	for i := range mems {
		mems[i] = MustNew(64 * FrameSize)
		for f := Frame(0); f < 64; f += 3 {
			mems[i].Write8(f.Addr(), 1)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		mems[next].Reset()
		next++
	})
	if allocs != 0 {
		t.Errorf("Reset allocated %v times per call, want 0", allocs)
	}
	for i, m := range mems {
		if m.Materialized() != 0 {
			t.Fatalf("memory %d: %d frames left after Reset", i, m.Materialized())
		}
	}
}
