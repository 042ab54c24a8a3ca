package fault

import (
	"reflect"
	"testing"

	"pthammer/internal/dram"
)

// TestResetDisarmsLeakedFault is the no-cross-cohort-leak pin: a
// pair-invalidate fault armed (and even fired) by one cohort's flips
// must be unable to fire in the next cohort after Reset — the armed
// row, the trigger window, the fired latch and the window counter are
// all gone.
func TestResetDisarmsLeakedFault(t *testing.T) {
	m := MustNewModel(Config{Class: PairInvalidate, Seed: 9})
	if err := m.Bind(testGeom()); err != nil {
		t.Fatal(err)
	}
	flipped := dram.Victim{Channel: 0, Rank: 0, Bank: 2, Row: 500, Pressure: 96}

	// Cohort 1: arm on the first flip, reach the trigger, fire.
	m.OnWindow(1)
	m.ObserveFlip(flipped)
	m.OnWindow(1 + triggerWindows)
	if m.Stats().PairsInvalidated != 1 || !m.SuppressAttempt(flipped) {
		t.Fatalf("cohort 1 setup failed to fire the armed fault: %+v", m.Stats())
	}

	// Recycle. The leaked arming must not survive: the armed row flips
	// freely again, and no amount of window progress re-fires the old
	// invalidation.
	m.Reset()
	if got := m.Stats(); got != (Stats{}) {
		t.Fatalf("stats survived Reset: %+v", got)
	}
	last := uint64(2 * triggerWindows)
	for w := uint64(1); w <= last; w++ {
		m.OnWindow(w)
		if m.SuppressAttempt(flipped) {
			t.Fatalf("window %d: leaked armed fault suppressed the next cohort's attempt", w)
		}
	}
	if m.Stats().PairsInvalidated != 0 {
		t.Fatal("leaked arming re-fired in the next cohort without a new flip")
	}

	// The recycled model must still work from scratch: a fresh flip in
	// the new cohort arms and fires as on a fresh model.
	m.ObserveFlip(flipped)
	m.OnWindow(last + triggerWindows)
	if m.Stats().PairsInvalidated != 1 {
		t.Fatal("recycled model no longer arms on a fresh flip")
	}
}

// TestResetReplaysBitIdentically pins the stream half of the contract:
// a recycled model must behave bit-identically to a fresh one for the
// same hook sequence, across every fault class.
func TestResetReplaysBitIdentically(t *testing.T) {
	for _, class := range []Class{EvictionDecay, ThresholdDrift, TRRSuppress, FlipMisland, PairInvalidate} {
		cfg := Config{Class: class, Seed: 5}.WithDefaults()
		drive := func(m *Model) (starts, drops, jitters []any, st Stats) {
			v := dram.Victim{Channel: 0, Rank: 0, Bank: 1, Row: 42, Pressure: 80}
			for w := uint64(1); w <= 12; w++ {
				m.OnWindow(w)
				starts = append(starts, m.PrimeStart(16))
				drops = append(drops, m.DropMember())
				jitters = append(jitters, m.ProbeJitter())
				if w == 3 {
					m.ObserveFlip(v)
				}
				m.SuppressAttempt(v)
				a, b, _ := m.RedirectFlip(0x1234000, uint(w%8))
				starts = append(starts, a, b)
			}
			return starts, drops, jitters, m.Stats()
		}

		fresh := MustNewModel(cfg)
		if err := fresh.Bind(testGeom()); err != nil {
			t.Fatal(err)
		}
		wantS, wantD, wantJ, wantStats := drive(fresh)

		recycled := MustNewModel(cfg)
		if err := recycled.Bind(testGeom()); err != nil {
			t.Fatal(err)
		}
		drive(recycled) // dirty
		recycled.Reset()
		gotS, gotD, gotJ, gotStats := drive(recycled)

		if !reflect.DeepEqual(wantS, gotS) || !reflect.DeepEqual(wantD, gotD) ||
			!reflect.DeepEqual(wantJ, gotJ) || wantStats != gotStats {
			t.Errorf("%v: recycled model diverged from fresh\nfresh:    %v %v %v %+v\nrecycled: %v %v %v %+v",
				class, wantS, wantD, wantJ, wantStats, gotS, gotD, gotJ, gotStats)
		}
	}
}
