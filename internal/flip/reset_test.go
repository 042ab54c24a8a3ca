package flip

import (
	"reflect"
	"testing"

	"pthammer/internal/dram"
	"pthammer/internal/phys"
)

// driveReports feeds a fixed victim-report sequence and returns the
// model's full observable record.
func driveReports(mem *phys.Memory, m *Model) (flips []Flip, windows, attempts, misses uint64) {
	geom := testGeom()
	fillRow(mem, geom, 5, 0xAA)
	for i := 0; i < 6; i++ {
		m.OnWindow(victimReport(5, 200+uint64(i)*50))
	}
	return append([]Flip(nil), m.Flips()...), m.Windows(), m.Attempts(), m.Misses()
}

// TestResetReplaysBitIdentically pins the recycle half of the flip
// model's determinism contract: after Reset, the model must produce
// bit-identical flips, windows and attempt/miss accounting to a fresh
// NewModel(profile, seed) fed the same reports — with the memory
// binding (and its scrubbed state) intact.
func TestResetReplaysBitIdentically(t *testing.T) {
	for _, p := range []Profile{ClassA(), ClassB(), ClassC()} {
		fresh, freshMem := boundModel(t, p, 11)
		wantFlips, wantW, wantA, wantM := driveReports(freshMem, fresh)
		if len(wantFlips) == 0 {
			t.Fatalf("%s: no flips from the reference run; the property would be vacuous", p.Name)
		}

		recycled, recycledMem := boundModel(t, p, 11)
		driveReports(recycledMem, recycled) // dirty cohort
		// Recycle both the model and its bound memory, as a machine
		// recycle does: flipped cells must not leak into the next run.
		recycledMem.Reset()
		recycled.Reset()
		gotFlips, gotW, gotA, gotM := driveReports(recycledMem, recycled)

		if !reflect.DeepEqual(wantFlips, gotFlips) || wantW != gotW || wantA != gotA || wantM != gotM {
			t.Errorf("%s: recycled model diverged from fresh:\nfresh:    %d flips, w=%d a=%d m=%d\nrecycled: %d flips, w=%d a=%d m=%d",
				p.Name, len(wantFlips), wantW, wantA, wantM, len(gotFlips), gotW, gotA, gotM)
		}
	}
}

// TestResetToRestamps pins the cohort scheduler's per-tenant re-stamp:
// ResetTo(profile, seed) on a bound model must behave exactly like a
// fresh model built with that profile and seed.
func TestResetToRestamps(t *testing.T) {
	want, wantMem := boundModel(t, ClassC(), 99)
	wantFlips, wantW, wantA, wantM := driveReports(wantMem, want)

	m, mem := boundModel(t, ClassA(), 1)
	driveReports(mem, m) // dirty under the old identity
	mem.Reset()
	if err := m.ResetTo(ClassC(), 99); err != nil {
		t.Fatal(err)
	}
	if m.Profile().Name != "C" || m.Seed() != 99 {
		t.Fatalf("ResetTo did not re-stamp identity: %s seed %d", m.Profile().Name, m.Seed())
	}
	gotFlips, gotW, gotA, gotM := driveReports(mem, m)
	if !reflect.DeepEqual(wantFlips, gotFlips) || wantW != gotW || wantA != gotA || wantM != gotM {
		t.Errorf("ResetTo diverged from fresh NewModel(C, 99): fresh %d flips w=%d a=%d m=%d, recycled %d flips w=%d a=%d m=%d",
			len(wantFlips), wantW, wantA, wantM, len(gotFlips), gotW, gotA, gotM)
	}

	// Cohort's order: the machine recycle Resets the model under its
	// old identity, ResetTo re-stamps it, and the first windows report
	// no victim. The stream must still start from the re-stamped seed
	// at its first draw.
	want, wantMem = boundModel(t, ClassB(), 7)
	want.OnWindow(dram.Stats{})
	wantFlips, wantW, wantA, wantM = driveReports(wantMem, want)
	mem.Reset()
	m.Reset()
	if err := m.ResetTo(ClassB(), 7); err != nil {
		t.Fatal(err)
	}
	m.OnWindow(dram.Stats{})
	gotFlips, gotW, gotA, gotM = driveReports(mem, m)
	if len(wantFlips) == 0 {
		t.Fatal("no flips from the class-B reference run; the comparison would be vacuous")
	}
	if !reflect.DeepEqual(wantFlips, gotFlips) || wantW != gotW || wantA != gotA || wantM != gotM {
		t.Errorf("Reset, ResetTo and a victim-free window diverged from fresh NewModel(B, 7): fresh %d flips w=%d a=%d m=%d, recycled %d flips w=%d a=%d m=%d",
			len(wantFlips), wantW, wantA, wantM, len(gotFlips), gotW, gotA, gotM)
	}

	// A degenerate profile must be rejected and leave the model usable.
	if err := m.ResetTo(Profile{}, 1); err == nil {
		t.Fatal("ResetTo accepted a degenerate profile")
	}
	if m.Profile().Name != "B" {
		t.Fatalf("failed ResetTo clobbered the model's profile: %q", m.Profile().Name)
	}
}
