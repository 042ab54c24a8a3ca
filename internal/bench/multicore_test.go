package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pthammer/internal/phys"
)

// TestColocatedAmplify: one attacker core stays below the flip
// threshold, two co-located cores hammering the same pair cross it.
func TestColocatedAmplify(t *testing.T) {
	res, err := RunColocatedAmplify(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.SoloPressure >= amplifyThreshold {
		t.Fatalf("solo pressure %d at or above threshold %d", res.SoloPressure, uint64(amplifyThreshold))
	}
	if res.DuoPressure <= amplifyThreshold {
		t.Fatalf("duo pressure %d at or below threshold %d", res.DuoPressure, uint64(amplifyThreshold))
	}
	if res.SoloFlips != 0 {
		t.Fatalf("solo attacker flipped %d bits below threshold", res.SoloFlips)
	}
	if res.DuoFlips == 0 {
		t.Fatalf("co-located attackers crossed the threshold (pressure %d) but flipped nothing", res.DuoPressure)
	}
	// Two cores on one pair do strictly more iterations than one, but
	// contention (LLC + bank arbitration, back-invalidations) keeps
	// them under twice the solo count.
	if res.DuoIters <= res.SoloIters || res.DuoIters >= 2*res.SoloIters {
		t.Fatalf("duo iterations %d outside (%d, %d): contention not charged?",
			res.DuoIters, res.SoloIters, 2*res.SoloIters)
	}
}

// TestColocatedAmplifySevenWindows pins both arms at seed 4 and 7
// windows, a flag set no golden covers: pthammer-mt -scenario amplify
// -windows 7. Every core samples pressure through its own port, so
// core 1's reads rotate windows on core 1's clock; a duo arm that
// samples both cores through core 0's port reads DuoFlips 19.
func TestColocatedAmplifySevenWindows(t *testing.T) {
	got, err := RunColocatedAmplify(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := ColocatedAmplifyResult{
		SoloPressure: 100, DuoPressure: 198,
		SoloFlips: 0, DuoFlips: 18,
		SoloIters: 349, DuoIters: 693,
	}
	if got != want {
		t.Fatalf("RunColocatedAmplify(4, 7) = %+v, want %+v", got, want)
	}
}

// TestNoisyNeighbour: the bystander tenant's DRAM churn inflates the
// attacker's iterations enough to push pressure below the threshold
// the quiet arm crosses.
func TestNoisyNeighbour(t *testing.T) {
	res, err := RunNoisyNeighbour(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.QuietPressure <= noisyThreshold || res.NoisyPressure >= noisyThreshold {
		t.Fatalf("threshold %d does not separate quiet %d from noisy %d",
			uint64(noisyThreshold), res.QuietPressure, res.NoisyPressure)
	}
	if res.QuietFlips == 0 {
		t.Fatalf("quiet arm crossed the threshold (pressure %d) but flipped nothing", res.QuietPressure)
	}
	if res.NoisyFlips != 0 {
		t.Fatalf("noisy arm flipped %d bits below threshold", res.NoisyFlips)
	}
	if res.NoisyIters >= res.QuietIters {
		t.Fatalf("bystander cost the attacker nothing: %d iterations noisy vs %d quiet",
			res.NoisyIters, res.QuietIters)
	}
	if res.BystanderLoads == 0 {
		t.Fatal("bystander did not run")
	}
}

// TestCrossTenantEscalation: the full isolation breach on striped
// table pools — attacker-owned rows sandwich the victim tenant's
// tables, a flip remaps a sprayed victim page onto an attacker frame,
// and the attacker's marker is readable through the victim's own
// translation.
func TestCrossTenantEscalation(t *testing.T) {
	res, err := RunCrossTenantEscalation(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Breached {
		t.Fatalf("no breach: %+v", res)
	}
	// The geometry the attack depends on: the victim's table row sits
	// exactly between the attacker's two hammered rows.
	if res.AttackerRows[0]+1 != res.VictimRow || res.AttackerRows[1] != res.VictimRow+1 {
		t.Fatalf("victim row %d not sandwiched by attacker rows %v", res.VictimRow, res.AttackerRows)
	}
	// The hijacked translation crossed the tenant boundary: a sprayed
	// victim page now resolves into the attacker's low region.
	if res.DivergedVA < xtVictimSprayBase {
		t.Fatalf("diverged VA %#x not a sprayed victim page", uint64(res.DivergedVA))
	}
	limit := phys.Addr(uint64(xtAttackerRegions) * (2 << 20))
	if res.HijackedFrame.Addr() >= limit {
		t.Fatalf("hijacked frame %#x outside the attacker's region", uint64(res.HijackedFrame.Addr()))
	}
	if res.HijackedFrame == phys.FrameOf(res.DivergedVA) {
		t.Fatal("diverged VA still resolves to its identity frame")
	}
	if res.Flips == 0 || res.Windows == 0 || res.Iterations == 0 {
		t.Fatalf("implausible run accounting: %+v", res)
	}
}

// TestMTRejectsWrappingWindows: every mt runner converts its window
// count through timing.Horizon, so a count whose cycle budget wraps is
// an error naming it, never a result. Unchecked, 2^60 windows of
// 350,000 cycles came out as 0 cycles: amplify and noisy returned arms
// that never hammered, and cross-tenant reported no flip within the
// budget.
func TestMTRejectsWrappingWindows(t *testing.T) {
	const windows = 1 << 60
	want := fmt.Sprintf("%d windows of 350000 cycles overflow", windows)
	_, amplifyErr := RunColocatedAmplify(4, windows)
	_, noisyErr := RunNoisyNeighbour(4, windows)
	_, xtErr := RunCrossTenantEscalation(1, windows)
	for name, err := range map[string]error{"amplify": amplifyErr, "noisy": noisyErr, "cross-tenant": xtErr} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
}

// TestMultiScenariosDeterministic: a full scenario run — machine
// construction, interleaved hammering, flip bookkeeping — produces a
// bit-identical result for any GOMAXPROCS value.
func TestMultiScenariosDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := RunColocatedAmplify(4, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%+v", res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("GOMAXPROCS=%d result diverged:\n got %s\nwant %s", procs, got, want)
		}
	}
}
