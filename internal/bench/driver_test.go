package bench

import (
	"reflect"
	"testing"

	"pthammer/internal/fault"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
)

func TestBudgetValidate(t *testing.T) {
	cases := []struct {
		name string
		b    Budget
		ok   bool
	}{
		{"default", DefaultBudget(), true},
		{"zero attempt", Budget{MaxWindows: 100}, false},
		{"budget below one attempt", Budget{MaxWindows: 10, AttemptWindows: 64}, false},
		{"tight but legal", Budget{MaxWindows: 64, AttemptWindows: 64}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.b.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate(%+v) = %v, want nil", tc.b, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate(%+v) succeeded, want error", tc.b)
			}
		})
	}
}

func TestResilientMisuseErrors(t *testing.T) {
	if _, err := RunEscalationResilient(flip.ClassA(), 1, nil, Budget{}); err == nil {
		t.Fatal("degenerate budget accepted")
	}
	if _, err := RunEscalationResilient(flip.Profile{}, 1, nil, DefaultBudget()); err == nil {
		t.Fatal("degenerate profile accepted")
	}
	bad := &fault.Config{Class: "cosmic-ray"}
	if _, err := RunEscalationResilient(flip.ClassA(), 1, bad, DefaultBudget()); err == nil {
		t.Fatal("unknown fault class accepted")
	}
	if _, err := driveEscalation(machine.MustNew(machine.SandyBridge()), DefaultBudget()); err == nil {
		t.Fatal("machine without a flip model accepted")
	}
	// 2^60 windows of 350,000 cycles wrap the driver's ceiling to its
	// start cycle: unchecked, that was budget-exhausted after 0 windows.
	wrap := DefaultBudget()
	wrap.MaxWindows = 1 << 60
	if v, err := RunEscalationResilient(flip.ClassA(), 1, nil, wrap); err == nil {
		t.Fatalf("wrapping window budget accepted: %+v", v)
	}
}

// TestResilientFaultFreeSucceeds pins the golden path through the
// driver: same machine as the single-shot demo, so the run must
// escalate, carry a complete Result, and never touch a privileged op.
func TestResilientFaultFreeSucceeds(t *testing.T) {
	v, err := RunEscalationResilient(flip.ClassA(), escalationSeed, nil, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Success {
		t.Fatalf("fault-free run failed: %+v", v)
	}
	if v.Phase != PhaseExploit || v.Reason != "" {
		t.Fatalf("success verdict phase/reason = %s/%s", v.Phase, v.Reason)
	}
	if v.Result == nil || v.Result.SecretFrame == 0 || v.Result.CorruptVA == 0 {
		t.Fatalf("success verdict missing escalation result: %+v", v.Result)
	}
	if v.Windows > DefaultBudget().MaxWindows {
		t.Fatalf("windows %d exceed budget %d", v.Windows, DefaultBudget().MaxWindows)
	}
	if v.Result.Windows != v.Windows || v.Result.Iterations != v.Iterations {
		t.Fatalf("result accounting diverges from verdict: %+v vs %+v", v.Result, v)
	}
	if v.Flips == 0 || v.Iterations == 0 {
		t.Fatalf("success without work: %+v", v)
	}
	if v.PrivFlushes != 0 || v.PrivInvlpgs != 0 {
		t.Fatalf("privileged ops moved: %d flushes, %d invlpgs", v.PrivFlushes, v.PrivInvlpgs)
	}
	if v.Faults != (fault.Stats{}) {
		t.Fatalf("fault-free run reports faults: %+v", v.Faults)
	}
}

// TestResilientPairInvalidateReplans is the marquee recovery: the OS
// migrates the attacked table mid-run, the armed row stops flipping,
// and the driver recovers by replanning onto the next-ranked pair —
// still without one privileged operation.
func TestResilientPairInvalidateReplans(t *testing.T) {
	fc := &fault.Config{Class: fault.PairInvalidate}
	v, err := RunEscalationResilient(flip.ClassA(), 2, fc, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Success {
		t.Fatalf("pair-invalidate run did not recover: %+v", v)
	}
	if v.Faults.PairsInvalidated != 1 || v.Faults.AttemptsSuppressed == 0 {
		t.Fatalf("fault did not fire: %+v", v.Faults)
	}
	if v.Replans == 0 {
		t.Fatalf("recovered without replanning: %+v", v)
	}
	if v.PrivFlushes != 0 || v.PrivInvlpgs != 0 {
		t.Fatalf("privileged ops moved: %d flushes, %d invlpgs", v.PrivFlushes, v.PrivInvlpgs)
	}
}

// TestResilientRejectsUnexploitableCandidate reaches the exploit
// rejection path. At seed 14 under pair-invalidate, the first detected
// candidate maps onto table 0x3ff7e, a fully sprayed victim table with
// no free slot, so exploit fails; the driver must reject that
// (page, table), keep hammering, and escalate through a later
// candidate. The pins are the trajectory of that recovery: aborting on
// the failed exploit, or never recording the rejection, ends elsewhere.
func TestResilientRejectsUnexploitableCandidate(t *testing.T) {
	fc := &fault.Config{Class: fault.PairInvalidate}
	v, err := RunEscalationResilient(flip.ClassA(), 14, fc, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Success || v.Result == nil {
		t.Fatalf("run did not escalate past the rejected candidate: %+v", v)
	}
	if v.Replans != 1 || v.Windows != 794 || v.Iterations != 37752 || v.Flips != 601 {
		t.Fatalf("verdict %d replans, %d windows, %d iterations, %d flips; want 1, 794, 37752, 601",
			v.Replans, v.Windows, v.Iterations, v.Flips)
	}
	if v.Result.CorruptVA != 0x2ff01000 || v.Result.TableFrame != 0x3ff01 {
		t.Fatalf("escalated through %#x -> table %#x, want 0x2ff01000 -> 0x3ff01",
			uint64(v.Result.CorruptVA), uint64(v.Result.TableFrame))
	}
}

// TestResilientUnrecoverableAborts pins the structured-abort contract:
// a perfect TRR mitigation can never flip, so the driver must spend
// every replan and return a tiers-exhausted verdict within budget — no
// hang, no panic, no error.
func TestResilientUnrecoverableAborts(t *testing.T) {
	fc := &fault.Config{Class: fault.TRRSuppress, SuppressRate: 1}
	v, err := RunEscalationResilient(flip.ClassA(), escalationSeed, fc, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if v.Success {
		t.Fatal("escalation succeeded under a perfect TRR sampler")
	}
	if v.Reason != ReasonTiersExhausted {
		t.Fatalf("abort reason = %q, want %q", v.Reason, ReasonTiersExhausted)
	}
	if v.Replans != maxReplans {
		t.Fatalf("replans taken: %d; want every replan (%d) — the pairs are dead", v.Replans, maxReplans)
	}
	if v.Windows > DefaultBudget().MaxWindows {
		t.Fatalf("abort spent %d windows, budget %d", v.Windows, DefaultBudget().MaxWindows)
	}
	if v.Faults.AttemptsSuppressed == 0 {
		t.Fatal("no suppressed attempt recorded — the fault never fired")
	}
	if v.Result != nil {
		t.Fatalf("failed verdict carries a result: %+v", v.Result)
	}
	if v.Flips != 0 {
		t.Fatalf("flips recorded under total suppression: %d", v.Flips)
	}
}

// TestResilientDepletedBudgetSkipsTiers: when a flipless attempt
// leaves less than two attempts' worth of windows, a tier's traffic
// could blow the ceiling, so the driver aborts budget-exhausted without
// entering one.
func TestResilientDepletedBudgetSkipsTiers(t *testing.T) {
	fc := &fault.Config{Class: fault.TRRSuppress, SuppressRate: 1}
	budget := Budget{MaxWindows: 100, AttemptWindows: 64}
	v, err := RunEscalationResilient(flip.ClassA(), escalationSeed, fc, budget)
	if err != nil {
		t.Fatal(err)
	}
	if v.Success || v.Reason != ReasonBudgetExhausted || v.Replans != 0 {
		t.Fatalf("verdict %+v, want budget-exhausted with no tier taken", v)
	}
	if v.Windows < budget.AttemptWindows || v.Windows > budget.MaxWindows {
		t.Fatalf("spent %d windows, want one full attempt (%d) within the ceiling (%d)", v.Windows, budget.AttemptWindows, budget.MaxWindows)
	}
}

// TestResilientBudgetCeiling: with flips landing but never exploitable
// (total misland), the driver must stop at the window ceiling exactly.
func TestResilientBudgetCeiling(t *testing.T) {
	fc := &fault.Config{Class: fault.FlipMisland, MislandRate: 1}
	budget := Budget{MaxWindows: 200, AttemptWindows: 64}
	v, err := RunEscalationResilient(flip.ClassA(), escalationSeed, fc, budget)
	if err != nil {
		t.Fatal(err)
	}
	if v.Success {
		t.Fatal("escalation succeeded under total misland")
	}
	if v.Windows > budget.MaxWindows {
		t.Fatalf("spent %d windows, ceiling %d", v.Windows, budget.MaxWindows)
	}
	if v.Reason != ReasonBudgetExhausted && v.Reason != ReasonTiersExhausted {
		t.Fatalf("unexpected abort reason %q", v.Reason)
	}
	if v.Faults.FlipsRedirected == 0 {
		t.Fatal("no redirected flip recorded — the fault never fired")
	}
}

// TestResilientDeterministicPerSeed: the verdict — every counter
// included — is a pure function of (profile, seed, fault config,
// budget).
func TestResilientDeterministicPerSeed(t *testing.T) {
	fc := &fault.Config{Class: fault.TRRSuppress}
	run := func() Verdict {
		v, err := RunEscalationResilient(flip.ClassA(), 4, fc, DefaultBudget())
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestDriverRecordsFirstFlip: a successful Verdict's Result locates the
// run's first flip — a 1-based hammer iteration and a cycle offset
// inside the driven phase — under the default budget, fault-free and
// through a replan.
func TestDriverRecordsFirstFlip(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		fc   *fault.Config
	}{
		{"fault-free-seed1", 1, nil},
		{"fault-free-seed2", 2, nil},
		{"fault-free-seed3", 3, nil},
		{"fault-free-seed4", 4, nil},
		{"pair-invalidate-seed2", 2, &fault.Config{Class: fault.PairInvalidate}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := RunEscalationResilient(flip.ClassA(), tc.seed, tc.fc, DefaultBudget())
			if err != nil {
				t.Fatal(err)
			}
			if !v.Success {
				t.Fatalf("run did not escalate: %+v", v)
			}
			r := v.Result
			if r.FirstFlipIter == 0 || r.FirstFlipIter > r.Iterations {
				t.Fatalf("first flip at iteration %d, want in [1, %d]", r.FirstFlipIter, r.Iterations)
			}
			if r.FirstFlipCycles > r.Cycles {
				t.Fatalf("first flip at cycle %d, after the run's %d cycles", r.FirstFlipCycles, r.Cycles)
			}
		})
	}
}
