package bench

import (
	"reflect"
	"testing"

	"pthammer/internal/fault"
	"pthammer/internal/flip"
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
		{"overflowing backoff", Budget{MaxWindows: 100, AttemptWindows: 64, MaxBackoff: 40}, false},
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

// TestResilientUnrecoverableAborts pins the structured-abort contract:
// a perfect TRR mitigation can never flip, so the driver must walk its
// tiers and return a tiers-exhausted verdict within budget — no hang,
// no panic, no error.
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

// TestResilientBudgetCeiling: with flips landing but never exploitable
// (total misland), the driver must stop at the window ceiling exactly.
func TestResilientBudgetCeiling(t *testing.T) {
	fc := &fault.Config{Class: fault.FlipMisland, MislandRate: 1}
	budget := Budget{MaxWindows: 200, AttemptWindows: 64, MaxBackoff: 2, MaxRebuilds: 1, MaxReplans: 1}
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
