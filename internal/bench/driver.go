// The budgeted escalation driver: the state machine that turns the
// single-shot escalation pipeline into an attack that can fail,
// diagnose, and retry. Real PThammer runs lose eviction sets to noise,
// lose flips to in-DRAM mitigations, and lose aggressor pairs to OS
// activity; the driver answers each with a tier — keep hammering with
// exponential backoff while flips still land, re-verify and rebuild
// the eviction sets when they stop, replan onto the next-ranked
// aggressor pair when rebuilding does not help — and accounts every
// move against one window budget. It always terminates: either the
// exploit lands within budget or the caller gets a structured Verdict
// saying how far the attack got, what it spent, and why it stopped.
package bench

import (
	"fmt"

	"pthammer/internal/evset"
	"pthammer/internal/fault"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/timing"
)

// Phase is how far the escalation state machine got.
type Phase string

// The driver phases, in the order an ideal run passes through them.
const (
	PhasePlan    Phase = "plan"
	PhaseBuild   Phase = "build"
	PhaseHammer  Phase = "hammer"
	PhaseRebuild Phase = "rebuild"
	PhaseReplan  Phase = "replan"
	PhaseExploit Phase = "exploit"
)

// Reason explains a failed Verdict. Empty on success.
type Reason string

// The abort reasons a Verdict can carry.
const (
	// ReasonPlanFailed: no sprayable aggressor pair exists on this
	// machine at all.
	ReasonPlanFailed Reason = "plan-failed"
	// ReasonBuildFailed: eviction-set construction for the first pair
	// failed before any hammering happened.
	ReasonBuildFailed Reason = "build-failed"
	// ReasonBudgetExhausted: flips kept landing but none was exploitable
	// before the window budget ran out.
	ReasonBudgetExhausted Reason = "budget-exhausted"
	// ReasonTiersExhausted: hammering stopped producing flips and every
	// escalation tier (rebuilds, replans) was spent without restoring
	// progress.
	ReasonTiersExhausted Reason = "tiers-exhausted"
)

// The escalation tiers' bounds. Each no-exploit attempt with progress
// doubles the attempt length (exponential backoff) up to
// AttemptWindows << maxBackoff. maxRebuilds bounds tier 1: re-verify +
// rebuild the eviction sets for the current pair. maxReplans bounds
// tier 2: lay out the next-ranked aggressor pair and rebuild for it.
const (
	maxBackoff  = 4
	maxRebuilds = 2
	maxReplans  = 3
)

// Budget bounds one resilient escalation run in refresh windows; the
// driver never exceeds MaxWindows total.
type Budget struct {
	// MaxWindows is the hard ceiling on refresh windows spent across
	// all attempts, measured on the simulated clock (hammering,
	// detection scans, verification and rebuild traffic all count).
	MaxWindows uint64
	// AttemptWindows is the length of the first hammer attempt.
	AttemptWindows uint64
}

// DefaultBudget is sized from the demo machine's measured behaviour:
// fault-free escalation across seeds 1–10 needs 8–1600 windows, so
// 4000 covers the slowest seed with one recoverable fault class's
// worth of slack, while the backoff ladder (64·2⁰‥2⁴) keeps early
// aborts cheap when nothing lands at all.
func DefaultBudget() Budget {
	return Budget{MaxWindows: 4000, AttemptWindows: 64}
}

// Validate reports an error for a degenerate budget.
func (b Budget) Validate() error {
	switch {
	case b.AttemptWindows == 0:
		return fmt.Errorf("bench: budget needs a positive attempt length")
	case b.MaxWindows < b.AttemptWindows:
		return fmt.Errorf("bench: window budget %d smaller than one attempt (%d)", b.MaxWindows, b.AttemptWindows)
	}
	return nil
}

// Verdict is the structured outcome of one resilient escalation run —
// success or not, it always says how far the attack got and what it
// spent. Attack-path failures are Verdicts, not errors: a Verdict with
// Success false is the driver working as designed.
type Verdict struct {
	Success bool
	// Phase is the furthest phase reached; Reason is empty on success.
	Phase  Phase
	Reason Reason
	// Windows is the total refresh windows consumed on the simulated
	// clock (never exceeds the budget's MaxWindows); Iterations counts
	// hammer iterations across all attempts.
	Windows    uint64
	Iterations uint64
	// Flips is every disturbance error the model recorded during the
	// driven phase, exploitable or not.
	Flips int
	// Rebuilds and Replans count the escalation tiers actually taken.
	Rebuilds uint
	Replans  uint
	// Faults is the fault model's injected-fault accounting (zero when
	// the run was fault-free).
	Faults fault.Stats
	// PrivFlushes/PrivInvlpgs re-assert the paper's contract: both stay
	// zero through every tier.
	PrivFlushes uint64
	PrivInvlpgs uint64
	// Result is the completed escalation on success, nil otherwise.
	Result *EscalationResult
}

// RunEscalationResilient builds the demo machine for (profile, seed) —
// wiring in a fault model for fcfg when non-nil, stamped with the same
// seed — and drives the budgeted escalation state machine to a Verdict.
// The machine lives for this call alone. The error return is for misuse
// only (invalid budget, profile or fault config, a window budget whose
// cycle horizon overflows, or machine construction); every attack-path
// failure comes back as a structured Verdict. Deterministic per
// (profile, seed, fcfg, budget).
func RunEscalationResilient(profile flip.Profile, seed int64, fcfg *fault.Config, budget Budget) (Verdict, error) {
	if err := budget.Validate(); err != nil {
		return Verdict{}, err
	}
	model, err := flip.NewModel(profile, seed)
	if err != nil {
		return Verdict{}, err
	}
	cfg := EscalationConfig(model)
	if fcfg != nil {
		fc := *fcfg
		fc.Seed = seed
		if cfg.FaultModel, err = fault.NewModel(fc); err != nil {
			return Verdict{}, err
		}
	}
	m, err := machine.New(cfg)
	if err != nil {
		return Verdict{}, err
	}
	return driveEscalation(m, budget)
}

// driveEscalation is the state machine proper, on an already-built
// machine; tests drive hand-configured machines through it. A budget
// with AttemptWindows == MaxWindows is one attempt that runs to the
// window ceiling, so it never backs off or reaches a tier: the plain
// pte-flip escalation.
//
// Detection is attacker-side and incremental. The attacker schedules
// one rescan of the sprayed translations per refresh window from the
// clock and the known tREFW, never from an oracle, so the reported
// cycles include every scan it pays for; a window in which the model
// recorded no new flip cannot have changed a translation, so its
// rescan is skipped. Nothing in the loop is privileged.
func driveEscalation(m *machine.Machine, budget Budget) (Verdict, error) {
	model := m.FlipModel()
	if model == nil {
		return Verdict{}, fmt.Errorf("bench: resilient escalation needs a machine with a flip model")
	}
	v := Verdict{Phase: PhasePlan}
	finish := func() Verdict {
		if fm := m.FaultModel(); fm != nil {
			v.Faults = fm.Stats()
		}
		v.PrivFlushes, v.PrivInvlpgs = m.PrivilegedOps()
		return v
	}

	planner, err := NewEscalationPlanner(m)
	if err != nil {
		v.Reason = ReasonPlanFailed
		return finish(), nil
	}
	plan, err := planner.Next()
	if err != nil {
		v.Reason = ReasonPlanFailed
		return finish(), nil
	}
	v.Phase = PhaseBuild
	h, err := NewImplicitHammerForPair(m, plan.Pair, plan.Exclude, evset.Options{})
	if err != nil {
		v.Reason = ReasonBuildFailed
		return finish(), nil
	}
	// Eviction-set construction demand-allocated more page tables; a
	// flip landing on any of them is just as exploitable.
	plan.ptOf = leafPTs(m)

	window := m.Config().DRAM.RefreshWindow
	start := m.Clock().Now()
	// Attempt deadlines are relative to the live clock, so each
	// attempt's fractional-window overshoot would otherwise accumulate
	// across attempts; ending the last attempt at this absolute ceiling
	// keeps spent() ≤ MaxWindows (one hammer iteration is far shorter
	// than a window, so the final overshoot floors away).
	ceiling, err := timing.Horizon(start, budget.MaxWindows, window)
	if err != nil {
		return Verdict{}, err
	}
	flips0 := len(model.Flips())
	scannedFlips := flips0
	rescan := false
	rejected := make(map[rejection]bool)
	var backoff uint
	var res EscalationResult

	spent := func() uint64 { return uint64((m.Clock().Now() - start) / window) }

	v.Phase = PhaseHammer
	for spent() < budget.MaxWindows {
		// An attempt shorter than the windows left ends inside the
		// ceiling; any other runs to it.
		deadline := ceiling
		if attempt := budget.AttemptWindows << backoff; attempt < budget.MaxWindows-spent() {
			deadline = m.Clock().Now() + window*timing.Cycles(attempt)
		}
		attemptFlips := len(model.Flips())
		nextScan := m.Clock().Now() + window
		for m.Clock().Now() < deadline {
			h.HammerOnce(m)
			v.Iterations++
			if res.FirstFlipIter == 0 && len(model.Flips()) > flips0 {
				res.FirstFlipIter = v.Iterations
				res.FirstFlipCycles = m.Clock().Now() - start
			}
			if m.Clock().Now() < nextScan {
				continue
			}
			for nextScan <= m.Clock().Now() {
				nextScan += window
			}
			// Incremental detection: only windows that produced new
			// flips (or follow a rejected exploit) are worth the rescan
			// traffic.
			if len(model.Flips()) == scannedFlips && !rescan {
				continue
			}
			scannedFlips = len(model.Flips())
			rescan = false
			va, table, ok := plan.scan(m, rejected)
			if !ok {
				continue
			}
			v.Phase = PhaseExploit
			if err := plan.exploit(m, va, table, &res); err != nil {
				rejected[rejection{va, table}] = true
				rescan = true
				v.Phase = PhaseHammer
				continue
			}
			v.Success = true
			v.Windows = spent()
			v.Flips = len(model.Flips()) - flips0
			res.Iterations = v.Iterations
			res.Windows = v.Windows
			res.Cycles = m.Clock().Now() - start
			res.TotalFlips = v.Flips
			v.Result = &res
			return finish(), nil
		}
		if len(model.Flips()) > attemptFlips {
			// Progress: flips are landing, just not exploitably yet.
			// Back off — longer attempts amortize scan traffic and give
			// the jackpot surface more draws before the next escalation
			// decision.
			if backoff < maxBackoff {
				backoff++
			}
			continue
		}
		// Tier traffic (verification probes, eviction-set rebuilds,
		// respraying a new pair) costs tens of windows; entering a tier
		// without room for it plus one attempt would blow the ceiling,
		// so a too-depleted budget aborts here instead.
		if budget.MaxWindows-spent() < 2*budget.AttemptWindows {
			break
		}
		// No flip landed in the whole attempt. Tier 1: if the eviction
		// sets no longer evict (decayed members, drifted thresholds),
		// rebuild them for the same pair.
		if v.Rebuilds < maxRebuilds && !h.Verify(m) {
			v.Phase = PhaseRebuild
			v.Rebuilds++
			if h2, err := NewImplicitHammerForPair(m, plan.Pair, plan.Exclude, evset.Options{}); err == nil {
				h = h2
				plan.ptOf = leafPTs(m)
				backoff = 0
				v.Phase = PhaseHammer
				continue
			}
			// Rebuild construction failed outright: fall through to
			// replanning onto a different pair.
		}
		// Tier 2: the sets are fine (or unrebuildable) yet nothing
		// flips — the pair itself is dead (invalidated, mitigated, or
		// just barren). Move to the next-ranked pair; a failed build
		// consumes the replan and tries the one after.
		replanned := false
		for v.Replans < maxReplans {
			v.Phase = PhaseReplan
			v.Replans++
			p2, err := planner.Next()
			if err != nil {
				break
			}
			h2, err := NewImplicitHammerForPair(m, p2.Pair, p2.Exclude, evset.Options{})
			if err != nil {
				continue
			}
			plan, h = p2, h2
			plan.ptOf = leafPTs(m)
			backoff = 0
			scannedFlips = len(model.Flips())
			// An earlier flip may already sit in the new pair's sprayed
			// tables; force one scan of the fresh surface.
			rescan = true
			replanned = true
			v.Phase = PhaseHammer
			break
		}
		if !replanned {
			v.Reason = ReasonTiersExhausted
			v.Windows = spent()
			v.Flips = len(model.Flips()) - flips0
			return finish(), nil
		}
	}
	v.Reason = ReasonBudgetExhausted
	v.Windows = spent()
	v.Flips = len(model.Flips()) - flips0
	return finish(), nil
}
