package bench

import (
	"testing"

	"pthammer/internal/evset"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/phys"
)

// escalationSeed is the fixed seed the acceptance tests (and the CI
// smoke run) use; the whole attack is deterministic per seed.
const escalationSeed = 1

// TestImplicitHammerStartsFromZeroPressure pins the fresh-window
// contract: construction traffic (aggressor discovery's
// demand-allocation loads and the eviction-set build probes) is
// scrubbed from the activation bookkeeping, so a freshly built hammer
// measures only its own activity.
func TestImplicitHammerStartsFromZeroPressure(t *testing.T) {
	m := machine.MustNew(hammerConfig())
	if _, ok := FindImplicitAggressors(m, 256); !ok {
		t.Fatal("no aggressor pair")
	}
	if s := m.HammerStats(); s.Activations != 0 || len(s.Victims) != 0 {
		t.Fatalf("pressure after FindImplicitAggressors: %+v, want zero", s)
	}

	m2 := machine.MustNew(hammerConfig())
	h, err := NewImplicitHammer(m2, 256, evset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := m2.HammerStats(); s.Activations != 0 || len(s.Victims) != 0 {
		t.Fatalf("pressure after NewImplicitHammer: %+v, want zero", s)
	}
	// The first iteration's pressure is then exactly the loop's own.
	h.HammerOnce(m2)
	if s := m2.HammerStats(); s.Activations == 0 {
		t.Fatal("hammer iteration recorded no activations")
	}
}

// TestPlanEscalationLayout checks the attacker's layout invariants for
// the top-ranked pair: it is double-sided over a victim row that holds
// sprayed leaf page tables, the jackpot surface is non-empty, and the
// eviction streams exclude every page mapped by a hammered-row table.
func TestPlanEscalationLayout(t *testing.T) {
	model := flip.MustNewModel(flip.ClassA(), escalationSeed)
	m := machine.MustNew(EscalationConfig(model))
	planner, err := NewEscalationPlanner(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Next()
	if err != nil {
		t.Fatal(err)
	}
	pair := plan.Pair
	if !pair.Loc1.SameBank(pair.Loc2) || pair.Loc2.Row-pair.Loc1.Row != 2 || pair.VictimRow != pair.Loc1.Row+1 {
		t.Fatalf("pair not double-sided same-bank: %+v / %+v", pair.Loc1, pair.Loc2)
	}
	if len(plan.VictimRegions) == 0 || plan.Sprayable == 0 {
		t.Fatalf("plan has no sprayable victim tables: regions=%d sprayable=%d",
			len(plan.VictimRegions), plan.Sprayable)
	}
	// Every sprayed page is mapped and excluded from stream candidacy.
	excluded := make(map[phys.Addr]bool, len(plan.Exclude))
	for _, a := range plan.Exclude {
		excluded[a] = true
	}
	for _, s := range plan.Spray {
		if f, ok := m.PageTables().Resolve(s); !ok || f != phys.FrameOf(s) {
			t.Fatalf("sprayed page %#x not identity-mapped", uint64(s))
		}
		if !excluded[s] {
			t.Fatalf("sprayed page %#x not in the stream exclusion set", uint64(s))
		}
	}
	// The thrash stream covers every sTLB set at full associativity.
	cfg := m.Config().TLB
	sets := uint64(cfg.L2Entries / cfg.L2Ways)
	perSet := make(map[uint64]int)
	for _, a := range plan.Thrash {
		perSet[(uint64(a)>>phys.FrameShift)%sets]++
	}
	for s := uint64(0); s < sets; s++ {
		if perSet[s] < cfg.L2Ways {
			t.Fatalf("thrash stream hits sTLB set %d only %d times, want ≥ %d", s, perSet[s], cfg.L2Ways)
		}
	}
}

// oneAttempt is the plain pte-flip escalation budget: a single driver
// attempt spanning the whole window budget, no backoff, no tiers.
func oneAttempt(windows uint64) Budget {
	return Budget{MaxWindows: windows, AttemptWindows: windows}
}

// TestEscalationEndToEnd is the PR's acceptance test: eviction-driven
// hammering with zero privileged operations produces a model-driven
// flip in a page-table frame, the attacker detects it by Translate
// divergence, and the driver rewrites a PTE through the corrupted
// mapping — ending with an attacker marker in a kernel frame.
func TestEscalationEndToEnd(t *testing.T) {
	model := flip.MustNewModel(flip.ClassA(), escalationSeed)
	cfg := EscalationConfig(model)
	m := machine.MustNew(cfg)
	// The top-ranked pair the single attempt hammers, planned on an
	// identical machine.
	planner, err := NewEscalationPlanner(machine.MustNew(EscalationConfig(flip.MustNewModel(flip.ClassA(), escalationSeed))))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Next()
	if err != nil {
		t.Fatal(err)
	}

	v, err := driveEscalation(m, oneAttempt(DefaultBudget().MaxWindows))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Success || v.Replans != 0 {
		t.Fatalf("single attempt did not escalate cleanly: %+v", v)
	}
	res := *v.Result
	if res.TotalFlips == 0 || res.FirstFlipIter == 0 {
		t.Fatalf("escalated without flips: %+v", res)
	}

	// Every flip landed in the planned victim row: the page-table row
	// sandwiched between the aggressor PTE rows. (Hammer side-traffic
	// pressures other rows too, but those are unwritten user frames —
	// holes — which the flip model cannot corrupt.)
	geom := m.Config().DRAM
	for _, f := range m.Flips() {
		loc := geom.Map(f.Addr)
		if !loc.SameBank(plan.Pair.Loc1) || loc.Row != plan.Pair.VictimRow {
			t.Fatalf("flip outside the victim row: %+v decodes to %+v", f, loc)
		}
	}

	// Detection was real divergence: the corrupted page no longer
	// translates to its identity frame but to the page-table frame.
	if got, _ := m.Translate(res.CorruptVA); got != res.TableFrame {
		t.Fatalf("corrupt VA translates to %#x, want table frame %#x", uint64(got), uint64(res.TableFrame))
	}
	if res.TableFrame == phys.FrameOf(res.CorruptVA) {
		t.Fatal("corrupt VA still identity-mapped")
	}
	// The table frame is inside the kernel's table pool.
	base, frames := m.PageTables().Region()
	if res.TableFrame < base || res.TableFrame >= base+phys.Frame(frames) {
		t.Fatalf("table frame %#x outside the kernel pool", uint64(res.TableFrame))
	}

	// The rewrite went through the corrupted mapping into the real
	// tables: the reference resolver agrees the attacker page now maps
	// the kernel frame, and the marker store landed there.
	if got, ok := m.PageTables().Resolve(res.RewrittenVA); !ok || got != res.SecretFrame {
		t.Fatalf("rewritten VA resolves %#x/%v, want secret frame %#x", uint64(got), ok, uint64(res.SecretFrame))
	}
	if got := m.Memory().Read64(res.SecretFrame.Addr()); got != escalationMarker {
		t.Fatalf("kernel frame holds %#x, want the attacker marker %#x", got, uint64(escalationMarker))
	}

	// The whole attack — construction, hammering, detection, exploit —
	// used no privileged operation.
	if f, inv := m.PrivilegedOps(); f != 0 || inv != 0 || v.PrivFlushes != 0 || v.PrivInvlpgs != 0 {
		t.Fatalf("privileged ops used: flushes=%d invlpg=%d", f, inv)
	}
}

// TestEscalationDeterministicPerSeed: the same (profile, seed) run
// twice produces an identical result — the property the CI smoke run
// and the committed tables rely on.
func TestEscalationDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) EscalationResult {
		v, err := RunEscalationResilient(flip.ClassA(), seed, nil, oneAttempt(DefaultBudget().MaxWindows))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Success {
			t.Fatalf("seed %d did not escalate: %+v", seed, v)
		}
		return *v.Result
	}
	a, b := run(escalationSeed), run(escalationSeed)
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	if c := run(escalationSeed + 1); a == c {
		t.Fatal("different seeds produced identical escalations")
	}
}

// TestRunFlipRateDeterministicAndOrdered: the fixed-budget flip-rate
// runs behind cmd/pthammer-flip are reproducible, and the module
// classes flip in vulnerability order.
func TestRunFlipRateDeterministicAndOrdered(t *testing.T) {
	const iters = 4000
	a1, err := RunFlipRate(flip.ClassA(), escalationSeed, iters)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := RunFlipRate(flip.ClassA(), escalationSeed, iters)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("flip-rate run diverged:\n%+v\nvs\n%+v", a1, a2)
	}
	if a1.Flips == 0 || a1.FirstFlipIter == 0 {
		t.Fatalf("class A produced no flips in %d iterations: %+v", iters, a1)
	}
	c, err := RunFlipRate(flip.ClassC(), escalationSeed, iters)
	if err != nil {
		t.Fatal(err)
	}
	if c.Flips > a1.Flips {
		t.Fatalf("class C (%d flips) out-flipped class A (%d)", c.Flips, a1.Flips)
	}
	if a1.FlipsPerMillionIters() <= 0 {
		t.Fatalf("rate = %v, want positive", a1.FlipsPerMillionIters())
	}
	if r := (FlipRun{}).FlipsPerMillionIters(); r != 0 {
		t.Fatalf("rate of an empty run = %v, want 0", r)
	}
}

// TestEscalationPlannerRanksPairs pins the contract the replan tier
// depends on: the demo machine exposes several viable aggressor pairs,
// ranked by sprayable-table count, on distinct victim rows, and the
// planner reports exhaustion with an error rather than repeating one.
func TestEscalationPlannerRanksPairs(t *testing.T) {
	model := flip.MustNewModel(flip.ClassA(), escalationSeed)
	m := machine.MustNew(EscalationConfig(model))
	planner, err := NewEscalationPlanner(m)
	if err != nil {
		t.Fatal(err)
	}
	if planner.Remaining() < 2 {
		t.Fatalf("only %d candidate pairs — the replan tier would be dead code", planner.Remaining())
	}
	rows := make(map[uint64]bool)
	lastSprayable := -1
	for planner.Remaining() > 0 {
		plan, err := planner.Next()
		if err != nil {
			t.Fatal(err)
		}
		row := plan.Pair.Loc1.Row + 1
		if rows[row] {
			t.Fatalf("victim row %d planned twice", row)
		}
		rows[row] = true
		if lastSprayable >= 0 && plan.Sprayable > lastSprayable {
			t.Fatalf("ranking not by sprayable count: %d after %d", plan.Sprayable, lastSprayable)
		}
		lastSprayable = plan.Sprayable
	}
	if _, err := planner.Next(); err == nil {
		t.Fatal("exhausted planner handed out another plan")
	}
}
