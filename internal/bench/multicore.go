// Multi-tenant scenarios: the three attacks the single-core machine
// cannot express, each driven through machine.MultiMachine's
// deterministic interleaver so every run is bit-identical for any
// GOMAXPROCS value.
//
//   - co-located amplification: two attacker cores in one tenant
//     hammer the same aggressor pair, roughly doubling the victim
//     row's per-window activation pressure — enough to cross a
//     threshold neither core can reach alone.
//   - noisy neighbour: a bystander tenant streaming over the shared
//     LLC evicts the attacker's eviction-set lines, inflating every
//     hammer iteration until per-window pressure falls below the
//     threshold — co-tenancy as an accidental defence.
//   - cross-tenant escalation: tenant page-table pools are striped
//     across adjacent DRAM rows, so an attacker double-sided-hammering
//     its *own* leaf-PTE rows pressures the victim tenant's tables
//     sandwiched between them; a flip in a sprayed victim PTE remaps a
//     victim page onto an attacker-owned frame, and the marker the
//     attacker plants there is readable through the victim's own
//     translation — the isolation breach PAPER.md §II's threat model
//     is about.
package bench

import (
	"fmt"

	"pthammer/internal/evset"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/pagetable"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// Thresholds separating the mt scenarios' outcomes, calibrated on the
// EscalationConfig-scale machine (350 k-cycle refresh window) the way
// EscalationConfig's own threshold was: between the measured per-window
// victim pressures of the two arms of each scenario, so the weaker arm
// can never flip and the stronger arm always can.
const (
	// A solo attacker sustains ~90 activations per window on the demo
	// machine; two co-located attackers on the same pair reach ~180.
	amplifyThreshold = 130
	// Behind a streaming neighbour the attacker's iterations inflate —
	// every bystander DRAM access closes the attacker's open rows and
	// steals the bank's last-accessor slot, so row hits become row
	// conflicts plus arbitration — and peak pressure drops from ~100 to
	// ~82 per window.
	noisyThreshold = 90
	// The cross-tenant attacker pays victim-scan interference too, so
	// its sustainable pressure sits between the noisy and quiet cases.
	crossTenantThreshold = 64
)

// newMTMachine builds an mt scenario's machine and its class-A flip
// model for seed: EscalationConfig (so one refresh window holds tens of
// hammer iterations, not tens of thousands) at the scenario's hammer
// threshold.
func newMTMachine(seed int64, threshold uint64, cores int, tenants []int) (*machine.MultiMachine, *flip.Model, error) {
	model, err := flip.NewModel(flip.ClassA(), seed)
	if err != nil {
		return nil, nil, err
	}
	cfg := EscalationConfig(model)
	cfg.DRAM.HammerThreshold = threshold
	mm, err := machine.NewMulti(machine.MultiConfig{Config: cfg, Cores: cores, Tenants: tenants})
	return mm, model, err
}

// pairPressure reads the current window's combined activation count of
// the pair's two aggressor rows — the victim row's disturbance
// pressure, sampled live.
func pairPressure(m *machine.Machine, pair ImplicitPair) uint64 {
	return m.DRAM().Activations(pair.Loc1) + m.DRAM().Activations(pair.Loc2)
}

// ColocatedAmplifyResult compares one attacker against two co-located
// attackers hammering the same aggressor pair.
type ColocatedAmplifyResult struct {
	// SoloPressure/DuoPressure are the highest victim-row pressures any
	// refresh window reached in each arm.
	SoloPressure uint64
	DuoPressure  uint64
	// SoloFlips/DuoFlips count disturbance errors: the threshold sits
	// between the arms' pressures, so solo must stay at zero.
	SoloFlips int
	DuoFlips  int
	// SoloIters/DuoIters count completed hammer iterations (both cores
	// combined in the duo arm).
	SoloIters uint64
	DuoIters  uint64
}

// amplifyArm builds a cores-wide machine, points every core's implicit
// hammer at the same aggressor pair, and hammers for windows refresh
// windows. It returns the peak per-window pressure, flip count and
// total iterations.
func amplifyArm(seed int64, cores, windows int) (pressure uint64, flips int, iters uint64, err error) {
	mm, model, err := newMTMachine(seed, amplifyThreshold, cores, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	pair, ok := FindImplicitAggressors(mm.Core(0), 256)
	if !ok {
		return 0, 0, 0, fmt.Errorf("bench: no implicit aggressor pair on the amplify machine")
	}
	hammers := make([]*ImplicitHammer, cores)
	for i := range hammers {
		if hammers[i], err = NewImplicitHammerForPair(mm.Core(i), pair, nil, evset.Options{}); err != nil {
			return 0, 0, 0, err
		}
	}
	mm.AlignClocks()

	var itersN uint64
	var peak uint64
	budget := timing.Cycles(windows) * mm.Config().DRAM.RefreshWindow
	mm.Run(func(i int, m *machine.Machine, yield func()) {
		start := m.Clock().Now()
		for m.Clock().Now()-start < budget {
			hammers[i].HammerOnce(m)
			itersN++
			if p := pairPressure(m, pair); p > peak {
				peak = p
			}
			yield()
		}
	})
	return peak, len(model.Flips()), itersN, nil
}

// RunColocatedAmplify runs both arms of the co-location experiment —
// one attacker core, then two attacker cores sharing the pair — on
// fresh machines with the same seed. Deterministic per seed.
func RunColocatedAmplify(seed int64, windows int) (ColocatedAmplifyResult, error) {
	var res ColocatedAmplifyResult
	var err error
	if res.SoloPressure, res.SoloFlips, res.SoloIters, err = amplifyArm(seed, 1, windows); err != nil {
		return res, err
	}
	if res.DuoPressure, res.DuoFlips, res.DuoIters, err = amplifyArm(seed, 2, windows); err != nil {
		return res, err
	}
	return res, nil
}

// NoisyNeighbourResult compares an attacker next to an idle core
// against the same attacker next to a memory-streaming bystander
// tenant.
type NoisyNeighbourResult struct {
	// QuietPressure/NoisyPressure are the peak per-window victim-row
	// pressures of each arm; the bystander's LLC churn drives the noisy
	// arm's down.
	QuietPressure uint64
	NoisyPressure uint64
	// Flip counts per arm: the threshold sits between the pressures,
	// so only the quiet arm flips.
	QuietFlips int
	NoisyFlips int
	// QuietIters/NoisyIters count the attacker's completed iterations;
	// BystanderLoads the noisy arm's background loads.
	QuietIters     uint64
	NoisyIters     uint64
	BystanderLoads uint64
}

// bystanderBase is where the noisy neighbour streams: its own address
// space, far from the attacker's working set. The bystander walks
// Ways+1 addresses one LLC way-span apart — an LLC-set-aliasing ring —
// so under LRU every load misses the whole cache hierarchy and goes to
// DRAM. That is what actually hurts a DRAM-bound attacker: each
// bystander access closes the open row of its bank and flips the
// bank's last-accessor, so the attacker's next access there pays a row
// conflict plus bank arbitration instead of a row hit.
const bystanderBase = phys.Addr(256 << 20)

// noisyArm runs the attacker for the given number of refresh windows
// next to a bystander that is either streaming (noisy) or idle.
func noisyArm(seed int64, noisy bool, windows int) (pressure uint64, flips int, iters, loads uint64, err error) {
	mm, model, err := newMTMachine(seed, noisyThreshold, 2, []int{0, 1})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	attacker := mm.Core(0)
	pair, ok := FindImplicitAggressors(attacker, 256)
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("bench: no implicit aggressor pair on the noisy machine")
	}
	h, err := NewImplicitHammerForPair(attacker, pair, nil, evset.Options{})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	// The bystander's ring: Ways+1 lines one way-span apart alias the
	// same LLC set, so cycling them defeats LRU — every pass misses.
	// The pages are premapped so its steady state is pure load traffic,
	// not page-table construction.
	llc := mm.Config().LLC
	waySpan := llc.Sets() * llc.LineBytes
	ring := llc.Ways + 1
	mm.Core(1).Premap(bystanderBase, uint64(ring)*waySpan)
	mm.AlignClocks()

	var itersN, loadsN uint64
	var peak uint64
	budget := timing.Cycles(windows) * mm.Config().DRAM.RefreshWindow
	done := false
	mm.Run(func(i int, m *machine.Machine, yield func()) {
		if i == 0 {
			start := m.Clock().Now()
			for m.Clock().Now()-start < budget {
				h.HammerOnce(m)
				itersN++
				if p := pairPressure(m, pair); p > peak {
					peak = p
				}
				yield()
			}
			done = true
			return
		}
		if !noisy {
			return
		}
		// The bystander streams until the attacker's budget expires;
		// the done flag is safely visible because the interleaver runs
		// one quantum at a time.
		var k int
		for !done {
			for j := 0; j < 16; j++ {
				m.Load(bystanderBase + phys.Addr(uint64(k)*waySpan))
				loadsN++
				if k++; k == ring {
					k = 0
				}
			}
			yield()
		}
	})
	return peak, len(model.Flips()), itersN, loadsN, nil
}

// RunNoisyNeighbour runs both arms of the noisy-neighbour experiment
// on fresh machines with the same seed. Deterministic per seed.
func RunNoisyNeighbour(seed int64, windows int) (NoisyNeighbourResult, error) {
	var res NoisyNeighbourResult
	var err error
	if res.QuietPressure, res.QuietFlips, res.QuietIters, _, err = noisyArm(seed, false, windows); err != nil {
		return res, err
	}
	if res.NoisyPressure, res.NoisyFlips, res.NoisyIters, res.BystanderLoads, err = noisyArm(seed, true, windows); err != nil {
		return res, err
	}
	return res, nil
}

// Cross-tenant layout: the attacker's own regions, the victim's
// sprayed regions, and the victim's private streaming buffer. All
// three sit below the striped table pools; the victim's spray base has
// physical-address bit 29 set, so the dominant ClassA flip (1→0) of
// that bit in a sprayed PTE lands the translation inside the
// attacker's region.
const (
	xtAttackerRegions = 72
	xtVictimRegions   = 72
	xtVictimSprayBase = phys.Addr(512 << 20)
	xtVictimBufBase   = phys.Addr(448 << 20)
	xtVictimBufBytes  = uint64(16 << 20)
	xtVictimStride    = uint64(phys.FrameSize + 64)
)

// CrossTenantResult records one cross-tenant escalation run.
type CrossTenantResult struct {
	// AttackerRows are the hammered rows (the attacker's own leaf-PTE
	// rows); VictimRow — between them — holds the victim tenant's
	// tables.
	AttackerRows [2]uint64
	VictimRow    uint64
	// Windows and Iterations count the hammer phase; Flips every
	// disturbance error the model produced during it.
	Windows    uint64
	Iterations uint64
	Flips      int
	// DivergedVA is the victim page whose PTE the winning flip
	// corrupted; it now resolves to HijackedFrame inside the attacker's
	// region instead of its identity frame.
	DivergedVA    phys.Addr
	HijackedFrame phys.Frame
	// Breached reports the payoff: the marker the attacker stored
	// through its own identity mapping of HijackedFrame was read back
	// through the victim's corrupted translation.
	Breached bool
}

// xtFindPair picks the attacker's aggressor pair: the first two of its
// own leaf-PTE lines in the same bank exactly two rows apart whose
// middle row holds at least one allocated table frame of the victim
// tenant. With striped tenant pools that row belongs to the victim by
// construction; the check is that it is actually populated.
func xtFindPair(mm *machine.MultiMachine, cands []regionCand) (ImplicitPair, bool) {
	return firstPair(cands, func(p ImplicitPair) bool {
		row := p.Loc1
		row.Row = p.VictimRow
		return mm.TablesInRow(1, row)
	})
}

// RunCrossTenantEscalation is the full cross-tenant chain on a
// two-core, two-tenant machine. The victim (core 1) premaps and
// reference-resolves its sprayed regions — never loading them, so its
// TLBs hold no sprayed translation — and streams over a private buffer
// while rescanning the spray once per refresh window. The attacker
// (core 0) double-sided-hammers its own leaf-PTE rows around the
// victim's table row until a flip remaps a sprayed victim page onto an
// attacker-owned frame; the attacker then plants a marker through its
// identity mapping of that frame, and the victim reading the marker
// through its corrupted translation proves the isolation breach.
// Deterministic per seed.
func RunCrossTenantEscalation(seed int64, maxWindows int) (CrossTenantResult, error) {
	var res CrossTenantResult
	mm, model, err := newMTMachine(seed, crossTenantThreshold, 2, []int{0, 1})
	if err != nil {
		return res, err
	}
	attacker, victim := mm.Core(0), mm.Core(1)
	span := pagetable.Span(2)

	// Attacker surface: touch its regions so their leaf tables populate
	// the attacker pool's striped rows.
	cands := touchRegions(attacker, xtAttackerRegions)
	// Victim surface: premap the spray (tables fill with present PTEs,
	// nothing enters the victim's TLBs) and the private buffer.
	spray := make([]phys.Addr, 0, xtVictimRegions*int(span/phys.FrameSize))
	for k := 0; k < xtVictimRegions; k++ {
		base := xtVictimSprayBase + phys.Addr(uint64(k)*span)
		victim.Premap(base, span)
		spray = regionPages(base, spray)
	}
	victim.Premap(xtVictimBufBase, xtVictimBufBytes)

	pair, ok := xtFindPair(mm, cands)
	if !ok {
		return res, fmt.Errorf("bench: no cross-tenant sandwich pair among %d attacker regions", xtAttackerRegions)
	}
	res.AttackerRows = [2]uint64{pair.Loc1.Row, pair.Loc2.Row}
	res.VictimRow = pair.VictimRow
	// Keep eviction streams away from pages whose leaf PTs share the
	// hammered bank's row neighbourhood, as the single-core escalation
	// does.
	var exclude []phys.Addr
	for _, c := range cands {
		if pair.near(c.loc) {
			exclude = regionPages(c.va, exclude)
		}
	}
	h, err := NewImplicitHammerForPair(attacker, pair, exclude, evset.Options{})
	if err != nil {
		return res, err
	}
	mm.AlignClocks()

	windows0 := model.Windows()
	flips0 := len(model.Flips())
	window := mm.Config().DRAM.RefreshWindow
	budget := timing.Cycles(maxWindows) * window
	attackerLimit := phys.Addr(uint64(xtAttackerRegions) * span)

	done, found := false, false
	var divergedVA phys.Addr
	var hijacked phys.Frame
	mm.Run(func(i int, m *machine.Machine, yield func()) {
		if i == 0 {
			start := m.Clock().Now()
			for !found && m.Clock().Now()-start < budget {
				h.HammerOnce(m)
				res.Iterations++
				yield()
			}
			done = true
			return
		}
		// Victim: stream the private buffer, rescanning the spray once
		// per refresh window (reference resolves are uncharged — the
		// victim is its own process scanning its own mappings; the
		// timed confirmation below is what a real victim's fault
		// handler would observe).
		var off uint64
		nextScan := m.Clock().Now() + window
		for !done {
			for k := 0; k < 16; k++ {
				m.Load(xtVictimBufBase + phys.Addr(off))
				off += xtVictimStride
				if off+8 >= xtVictimBufBytes {
					off = 0
				}
			}
			if m.Clock().Now() >= nextScan {
				for m.Clock().Now() >= nextScan {
					nextScan += window
				}
				for _, s := range spray {
					f, ok := mm.Tables(1).Resolve(s)
					if !ok || f == phys.FrameOf(s) || f.Addr() >= attackerLimit {
						continue
					}
					// Timed confirmation: the spray never entered the
					// TLBs, so this walk reads the corrupted tables.
					if got, _ := m.Translate(s); got != f {
						continue
					}
					divergedVA, hijacked, found = s, f, true
					return
				}
			}
			yield()
		}
	})
	res.Windows = model.Windows() - windows0
	res.Flips = len(model.Flips()) - flips0
	if !found {
		return res, fmt.Errorf("bench: no exploitable cross-tenant flip within %d windows (%d flips landed)",
			maxWindows, res.Flips)
	}
	res.DivergedVA = divergedVA
	res.HijackedFrame = hijacked

	// The breach: the attacker owns HijackedFrame's identity mapping,
	// so a plain store plants the marker; the victim reads it back
	// through its own (corrupted) translation of DivergedVA.
	attacker.Store64(hijacked.Addr(), escalationMarker)
	vf, _ := victim.Translate(divergedVA)
	res.Breached = vf == hijacked && mm.Memory().Read64(vf.Addr()) == escalationMarker
	return res, nil
}
