// Package flip is the disturbance-error engine: the component that
// turns accumulated hammer pressure into actual bit flips in physical
// memory. It closes the loop the rest of the simulator sets up — the
// implicit-hammer path drives page-walk activations past the
// per-window threshold (internal/bench), the DRAM device reports which
// rows are hammer-eligible at the end of each refresh window
// (dram.Stats.Victims), and this package decides which cells in those
// rows flip and mutates them through phys.FlipBit, the simulator's
// only non-CPU-store mutation.
//
// The model is probabilistic but fully deterministic per seed: given
// the same seed and the same sequence of end-of-window victim reports,
// it produces bit-identical flips. Vulnerability is parameterised per
// DRAM module class (profiles in the A/B/C style of the "Flipping Bits
// in Memory Without Accessing Them" module characterisation): how many
// candidate cells are disturbed per victim row per window, how fast
// the flip probability saturates as adjacent-row pressure exceeds the
// hammer threshold, and which direction (1→0 discharge of a true cell
// versus 0→1) the module's cells favour. Candidate cells are drawn
// uniformly over the victim row's byte range — the cell-address jitter
// that makes flip locations unpredictable, exactly why PThammer sprays
// page tables instead of aiming at one PTE.
package flip

import (
	"fmt"
	"math"
	"math/rand"

	"pthammer/internal/dram"
	"pthammer/internal/phys"
)

// Profile fixes one DRAM module class's disturbance behaviour.
type Profile struct {
	// Name identifies the module class in reports ("A", "B", "C").
	Name string

	// AttemptsPerWindow is how many candidate cells the model samples
	// in each victim row per refresh window — the density of cells
	// physically disturbed enough to be flip candidates.
	AttemptsPerWindow int

	// ExcessScale shapes the per-candidate flip probability as a
	// function of how far the victim's adjacent-row pressure exceeded
	// the hammer threshold: p = 1 - exp(-(excess+1)/ExcessScale). A
	// small scale saturates quickly (a vulnerable module flips as soon
	// as the threshold is crossed); a large one needs heavy
	// over-hammering before flips become likely.
	ExcessScale float64

	// OneToZeroBias is the probability a disturbance attempt targets a
	// 1→0 discharge rather than a 0→1 charge. Real modules flip
	// predominantly in one direction (true cells leak towards 0); a
	// candidate whose cell is not in the targeted source state does not
	// flip and is recorded as a miss.
	OneToZeroBias float64
}

// Validate reports an error for a degenerate profile.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("flip: profile needs a name")
	case p.AttemptsPerWindow <= 0:
		return fmt.Errorf("flip: profile %s: attempts per window must be positive (got %d)", p.Name, p.AttemptsPerWindow)
	case !(p.ExcessScale > 0):
		return fmt.Errorf("flip: profile %s: excess scale must be positive (got %v)", p.Name, p.ExcessScale)
	case !(p.OneToZeroBias >= 0 && p.OneToZeroBias <= 1):
		return fmt.Errorf("flip: profile %s: 1→0 bias %v outside [0,1]", p.Name, p.OneToZeroBias)
	}
	return nil
}

// ClassA is the most vulnerable module class: dense disturbance, flip
// probability saturating right past the threshold, strong 1→0 bias.
func ClassA() Profile {
	return Profile{Name: "A", AttemptsPerWindow: 8, ExcessScale: 64, OneToZeroBias: 0.75}
}

// ClassB is a mid-grade module: fewer disturbed cells per window and a
// slower probability ramp, with no direction preference.
func ClassB() Profile {
	return Profile{Name: "B", AttemptsPerWindow: 4, ExcessScale: 256, OneToZeroBias: 0.5}
}

// ClassC is the most robust class that still flips at all: sparse
// disturbance, a long ramp, and a 0→1-leaning cell architecture.
func ClassC() Profile {
	return Profile{Name: "C", AttemptsPerWindow: 2, ExcessScale: 1024, OneToZeroBias: 0.25}
}

// Profiles returns the standard module classes, most vulnerable first.
func Profiles() []Profile {
	return []Profile{ClassA(), ClassB(), ClassC()}
}

// Injector is the fault-injection seam the flip engine offers
// (implemented by fault.Model; declared here so flip does not import
// fault). The machine facade wires a configured fault model into the
// flip model at construction; with no injector every hook is skipped
// and the engine behaves exactly as before.
type Injector interface {
	// OnWindow ticks once per end-of-window victim report, after the
	// window counter advances — the injector's only clock.
	OnWindow(window uint64)
	// SuppressAttempt reports whether one disturbance attempt against
	// this victim is intercepted before it can flip anything
	// (TRR-sampler style, or an invalidated aggressor pair). A
	// suppressed attempt is not counted: it never physically happened.
	SuppressAttempt(v dram.Victim) bool
	// RedirectFlip may relocate a candidate cell (mislanded flip); ok
	// is false when the attempt stays put.
	RedirectFlip(addr phys.Addr, bit uint) (phys.Addr, uint, bool)
	// ObserveFlip sees every recorded disturbance error, located at the
	// row the flip actually landed in — the signal pair invalidation
	// arms on (the simulated OS detecting a corrupted table).
	ObserveFlip(v dram.Victim)
}

// Flip is one recorded disturbance error.
type Flip struct {
	// Addr and Bit locate the flipped cell in physical memory.
	Addr phys.Addr
	Bit  uint
	// OneToZero is the direction: true when a charged cell discharged.
	OneToZero bool
	// Channel/Rank/Bank/Row locate the victim row the cell lives in.
	Channel, Rank, Bank int
	Row                 uint64
	// Pressure is the adjacent-row activation pressure of the victim's
	// window — how hard the row had been hammered when refresh hit.
	Pressure uint64
	// Window is the 1-based index of the victim report that produced
	// the flip, counting every report the model processed.
	Window uint64
	// Core is the core the window report was attributed to (the core
	// whose access rotated the refresh window — see dram.Stats.Core).
	// Always 0 on a single-core machine.
	Core int
}

// Model applies a Profile to one machine's memory. Create it with
// NewModel, hand it to machine.Config.FlipModel (which binds it to the
// machine's physical memory and DRAM geometry and subscribes it to
// end-of-refresh-window victim reports), and read the damage back with
// Flips. A model is bound to exactly one machine; Seed/Profile stay
// fixed so a (profile, seed, workload) triple always produces the same
// flips.
type Model struct {
	profile Profile
	seed    int64
	rng     *rand.Rand
	// stale marks rng as not yet reseeded from seed since the last
	// Reset: OnWindow seeds it just before its first draw, so a run
	// whose windows report no victim never pays math/rand's reseed.
	stale bool

	mem  *phys.Memory
	geom dram.Config
	inj  Injector

	flips    []Flip
	windows  uint64
	attempts uint64
	misses   uint64
}

// NewModel builds an unbound model.
func NewModel(p Profile, seed int64) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		profile: p,
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// MustNewModel is NewModel but panics on error.
func MustNewModel(p Profile, seed int64) *Model {
	m, err := NewModel(p, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Profile returns the module class the model simulates.
func (m *Model) Profile() Profile { return m.profile }

// Seed returns the seed the model was built with.
func (m *Model) Seed() int64 { return m.seed }

// Bind attaches the model to one machine's physical memory and DRAM
// geometry. The machine facade calls it during construction; binding
// twice is an error because the model's random stream must belong to
// exactly one simulated module.
func (m *Model) Bind(mem *phys.Memory, geom dram.Config) error {
	if mem == nil {
		return fmt.Errorf("flip: bind needs a physical memory")
	}
	if m.mem != nil {
		return fmt.Errorf("flip: model already bound to a machine")
	}
	if err := geom.Validate(); err != nil {
		return err
	}
	m.mem = mem
	m.geom = geom
	return nil
}

// SetInjector subscribes a fault injector to the model's hooks. Like
// Bind it is one-shot: the injector's random stream pairs with this
// model's for the lifetime of one simulated run.
func (m *Model) SetInjector(inj Injector) error {
	if inj == nil {
		return fmt.Errorf("flip: set-injector needs an injector")
	}
	if m.inj != nil {
		return fmt.Errorf("flip: model already has an injector")
	}
	m.inj = inj
	return nil
}

// OnWindow consumes one end-of-refresh-window report — the dram window
// hook the machine subscribes for a configured model. For every victim
// row it samples AttemptsPerWindow candidate cells (uniform byte + bit
// jitter over the row), flips each with the pressure-derived
// probability if the cell currently holds the direction's source
// value, and records the result. Panics if the model is unbound: a
// report arriving before Bind is a wiring bug.
func (m *Model) OnWindow(s dram.Stats) {
	if m.mem == nil {
		panic("flip: OnWindow on an unbound model")
	}
	m.windows++
	if m.inj != nil {
		m.inj.OnWindow(m.windows)
	}
	for _, v := range s.Victims {
		if m.stale {
			m.rng.Seed(m.seed)
			m.stale = false
		}
		// Victims always meet the threshold; +1 keeps a row hammered to
		// exactly the threshold at a small non-zero flip probability
		// (the threshold is where first flips appear, not where they
		// are still impossible). A non-positive ramp scale means the
		// probability has no ramp at all: every attempt past the
		// threshold flips (guards the division — Validate rejects such
		// profiles, but the model must stay total on any it is handed).
		p := 1.0
		if m.profile.ExcessScale > 0 {
			excess := v.Pressure - m.geom.HammerThreshold + 1
			p = 1 - math.Exp(-float64(excess)/m.profile.ExcessScale)
		}
		start, rowBytes := m.geom.RowRange(v.Channel, v.Rank, v.Bank, v.Row)
		for i := 0; i < m.profile.AttemptsPerWindow; i++ {
			// A suppressed attempt never physically happened (the
			// mitigation refreshed the victim before disturbance), so it
			// is not an attempt and not a miss.
			if m.inj != nil && m.inj.SuppressAttempt(v) {
				continue
			}
			m.attempts++
			if m.rng.Float64() >= p {
				m.misses++
				continue
			}
			addr := start + phys.Addr(m.rng.Uint64()%rowBytes)
			bit := uint(m.rng.Intn(8))
			oneToZero := m.rng.Float64() < m.profile.OneToZeroBias
			loc := v
			if m.inj != nil {
				if raddr, rbit, ok := m.inj.RedirectFlip(addr, bit); ok {
					// Mislanded flip: the disturbance damaged a cell
					// outside the victim row; record where it really hit.
					addr, bit = raddr, rbit
					l := m.geom.Map(addr)
					loc.Channel, loc.Rank, loc.Bank, loc.Row = l.Channel, l.Rank, l.Bank, l.Row
				}
			}
			var source byte
			if oneToZero {
				source = 1
			}
			if m.mem.Bit(addr, bit) != source {
				// Cell not charged in the vulnerable direction.
				m.misses++
				continue
			}
			if _, ok := m.mem.FlipBit(addr, bit); !ok {
				// Never-written frame: phys defines the flip as a no-op
				// miss, so sparse victim rows don't materialize.
				m.misses++
				continue
			}
			m.flips = append(m.flips, Flip{
				Addr: addr, Bit: bit, OneToZero: oneToZero,
				Channel: loc.Channel, Rank: loc.Rank, Bank: loc.Bank, Row: loc.Row,
				Pressure: v.Pressure, Window: m.windows, Core: s.Core,
			})
			if m.inj != nil {
				m.inj.ObserveFlip(loc)
			}
		}
	}
}

// Reset recycles the model for the next cohort on the same machine
// (the Reset/Recycle contract): the flip record, the window and
// attempt/miss accounting and the random stream all rewind to the
// just-built state, while the memory binding and any injector stay
// attached. A recycled model therefore produces bit-identical flips to
// a fresh NewModel(profile, seed) fed the same victim reports. The
// stream rewinds lazily: OnWindow reseeds it from the current seed
// before its first draw, so a Reset followed by ResetTo seeds once, at
// the seed ResetTo stamped. Reset truncates the flip record in place,
// so slices previously returned by Flips are invalidated — copy them
// out before recycling.
func (m *Model) Reset() {
	m.stale = true
	m.flips = m.flips[:0]
	m.windows, m.attempts, m.misses = 0, 0, 0
}

// ResetTo is Reset with a new identity: the recycled model behaves as
// if freshly built with NewModel(p, seed). The cohort scheduler uses
// this to re-stamp one bound model per tenant (per-tenant seeds,
// per-population module class) without re-binding anything.
func (m *Model) ResetTo(p Profile, seed int64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	m.profile, m.seed = p, seed
	m.Reset()
	return nil
}

// Flips returns every disturbance error the model has produced, in
// occurrence order. The slice is the model's own record: callers must
// not mutate it. Len(Flips()) monotonically grows between resets; the
// escalation demo polls it to notice new damage.
func (m *Model) Flips() []Flip { return m.flips }

// Windows returns how many end-of-window victim reports the model has
// processed.
func (m *Model) Windows() uint64 { return m.windows }

// Attempts returns how many candidate cells have been sampled, and
// Misses how many of them did not flip (probability roll failed, cell
// not in the source state, or the cell's frame was a hole).
func (m *Model) Attempts() uint64 { return m.attempts }

// Misses returns the non-flipping attempts; Attempts - Misses ==
// len(Flips).
func (m *Model) Misses() uint64 { return m.misses }
