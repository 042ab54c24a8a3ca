// Package cohort schedules large tenant populations over a bounded
// pool of per-core front-ends. It is the consumer the machine stack's
// Reset/Recycle contract exists for: a Pool constructs its machines
// once, then recycles them for every tenant — machine.MultiMachine
// Reset between tenants, flip.Model ResetTo re-stamping the module
// class and per-tenant seed — so simulating 10⁴+ tenants allocates
// like simulating a handful.
//
// Units run concurrently, one goroutine each: unit k of U runs tenants
// k, k+U, k+2U, … in order, recycling its machine between them. Pool
// size therefore bounds concurrency and GOMAXPROCS sets the real
// parallelism; neither may reach the outcomes.
//
// Determinism is the package's load-bearing property, and it is
// layered:
//
//   - within a unit, each tenant's two cores run under their own
//     internal/core interleaver, so the schedule is bit-identical for
//     any GOMAXPROCS value;
//   - across units and pool sizes, tenants are observationally
//     independent — each runs on a freshly recycled unit whose
//     post-Reset state is bit-identical to construction (the
//     reset-equivalence difftest in internal/machine) and units share
//     no mutable state, simulated or host — so neither regrouping
//     tenants onto more or fewer units nor the order in which the host
//     runs the units can change any tenant's outcome;
//   - per-tenant randomness (the flip model's sampling, the victim's
//     load jitter) derives from a seed mixed from the population seed
//     and the tenant index alone.
//
// CI pins all three: population tables must be byte-identical across
// GOMAXPROCS {1,2,4}, across pool sizes (a single unit among them) and
// under -race, which makes the no-shared-state rule structural.
package cohort

import (
	"fmt"
	"sync"

	"pthammer/internal/core"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// Spec describes one population run: how many tenants of one module
// class to push through the pool, and the per-tenant hammer budget.
type Spec struct {
	// Profile is the flip-model module class every tenant's DRAM is
	// drawn from (flip.ClassA/B/C).
	Profile flip.Profile
	// Tenants is the population size.
	Tenants int
	// Seed is the population seed; per-tenant seeds are mixed from it
	// and the tenant index, so any single tenant can be replayed.
	Seed int64
	// Windows is each tenant's hammer budget in refresh windows.
	Windows int
}

func (s Spec) validate() error {
	if err := s.Profile.Validate(); err != nil {
		return err
	}
	if s.Tenants < 1 {
		return fmt.Errorf("cohort: population needs at least one tenant (got %d)", s.Tenants)
	}
	if s.Windows < 1 {
		return fmt.Errorf("cohort: tenants need at least one refresh window (got %d)", s.Windows)
	}
	return nil
}

// Outcome is one tenant's result.
type Outcome struct {
	// Tenant is the population index; Seed the per-tenant seed its
	// randomness derived from.
	Tenant int
	Seed   int64
	// PeakPressure is the highest per-window activation pressure the
	// sandwiched victim table row saw (0 when the layout sandwiches no
	// victim row); Iterations counts the attacker's completed loads.
	PeakPressure uint64
	Iterations   uint64
	// TableFlips counts disturbance flips that landed in the victim
	// tenant's table frames.
	TableFlips int
	// Breached reports that at least one premapped victim page now
	// resolves to a different in-memory frame — the isolation breach.
	Breached bool
	// Diluted reports the tenant never pressured a victim table row to
	// the hammer threshold, whether because co-tenant traffic slowed
	// the attacker down or because the layout exposes no victim row.
	Diluted bool
}

// Population is the merged statistics of one Spec's run.
type Population struct {
	Class   string
	Layout  machine.TableLayout
	Tenants int
	// Breached/Diluted count tenants; TableFlips sums flips in victim
	// table frames across the population.
	Breached   int
	Diluted    int
	TableFlips int
	// MeanPeakPressure and MaxPeakPressure summarise the per-tenant
	// peak pressures (integer mean, so reports stay byte-stable).
	MeanPeakPressure uint64
	MaxPeakPressure  uint64
	// MeanIterations is the integer mean of attacker iterations.
	MeanIterations uint64
}

// perMillion scales a tenant count to a rate per 10⁶ tenants in
// integer arithmetic.
func (p Population) perMillion(n int) uint64 {
	if p.Tenants == 0 {
		return 0
	}
	return uint64(n) * 1_000_000 / uint64(p.Tenants)
}

// BreachedPerM returns the breach rate per 10⁶ tenants.
func (p Population) BreachedPerM() uint64 { return p.perMillion(p.Breached) }

// DilutedPerM returns the dilution rate per 10⁶ tenants.
func (p Population) DilutedPerM() uint64 { return p.perMillion(p.Diluted) }

// TableFlipsPerM returns victim-table flips per 10⁶ tenants.
func (p Population) TableFlipsPerM() uint64 { return p.perMillion(p.TableFlips) }

// unit is one slot of the pool: a two-core machine (core 0 the
// attacker tenant, core 1 the victim tenant) plus its once-constructed
// flip model, recycled for every tenant scheduled onto it. Everything
// but the read-only geometry belongs to the unit's goroutine alone.
type unit struct {
	mm       *machine.MultiMachine
	model    *flip.Model
	attacker *machine.Machine
	victim   *machine.Machine
	geo      geometry

	// Per-tenant state.
	out   Outcome
	jit   uint64
	level uint64
}

// Pool is a bounded set of units tenants are spread over. All units
// are identical, so a population's outcomes are a pure function of the
// Spec and the pool's layout — never of its size.
type Pool struct {
	layout machine.TableLayout
	units  []*unit
}

// NewPool builds a pool of frontEnds/2 attacker/victim units (each
// unit consumes two core front-ends) with the given table striping.
// frontEnds must be at least 2; odd counts round down.
func NewPool(frontEnds int, layout machine.TableLayout) (*Pool, error) {
	if frontEnds < 2 {
		return nil, fmt.Errorf("cohort: a pool needs at least 2 front-ends (got %d)", frontEnds)
	}
	p := &Pool{layout: layout}
	for k := 0; k < frontEnds/2; k++ {
		model, err := flip.NewModel(flip.ClassA(), 0)
		if err != nil {
			return nil, err
		}
		mm, err := machine.NewMulti(machine.MultiConfig{
			Config:  tenantConfig(model),
			Cores:   2,
			Tenants: []int{0, 1},
			Layout:  layout,
		})
		if err != nil {
			return nil, err
		}
		p.units = append(p.units, &unit{
			mm:       mm,
			model:    model,
			attacker: mm.Core(0),
			victim:   mm.Core(1),
		})
	}
	// Probe the tenant geometry once on a scratch tenant: every tenant
	// of every unit performs the identical setup, so the pair rows and
	// address sets are population invariants.
	u := p.units[0]
	setupTenant(u.mm)
	geo, err := probeGeometry(u.mm)
	if err != nil {
		return nil, err
	}
	u.mm.Reset()
	for _, u := range p.units {
		u.geo = geo
	}
	return p, nil
}

// Units returns how many tenants the pool runs concurrently.
func (p *Pool) Units() int { return len(p.units) }

// FrontEnds returns how many core front-ends the pool drives.
func (p *Pool) FrontEnds() int { return 2 * len(p.units) }

// Layout returns the table striping the pool's machines were built
// with.
func (p *Pool) Layout() machine.TableLayout { return p.layout }

// Sandwiched reports whether the pool's layout exposes a victim table
// row between the attacker's aggressor rows.
func (p *Pool) Sandwiched() bool { return p.units[0].geo.sandwiched }

// tenantSeed mixes the population seed and tenant index through
// splitmix64, so per-tenant randomness is reproducible in isolation.
func tenantSeed(pop int64, tenant int) int64 {
	z := uint64(pop) + (uint64(tenant)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// nextJitter advances the unit's per-tenant jitter stream (splitmix64
// over a counter seeded from the tenant seed).
func (u *unit) nextJitter() uint64 {
	u.jit += 0x9E3779B97F4A7C15
	z := u.jit
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// prepare recycles the unit for one tenant: machine Reset, flip model
// re-stamped to the population's class and the tenant's seed, the
// deterministic setup, clock alignment, and a fresh refresh window.
func (u *unit) prepare(spec Spec, tenant int) error {
	seed := tenantSeed(spec.Seed, tenant)
	u.mm.Reset()
	if err := u.model.ResetTo(spec.Profile, seed); err != nil {
		return err
	}
	setupTenant(u.mm)
	u.mm.AlignClocks()
	u.out = Outcome{Tenant: tenant, Seed: seed}
	u.jit = uint64(seed)
	// The tenant's victim-intensity level is the jitter stream's first
	// draw: how memory-hungry this tenant's co-resident victim is.
	u.level = u.nextJitter() % victimLevels
	return nil
}

// collect finishes one tenant's run: count the flips that landed in
// victim table frames, scan the sprayed surface for breached
// translations (only when a table flip makes one possible), and judge
// dilution against the hammer threshold.
func (u *unit) collect() Outcome {
	victimFrames := u.mm.Tables(1).Frames()
	owns := func(f phys.Frame) bool {
		for _, vf := range victimFrames {
			if vf == f {
				return true
			}
		}
		return false
	}
	for _, fl := range u.model.Flips() {
		if owns(phys.FrameOf(fl.Addr)) {
			u.out.TableFlips++
		}
	}
	if u.out.TableFlips > 0 {
		tables := u.mm.Tables(1)
		for _, va := range u.geo.spray {
			if f, ok := tables.Resolve(va); ok && f != phys.FrameOf(va) {
				u.out.Breached = true
				break
			}
		}
	}
	u.out.Diluted = u.out.PeakPressure < u.mm.Config().DRAM.HammerThreshold
	return u.out
}

// RunDetailed pushes a population through the pool and returns both
// the merged statistics and every tenant's outcome, in tenant order.
// Units run concurrently, each on its own goroutine: unit k of U runs
// tenants k, k+U, k+2U, … in order, each tenant's two cores under its
// own deterministic interleaver. Units share no simulated state, so
// the outcomes are independent of both the pool size and how the host
// schedules the units.
//
// A panic in any unit is re-raised on the caller's goroutine once
// every unit has stopped — the lowest unit index's value when several
// panic. Otherwise a failed tenant set-up returns the lowest failing
// tenant's error; partial outcomes are never returned.
func (p *Pool) RunDetailed(spec Spec) (Population, []Outcome, error) {
	if err := spec.validate(); err != nil {
		return Population{}, nil, err
	}
	budget := timing.Cycles(spec.Windows) * tenantWindow
	outs := make([]Outcome, spec.Tenants)
	errs := make([]error, spec.Tenants)
	panics := make([]any, len(p.units))
	var wg sync.WaitGroup
	for k, u := range p.units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[k] = recover() }()
			for t := k; t < spec.Tenants; t += len(p.units) {
				if errs[t] = u.prepare(spec, t); errs[t] != nil {
					return
				}
				core.Run([]core.Stream{
					{Now: u.attacker.Clock().Now, Run: u.attackerBody(budget)},
					{Now: u.victim.Clock().Now, Run: u.victimBody(budget)},
				})
				outs[t] = u.collect()
			}
		}()
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	for _, err := range errs {
		if err != nil {
			return Population{}, nil, err
		}
	}
	return merge(spec, p.layout, outs), outs, nil
}

// Run is RunDetailed without the per-tenant outcomes.
func (p *Pool) Run(spec Spec) (Population, error) {
	pop, _, err := p.RunDetailed(spec)
	return pop, err
}

// merge folds per-tenant outcomes into population statistics.
func merge(spec Spec, layout machine.TableLayout, outs []Outcome) Population {
	pop := Population{
		Class:   spec.Profile.Name,
		Layout:  layout,
		Tenants: len(outs),
	}
	var pressureSum, iterSum uint64
	for _, o := range outs {
		if o.Breached {
			pop.Breached++
		}
		if o.Diluted {
			pop.Diluted++
		}
		pop.TableFlips += o.TableFlips
		pressureSum += o.PeakPressure
		iterSum += o.Iterations
		if o.PeakPressure > pop.MaxPeakPressure {
			pop.MaxPeakPressure = o.PeakPressure
		}
	}
	if n := uint64(len(outs)); n > 0 {
		pop.MeanPeakPressure = pressureSum / n
		pop.MeanIterations = iterSum / n
	}
	return pop
}
