// Package cohort schedules large tenant populations over a bounded
// pool of per-core front-ends. It is the consumer the machine stack's
// Reset/Recycle contract exists for: a Pool constructs its machines
// once, then recycles them for every tenant — machine.MultiMachine
// Reset between tenants, flip.Model ResetTo re-stamping the module
// class and per-tenant seed — so simulating 10⁴+ tenants allocates
// like simulating a handful.
//
// Units run concurrently, one goroutine each, and draw tenants from one
// shared index: each unit takes the next undrawn tenant, runs it to
// completion on its recycled machine, and draws again, so no unit
// idles while another still has a backlog. Which unit runs which
// tenant therefore depends on host scheduling. Pool size bounds
// concurrency and GOMAXPROCS sets the real parallelism; neither, nor
// the tenant-to-unit assignment, may reach the outcomes.
//
// Determinism is the package's load-bearing property, and it is
// layered:
//
//   - within a unit, each tenant's two cores run under
//     MultiMachine.Run's interleaver on the unit's goroutine, so the
//     schedule is bit-identical for any GOMAXPROCS value;
//   - across units and pool sizes, tenants are observationally
//     independent — each runs on a freshly recycled unit whose
//     post-Reset state is bit-identical to construction (the
//     reset-equivalence difftest in internal/machine) and units share
//     no mutable state, simulated or host, beyond the tenant index
//     they draw from — so neither regrouping tenants onto more or
//     fewer units nor the order in which the host runs the units can
//     change any tenant's outcome;
//   - per-tenant randomness (the flip model's sampling, the victim's
//     load jitter) derives from a seed mixed from the population seed
//     and the tenant index alone.
//
// CI pins all three: population tables must be byte-identical across
// GOMAXPROCS {1,2,4}, across reruns (which regroup tenants by host
// scheduling), across pool sizes (a single unit among them, and one
// with more units than host threads) and under -race, which makes the
// no-shared-state rule structural.
package cohort

import (
	"fmt"
	"sync"
	"sync/atomic"

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

// MaxTenants caps a population: every tenant's outcome is kept until
// the run ends, and the population tables run 2000 tenants per row.
const MaxTenants = 1 << 20

// budget validates the spec and returns each tenant's hammer budget in
// cycles.
func (s Spec) budget() (timing.Cycles, error) {
	if err := s.Profile.Validate(); err != nil {
		return 0, err
	}
	if s.Tenants < 1 {
		return 0, fmt.Errorf("cohort: population needs at least one tenant (got %d)", s.Tenants)
	}
	if s.Tenants > MaxTenants {
		return 0, fmt.Errorf("cohort: population of %d tenants exceeds the %d-tenant cap", s.Tenants, MaxTenants)
	}
	if s.Windows < 1 {
		return 0, fmt.Errorf("cohort: tenants need at least one refresh window (got %d)", s.Windows)
	}
	return timing.Horizon(0, uint64(s.Windows), tenantWindow)
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
	mm    *machine.MultiMachine
	model *flip.Model
	geo   geometry

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

// MaxFrontEnds caps a pool: NewPool builds every unit up front, ~34 KB
// of heap each, so the cap bounds a pool at ~17 MB.
const MaxFrontEnds = 1024

// NewPool builds a pool of frontEnds/2 attacker/victim units (each
// unit consumes two core front-ends) with the given table striping.
// frontEnds must be between 2 and MaxFrontEnds; odd counts round down.
func NewPool(frontEnds int, layout machine.TableLayout) (*Pool, error) {
	if frontEnds < 2 || frontEnds > MaxFrontEnds {
		return nil, fmt.Errorf("cohort: a pool needs 2 to %d front-ends (got %d)", MaxFrontEnds, frontEnds)
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
			Tenants: 2,
			Layout:  layout,
		})
		if err != nil {
			return nil, err
		}
		p.units = append(p.units, &unit{mm: mm, model: model})
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

// mix64 is splitmix64's output finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// tenantSeed mixes the population seed and tenant index through
// splitmix64, so per-tenant randomness is reproducible in isolation.
func tenantSeed(pop int64, tenant int) int64 {
	return int64(mix64(uint64(pop) + (uint64(tenant)+1)*0x9E3779B97F4A7C15))
}

// nextJitter advances the unit's per-tenant jitter stream (splitmix64
// over a counter seeded from the tenant seed).
func (u *unit) nextJitter() uint64 {
	u.jit += 0x9E3779B97F4A7C15
	return mix64(u.jit)
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
// Units run concurrently, each on its own goroutine, and draw tenant
// indices from one shared counter in increasing order until the
// population is exhausted; each tenant's two cores run under its own
// deterministic interleaver on the drawing unit's goroutine. Units
// share no simulated state, so the outcomes are independent of the
// pool size, of how the host schedules the units, and of which unit
// drew which tenant.
//
// A unit stops at its first failed tenant set-up or panic; the others
// keep drawing. A panic in any unit is re-raised on the caller's
// goroutine once every unit has stopped — the lowest unit index's
// value when several panic; which unit ran the panicking tenant
// depends on host scheduling. Otherwise a failed set-up returns the
// lowest failing tenant's error, which is deterministic: indices are
// drawn in order, so every tenant below the lowest failure was drawn
// and prepared by some unit. Partial outcomes are never returned.
func (p *Pool) RunDetailed(spec Spec) (Population, []Outcome, error) {
	budget, err := spec.budget()
	if err != nil {
		return Population{}, nil, err
	}
	outs := make([]Outcome, spec.Tenants)
	errs := make([]error, spec.Tenants)
	panics := make([]any, len(p.units))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k, u := range p.units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[k] = recover() }()
			for {
				t := int(next.Add(1)) - 1
				if t >= spec.Tenants {
					return
				}
				if errs[t] = u.prepare(spec, t); errs[t] != nil {
					return
				}
				u.mm.Run(func(i int, m *machine.Machine) func() bool {
					if i == 0 {
						return u.attackerStep(m, budget)
					}
					return u.victimStep(m, budget)
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
