// Package fault is the deterministic fault-injection layer: the
// component that makes the simulated attack fail the way real PThammer
// runs fail, so the escalation driver can be proven to diagnose and
// recover instead of assuming the golden path. Each Model simulates one
// adversity class at the seam where the real failure lives:
//
//   - eviction-decay — system noise degrades the measured eviction
//     sets: during bursts, members of every Prime stream are dropped
//     and the walk order rotates, so a minimal set intermittently stops
//     evicting and hammer pressure dips below the threshold;
//   - threshold-drift — thermal/contention drift perturbs timed
//     probes, so the latency thresholds Algorithm 1 calibrated no
//     longer sit cleanly between the cached and evicted populations;
//   - trr-suppress — an in-DRAM TRR-style sampler intercepts a
//     fraction of disturbance attempts before they can flip a cell
//     (rate 1.0 models a perfect mitigation: the module never flips);
//   - flip-misland — flips land outside the sprayed PTE surface: a
//     fraction of disturbance attempts are redirected onto a row of
//     attacker-owned (unsprayed) frames, wasting the damage;
//   - pair-invalidate — the OS invalidates the planned aggressor pair
//     mid-run (table migration/remap): once armed, every disturbance
//     attempt against the first victim row seen is suppressed, so only
//     replanning onto a different pair makes progress again.
//
// Like flip.Model, a fault Model is probabilistic but fully
// deterministic per seed, is bound to exactly one machine
// (machine.Config.FaultModel), and costs nothing when unset: every
// hook sits behind a nil check the hot path caches. The counters in
// Stats are the ground truth a Verdict reports as "faults observed".
//
// In the multi-core mode one bound Model serves every core: the
// deterministic interleaver runs exactly one core's quantum at a time,
// so the Model's hooks and rng are never entered concurrently and
// draw in a schedule-determined (hence reproducible) order.
package fault

import (
	"fmt"
	"math/rand"

	"pthammer/internal/dram"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// Class names one adversity class. The zero value is invalid: a Model
// always injects exactly one class (compose by running the seed matrix
// across classes, not by stacking models).
type Class string

// The fault classes, one per attack-path seam.
const (
	EvictionDecay  Class = "eviction-decay"
	ThresholdDrift Class = "threshold-drift"
	TRRSuppress    Class = "trr-suppress"
	FlipMisland    Class = "flip-misland"
	PairInvalidate Class = "pair-invalidate"
)

// Classes returns every fault class, in seam order.
func Classes() []Class {
	return []Class{EvictionDecay, ThresholdDrift, TRRSuppress, FlipMisland, PairInvalidate}
}

// The classes' fixed knobs, tuned so every class is observable on the
// escalation demo machine without being a foregone conclusion.
const (
	// eviction-decay: during a burst, each Prime-stream member is
	// dropped with probability dropRate and the walk order rotates by a
	// random offset. Bursts of burstPrimes Prime calls alternate with
	// quiet stretches of quietPrimes, starting quiet (so initial
	// eviction-set construction measures an honest machine and the
	// decay hits the sets it built).
	dropRate    = 0.3
	burstPrimes = 2500
	quietPrimes = 4000

	// threshold-drift: each timed probe is inflated by a uniform spike
	// in [1, driftMax] cycles with probability driftProb. Spikes only
	// add latency, mirroring real contention.
	driftProb = 0.25
	driftMax  = 400

	// flip-misland: a redirected attempt lands mislandRows rows away.
	mislandRows = 8

	// pair-invalidate: the first victim row the flip engine reports is
	// the armed pair; once triggerWindows end-of-window reports have
	// passed since arming, every attempt against that row is suppressed.
	triggerWindows = 8
)

// Config fixes one fault class, its seed and the two rates the
// robustness matrix varies. Only Class and Seed are required; a zero
// rate selects the class default.
type Config struct {
	Class Class
	// Seed drives the model's private random stream; the injected fault
	// sequence is a pure function of (Config, access sequence).
	Seed int64

	// trr-suppress: each disturbance attempt is intercepted with
	// probability SuppressRate; 1.0 is a perfect in-DRAM mitigation.
	SuppressRate float64

	// flip-misland: each disturbance attempt is redirected with
	// probability MislandRate onto the row mislandRows away (same bank,
	// same column) — attacker-owned frames outside the sprayed PTE
	// surface; 1.0 means no flip ever lands where it is exploitable.
	MislandRate float64
}

// WithDefaults returns the config with each zero rate replaced by the
// class default, 0.5.
func (c Config) WithDefaults() Config {
	if c.SuppressRate == 0 {
		c.SuppressRate = 0.5
	}
	if c.MislandRate == 0 {
		c.MislandRate = 0.5
	}
	return c
}

// Validate reports an error for an unknown class or an out-of-range
// rate (after defaults are applied).
func (c Config) Validate() error {
	switch c.Class {
	case EvictionDecay, ThresholdDrift, TRRSuppress, FlipMisland, PairInvalidate:
	default:
		return fmt.Errorf("fault: unknown class %q", string(c.Class))
	}
	rates := []struct {
		name string
		v    float64
	}{
		{"suppress rate", c.SuppressRate},
		{"misland rate", c.MislandRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s: %s %v outside [0,1]", c.Class, r.name, r.v)
		}
	}
	return nil
}

// Stats counts the faults a model actually injected — the "faults
// observed" a Verdict carries, and what tests assert to prove a class
// really fired.
type Stats struct {
	// PrimesFaulted counts Prime calls issued during a decay burst;
	// MembersDropped the stream members those bursts swallowed.
	PrimesFaulted  uint64
	MembersDropped uint64
	// ProbesPerturbed counts timed probes that took a drift spike.
	ProbesPerturbed uint64
	// AttemptsSuppressed counts disturbance attempts the TRR sampler or
	// an invalidated pair intercepted.
	AttemptsSuppressed uint64
	// FlipsRedirected counts disturbance attempts sent to a mislanded
	// row.
	FlipsRedirected uint64
	// PairsInvalidated is 1 once the armed pair's trigger has passed.
	PairsInvalidated uint64
}

// Total is the aggregate fault count across every seam.
func (s Stats) Total() uint64 {
	return s.MembersDropped + s.ProbesPerturbed + s.AttemptsSuppressed +
		s.FlipsRedirected + s.PairsInvalidated
}

// Model injects one fault class into one machine. Create it with
// NewModel, hand it to machine.Config.FaultModel (which binds it to the
// machine's DRAM geometry and subscribes it to the flip engine's
// injection points), and read the injected-fault counts back with
// Stats.
type Model struct {
	cfg Config
	rng *rand.Rand

	geom  dram.Config
	bound bool

	stats Stats

	// Eviction-decay burst bookkeeping: primes counts every Prime call,
	// inBurst caches whether the current call sits in a burst.
	primes  uint64
	inBurst bool

	// Pair-invalidate arming: the row where the first recorded flip
	// landed, and the window count at which suppression engages.
	armed                        bool
	armedChannel, armedRank      int
	armedBank                    int
	armedRow                     uint64
	armedAtWindow, currentWindow uint64
}

// NewModel validates the config (after applying class defaults) and
// builds an unbound model.
func NewModel(cfg Config) (*Model, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// MustNewModel is NewModel but panics on error.
func MustNewModel(cfg Config) *Model {
	m, err := NewModel(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the model's config with defaults applied.
func (m *Model) Config() Config { return m.cfg }

// Class returns the injected fault class.
func (m *Model) Class() Class { return m.cfg.Class }

// Stats returns the counts of faults injected so far.
func (m *Model) Stats() Stats { return m.stats }

// Bind attaches the model to one machine's DRAM geometry (needed to
// relocate mislanded flips). The machine facade calls it during
// construction; binding twice is an error because the model's random
// stream must belong to exactly one simulated run. Under flip-misland
// a bank needs at least 2 × mislandRows rows, so that every row has a
// row mislandRows above or below it to land on.
func (m *Model) Bind(geom dram.Config) error {
	if m.bound {
		return fmt.Errorf("fault: model already bound to a machine")
	}
	if err := geom.Validate(); err != nil {
		return err
	}
	if m.cfg.Class == FlipMisland && geom.Rows < 2*mislandRows {
		return fmt.Errorf("fault: %s moves a flip %d rows, so a bank needs at least %d rows (got %d)",
			FlipMisland, mislandRows, 2*mislandRows, geom.Rows)
	}
	m.geom = geom
	m.bound = true
	return nil
}

// Reset recycles the model for the next cohort on the same machine
// (the Reset/Recycle contract): the random stream, the fault counters,
// the decay-burst bookkeeping and — critically — the pair-invalidate
// arming all rewind to the just-built state, while the geometry
// binding stays. A fault armed by one cohort's flips can therefore
// never fire into the next cohort: the armed row, its trigger window
// and the window counter are all cleared, and a recycled model behaves
// bit-identically to a fresh NewModel(cfg).
func (m *Model) Reset() {
	m.rng.Seed(m.cfg.Seed)
	m.stats = Stats{}
	m.primes, m.inBurst = 0, false
	m.armed = false
	m.armedChannel, m.armedRank, m.armedBank = 0, 0, 0
	m.armedRow, m.armedAtWindow, m.currentWindow = 0, 0, 0
}

// PrimeStart is the machine's pre-Prime hook: it advances the decay
// burst cycle and returns the rotation offset the stream should start
// from (0 outside bursts — the stream walks in build order). n is the
// stream length.
//
//pthammer:noalloc
func (m *Model) PrimeStart(n int) int {
	if m.cfg.Class != EvictionDecay || n == 0 {
		return 0
	}
	m.inBurst = m.primes%(quietPrimes+burstPrimes) >= quietPrimes
	m.primes++
	if !m.inBurst {
		return 0
	}
	m.stats.PrimesFaulted++
	return m.rng.Intn(n)
}

// DropMember is the machine's per-member hook: inside a decay burst it
// drops the member with the configured probability.
//
//pthammer:noalloc
func (m *Model) DropMember() bool {
	if m.cfg.Class != EvictionDecay || !m.inBurst {
		return false
	}
	if m.rng.Float64() >= dropRate {
		return false
	}
	m.stats.MembersDropped++
	return true
}

// ProbeJitter is the machine's timed-probe hook: under threshold drift
// it returns the extra cycles to inflate this probe by (0 otherwise).
// The machine charges the spike to the shared clock so the
// clock/latency/PMC agreement invariant holds under drift too.
//
//pthammer:noalloc
func (m *Model) ProbeJitter() timing.Cycles {
	if m.cfg.Class != ThresholdDrift {
		return 0
	}
	if m.rng.Float64() >= driftProb {
		return 0
	}
	m.stats.ProbesPerturbed++
	return 1 + timing.Cycles(m.rng.Int63n(driftMax))
}

// OnWindow is the flip engine's window tick (flip.Injector): it drives
// the pair-invalidate trigger clock.
func (m *Model) OnWindow(window uint64) {
	m.currentWindow = window
	if m.cfg.Class == PairInvalidate && m.armed &&
		m.stats.PairsInvalidated == 0 &&
		window >= m.armedAtWindow+triggerWindows {
		m.stats.PairsInvalidated = 1
	}
}

// SuppressAttempt is the flip engine's per-attempt hook
// (flip.Injector): it reports whether this disturbance attempt is
// intercepted before it can flip anything. TRR suppression samples
// uniformly; pair invalidation arms on the first victim row reported
// and, once the trigger window count has passed, kills every attempt
// against that row (a replanned pair hammers a different row and is
// unaffected).
func (m *Model) SuppressAttempt(v dram.Victim) bool {
	switch m.cfg.Class {
	case TRRSuppress:
		if m.rng.Float64() < m.cfg.SuppressRate {
			m.stats.AttemptsSuppressed++
			return true
		}
	case PairInvalidate:
		if m.stats.PairsInvalidated > 0 &&
			v.Channel == m.armedChannel && v.Rank == m.armedRank &&
			v.Bank == m.armedBank && v.Row == m.armedRow {
			m.stats.AttemptsSuppressed++
			return true
		}
	}
	return false
}

// ObserveFlip is the flip engine's post-flip hook (flip.Injector):
// pair invalidation arms on the first recorded disturbance error — the
// simulated OS's ECC patrol spotting a corrupted page table — and,
// triggerWindows windows later, has migrated the table away: every
// further attempt against that row is suppressed. Flips the patrol
// never sees (suppressed or vanished attempts) never arm it.
func (m *Model) ObserveFlip(v dram.Victim) {
	if m.cfg.Class != PairInvalidate || m.armed {
		return
	}
	m.armed = true
	m.armedChannel, m.armedRank, m.armedBank = v.Channel, v.Rank, v.Bank
	m.armedRow = v.Row
	m.armedAtWindow = m.currentWindow
}

// RedirectFlip is the flip engine's cell-address hook (flip.Injector):
// under flip-misland it relocates the candidate cell onto the row
// mislandRows away in the same bank (same column), reflecting off the
// top of the bank when the offset runs out of rows. ok is false when
// the attempt stays where the disturbance put it.
func (m *Model) RedirectFlip(addr phys.Addr, bit uint) (phys.Addr, uint, bool) {
	if m.cfg.Class != FlipMisland || !m.bound {
		return addr, bit, false
	}
	if m.rng.Float64() >= m.cfg.MislandRate {
		return addr, bit, false
	}
	loc := m.geom.Map(addr)
	if loc.Row+mislandRows < m.geom.Rows {
		loc.Row += mislandRows
	} else {
		loc.Row -= mislandRows
	}
	m.stats.FlipsRedirected++
	return m.geom.AddrOf(loc), bit, true
}

// Scenario is one named cell of the robustness matrix: a fault config
// (nil for the fault-free control) plus whether the budgeted escalation
// driver is expected to recover from it. The matrix is shared by the
// cmd/pthammer-flip robustness table and the CI seed-matrix job so they
// can never test different classes.
type Scenario struct {
	Name string
	// Recoverable marks classes the driver must route around (CI
	// asserts a success-rate floor); unrecoverable classes must instead
	// produce a structured abort within budget on every seed.
	Recoverable bool
	// Config is nil for the fault-free control row.
	Config *Config
}

// Matrix returns the standard robustness matrix: the fault-free
// control, every class at its recoverable defaults, and the two
// perfect-mitigation variants no attacker can beat (suppress-all,
// misland-all). Seed is left zero; runners stamp the per-run seed.
func Matrix() []Scenario {
	return []Scenario{
		{Name: "none", Recoverable: true, Config: nil},
		{Name: string(EvictionDecay), Recoverable: true, Config: &Config{Class: EvictionDecay}},
		{Name: string(ThresholdDrift), Recoverable: true, Config: &Config{Class: ThresholdDrift}},
		{Name: string(TRRSuppress), Recoverable: true, Config: &Config{Class: TRRSuppress}},
		{Name: string(FlipMisland), Recoverable: true, Config: &Config{Class: FlipMisland}},
		{Name: string(PairInvalidate), Recoverable: true, Config: &Config{Class: PairInvalidate}},
		{Name: string(TRRSuppress) + "-all", Recoverable: false, Config: &Config{Class: TRRSuppress, SuppressRate: 1}},
		{Name: string(FlipMisland) + "-all", Recoverable: false, Config: &Config{Class: FlipMisland, MislandRate: 1}},
	}
}
