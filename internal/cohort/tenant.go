// Per-tenant simulation: the micro machine every cohort unit runs, the
// fixed tenant geometry probed from it, and the attacker/victim stream
// bodies one tenant's run executes.
//
// Every tenant is one attacker/victim pair on a two-core, two-tenant
// machine.Config scaled down ~1000× from the SandyBridge preset, so a
// full population of thousands of tenants stays a few seconds of wall
// clock. The attack is the cross-tenant chain of
// bench.RunCrossTenantEscalation in miniature: with interleaved table
// striping, two of the attacker's own leaf-PT bank-rows sandwich a
// bank-row of the victim's tables, and the attacker hammers them with
// nothing but loads — a PTE-line ring larger than the LLC's ways keeps
// every page walk's leaf fetch missing to DRAM. With blocked striping
// the same search can only find adjacent attacker rows, no victim row
// is sandwiched, and the population's breach rate collapses — the
// defensive contrast the mt-population tables exist to show.
//
// The victim keeps a small page set TLB-resident and streams loads
// through it, so its traffic dilutes the attacker's pressure (bank
// arbitration plus row closures on the shared banks) without ever
// walking its own tables mid-run — a flipped victim entry is therefore
// only ever read through the bounds-guarded pagetable.Resolve, never
// followed by the hardware walker.
package cohort

import (
	"fmt"

	"pthammer/internal/cache"
	"pthammer/internal/dram"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/pagetable"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
	"pthammer/internal/tlb"
)

const (
	// tenantMemBytes must equal the micro DRAM geometry's capacity:
	// 1 channel × 1 rank × 4 banks × 1024 rows × 8 KiB.
	tenantMemBytes = 32 << 20
	tenantFreq     = 3_400_000_000

	// tenantWindow is the micro refresh window: long enough for the
	// attacker to land ~130 aggressor activations per window, short
	// enough that a whole tenant run is a few hundred microseconds.
	tenantWindow = timing.Cycles(60_000)

	// tenantThreshold sits inside the attacker's pressure band
	// (calibrated: per-window aggressor-pair pressure runs ~156 against
	// an idle victim down to ~143 against one streaming constantly): an
	// undisturbed double-sided tenant crosses it, a tenant whose victim
	// streams hard does not — which is what makes the population's
	// dilution rate a distribution rather than a constant, and ties
	// dilution to flip eligibility, since the flip model gates on the
	// same threshold.
	tenantThreshold = 149

	// attackerRegions is how many 2 MiB regions the attacker touches at
	// setup. Ten leaf PTs push allocations into the attacker pool's
	// second row index, which is what creates same-bank PT pairs two
	// rows apart under interleaved striping.
	attackerRegions = 10

	// The victim premaps two regions (the sprayed surface whose PTEs a
	// cross-tenant flip can land in) and streams over a third.
	victimSprayRegion  = 10
	victimSprayRegions = 2
	victimStreamRegion = 12

	// ringPagesPerRegion × 2 PTE lines cycle through the LLC's sets at
	// 6 lines per 4-way set, so under LRU every leaf-PTE fetch misses
	// the whole hierarchy and activates its PT's DRAM row.
	ringPagesPerRegion = 48
	ringPageStride     = 8

	// The victim's stream set: 4 pages, 9 pages apart so their dTLB
	// sets don't alias, giving 256 cache lines — past the micro LLC's
	// 64 — that cycle as pure TLB-hit loads.
	victimStreamPages      = 4
	victimStreamPageStride = 9

	// Quantum shapes: the attacker hammers attackerQuantum loads per
	// interleaver grant — small, so a busy victim's accesses interleave
	// between hammer iterations and steal bank-arbitration slots per
	// iteration, not per quantum. The victim's activity is two-tiered
	// randomness: each tenant draws an intensity level (how
	// memory-hungry this victim process is, 0..victimLevels-1) that
	// sets its duty cycle — each quantum it either issues a burst of
	// victimBurst loads (probability level/(victimLevels-1)) or idles
	// for victimIdleStep cycles. A busy victim dilutes the attacker's
	// per-window pressure below the threshold; a quiet one leaves it at
	// full rate. The level draw is what spreads dilution across the
	// population instead of saturating it.
	attackerQuantum = 1
	victimLevels    = 5
	victimBurst     = 2
	// victimIdleStep advances an idle victim's clock in lieu of loads,
	// so a quiet tenant cannot livelock the lowest-clock-first
	// interleaver.
	victimIdleStep = timing.Cycles(600)
)

// tenantConfig is the micro machine one cohort unit is built from.
// Caches and TLBs are scaled with the memory so the attack's working
// set behaves as on the full preset: the ring overflows every level.
func tenantConfig(model *flip.Model) machine.Config {
	return machine.Config{
		MemBytes: tenantMemBytes,
		FreqHz:   tenantFreq,
		Lat:      timing.DefaultLatencies(),
		DRAM: dram.Config{
			Channels:        1,
			RanksPerChannel: 1,
			BanksPerRank:    4,
			Rows:            1024,
			RowBytes:        8192,
			RefreshWindow:   tenantWindow,
			HammerThreshold: tenantThreshold,
		},
		L1:        cache.Config{SizeBytes: 1 << 10, Ways: 4, LineBytes: 64},
		L2:        cache.Config{SizeBytes: 2 << 10, Ways: 4, LineBytes: 64},
		LLC:       cache.Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64},
		TLB:       tlb.Config{L1Entries: 8, L1Ways: 4, L2Entries: 16, L2Ways: 4},
		FlipModel: model,
	}
}

// regionBase returns the base virtual address of 2 MiB region r.
func regionBase(r int) phys.Addr {
	return phys.Addr(uint64(r) * pagetable.Span(2))
}

// geometry is the tenant-invariant shape of the attack, probed once
// per pool from a scratch tenant: because every tenant performs the
// same setup in the same order, the table pools allocate identically
// and the pair search lands on the same rows for all of them. Only the
// flip-model seed and the victim's jitter differ between tenants.
type geometry struct {
	// ring is the attacker's hammer ring: loads alternating between
	// the two pair regions, each walk's leaf-PTE fetch activating one
	// of the two aggressor rows.
	ring []phys.Addr
	// locA/locB are the aggressor rows (the pair PTs' bank-rows).
	locA, locB dram.Location
	// sandwiched reports whether a victim table bank-row lies between
	// the aggressor rows; victimRow is its row index when it does.
	// Blocked striping yields no sandwich — the defensive case.
	sandwiched bool
	victimRow  uint64
	// spray is every page of the victim's premapped regions, the
	// surface scanned for breached translations after the run.
	spray []phys.Addr
	// stream is the victim's TLB-resident load set.
	stream []phys.Addr
}

// setupTenant performs the deterministic per-tenant construction on a
// freshly reset unit: the attacker touches its regions in a fixed
// order (fixing the table pool's allocation order, and with it the
// pair geometry), the victim premaps its spray and warms its stream
// pages into the TLB. Must be followed by MultiMachine.AlignClocks
// before the measured run.
func setupTenant(mm *machine.MultiMachine) {
	attacker, victim := mm.Core(0), mm.Core(1)
	for r := 0; r < attackerRegions; r++ {
		attacker.Load(regionBase(r))
	}
	victim.Premap(regionBase(victimSprayRegion), uint64(victimSprayRegions)*pagetable.Span(2))
	for k := 0; k < victimStreamPages; k++ {
		victim.Load(streamPage(k))
	}
}

// streamPage returns the k-th page of the victim's stream set.
func streamPage(k int) phys.Addr {
	return regionBase(victimStreamRegion) + phys.Addr(uint64(k)*victimStreamPageStride*phys.FrameSize)
}

// probeGeometry derives the tenant geometry from a set-up scratch
// tenant. It searches the attacker's leaf-PT bank-rows for the
// closest same-bank pair, preferring one exactly two rows apart with a
// victim table bank-row sandwiched between (the attack surface
// interleaved striping creates); blocked striping falls back to an
// adjacent own-row pair, which pressures no victim row at all.
func probeGeometry(mm *machine.MultiMachine) (geometry, error) {
	var g geometry
	geom := mm.DRAM().Config()
	locs := make([]dram.Location, attackerRegions)
	for r := range locs {
		pte, ok := mm.Core(0).PTEAddr(regionBase(r), 1)
		if !ok {
			return g, fmt.Errorf("cohort: attacker region %d has no leaf PTE after setup", r)
		}
		locs[r] = geom.Map(pte)
	}

	// Best pair: sandwiching a victim row beats everything; then the
	// smallest same-bank row distance; ties resolve to the first pair
	// in dram.Pairs scan order, keeping the probe deterministic.
	a, b, best := -1, -1, uint64(0)
	for lo, hi := range dram.Pairs(locs) {
		dist := locs[hi].Row - locs[lo].Row
		mid := locs[lo]
		mid.Row++
		sandwich := dist == 2 && mm.TablesInRow(1, mid)
		if a < 0 || (sandwich && !g.sandwiched) || (sandwich == g.sandwiched && dist < best) {
			a, b, best, g.sandwiched = lo, hi, dist, sandwich
		}
	}
	if a < 0 {
		return g, fmt.Errorf("cohort: no same-bank attacker PT pair among %d regions", attackerRegions)
	}
	g.locA, g.locB = locs[a], locs[b]
	if g.sandwiched {
		g.victimRow = g.locA.Row + 1
	}

	// The hammer ring: pages of the two pair regions interleaved, PTE
	// lines 64 bytes apart so they cycle the LLC's sets.
	g.ring = make([]phys.Addr, 0, 2*ringPagesPerRegion)
	for i := 0; i < ringPagesPerRegion; i++ {
		off := phys.Addr(uint64(i) * ringPageStride * phys.FrameSize)
		g.ring = append(g.ring, regionBase(a)+off, regionBase(b)+off)
	}

	pages := int(victimSprayRegions * pagetable.Span(2) / phys.FrameSize)
	g.spray = make([]phys.Addr, 0, pages)
	for p := 0; p < pages; p++ {
		g.spray = append(g.spray, regionBase(victimSprayRegion)+phys.Addr(uint64(p)*phys.FrameSize))
	}
	g.stream = make([]phys.Addr, 0, victimStreamPages*linesPerPage)
	for k := 0; k < victimStreamPages; k++ {
		for l := 0; l < linesPerPage; l++ {
			g.stream = append(g.stream, streamPage(k)+phys.Addr(uint64(l)*64))
		}
	}
	return g, nil
}

const linesPerPage = int(phys.FrameSize / 64)

// attackerBody returns the attacker's stream body for one tenant: ring
// loads in quanta of attackerQuantum, sampling the sandwiched victim
// row's live pressure after each quantum.
func (u *unit) attackerBody(budget timing.Cycles) func(yield func()) {
	return func(yield func()) {
		m := u.attacker
		d := m.DRAM()
		start := m.Clock().Now()
		i := 0
		for m.Clock().Now()-start < budget {
			for k := 0; k < attackerQuantum; k++ {
				m.Load(u.geo.ring[i])
				if i++; i == len(u.geo.ring) {
					i = 0
				}
			}
			u.out.Iterations += attackerQuantum
			if u.geo.sandwiched {
				if p := d.Activations(u.geo.locA) + d.Activations(u.geo.locB); p > u.out.PeakPressure {
					u.out.PeakPressure = p
				}
			}
			yield()
		}
	}
}

// victimBody returns the victim's stream body: duty-cycled bursts of
// TLB-hit loads over its resident page set — DRAM traffic that closes
// the attacker's open rows and steals bank-arbitration slots without
// ever walking the victim's (flippable) tables. The tenant's intensity
// level sets the burst probability per quantum, so a level-0 victim is
// genuinely idle and a level-(victimLevels-1) one streams constantly.
func (u *unit) victimBody(budget timing.Cycles) func(yield func()) {
	return func(yield func()) {
		m := u.victim
		start := m.Clock().Now()
		cursor := 0
		for m.Clock().Now()-start < budget {
			if u.nextJitter()%uint64(victimLevels-1) < u.level {
				for k := 0; k < victimBurst; k++ {
					m.Load(u.geo.stream[cursor])
					if cursor++; cursor == len(u.geo.stream) {
						cursor = 0
					}
				}
			} else {
				m.Clock().Advance(victimIdleStep)
			}
			yield()
		}
	}
}
