// Package bench defines the repository's standard performance
// scenarios as testing.B bodies. They are the single source of truth
// shared by the in-tree benchmarks (internal/machine) and the
// cmd/pthammer-bench reporter, so CI's smoke runs and the committed
// BENCH_NNNN.json baselines can never measure different loops.
package bench

import (
	"testing"

	"pthammer/internal/dram"
	"pthammer/internal/evset"
	"pthammer/internal/fault"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/mem"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/sweep"
	"pthammer/internal/timing"
)

// Scenario is one standard measurement: a name, the number of
// simulated loads a single benchmark op performs (for loads/sec
// reporting; 0 = not load-shaped), and the benchmark body.
type Scenario struct {
	Name       string
	LoadsPerOp int
	// SteadyState marks scenarios whose measured loop must not
	// allocate: the CI regression gate (pthammer-bench -check) fails
	// them on any allocs/op and on >25% ns/op regressions against the
	// latest committed baseline.
	SteadyState bool
	Run         func(b *testing.B)
}

func newMachine() *machine.Machine {
	return machine.MustNew(machine.SandyBridge())
}

// Scenarios returns the standard list:
//
//	warm-load            all-hit fast path (dTLB + L1 every iteration)
//	flush-hammer-loop    clflush two same-bank aggressors, load them back
//	implicit-hammer-loop flush-free PThammer: eviction-set walks + loads,
//	                     the walker's PTE fetches do the hammering
//	                     (HammerOnce)
//	implicit-hammer-priv privileged baseline: invlpg + clflush + load
//	                     (HammerOncePrivileged)
//	pte-flip-escalation  full attack: hammer until a PTE flips, detect,
//	                     rewrite own PTEs through the corrupted mapping
//	resilient-escalation budgeted driver recovering from a mid-run
//	                     aggressor-pair invalidation via replanning
//	escalation-planner   the planner's candidate scan and pair ranking
//	                     alone, on a fresh demo machine per op
//	mt-colocated-amplify two co-located attacker cores double the victim
//	                     row's pressure past a threshold one core cannot reach
//	mt-noisy-neighbour   a streaming bystander tenant dilutes the attacker's
//	                     pressure below the threshold (co-tenancy as defence)
//	mt-cross-tenant-escalation striped table pools: hammering the attacker's
//	                     own PTE rows flips a victim tenant's PTE, mapping a
//	                     victim page onto an attacker frame
//	cold-load-sweep      stride past cache and TLB reach, full-miss loads
//	tlb-thrash           page stride past sTLB reach, walk-heavy loads
//	loadn-batch-64       batched LoadN over a reused result buffer
//	dram-recycle-reset   cohort-turnover recycle of a large module with a
//	                     small touched set; pins the O(banks + touched)
//	                     epoch-lazy reset
//	sweep-engine         parallel Figure 5/6 padding sweep, end to end
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "warm-load",
			LoadsPerOp:  1,
			SteadyState: true,
			Run: func(b *testing.B) {
				m := newMachine()
				m.Load(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Load(0)
				}
			},
		},
		{
			// The paper's explicit hammer primitive: clflush two
			// same-bank different-row aggressors (rows 1 and 3, the
			// double-sided pair around victim row 2), then load them
			// back so every load goes to DRAM and activates a row.
			// This is the loop Algorithm 1 and the hammer phase
			// multiply by millions.
			Name:        "flush-hammer-loop",
			LoadsPerOp:  2,
			SteadyState: true,
			Run: func(b *testing.B) {
				m := newMachine()
				geom := m.DRAM().Config()
				a1 := geom.AddrOf(dram.Location{Row: 1})
				a2 := geom.AddrOf(dram.Location{Row: 3})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Flush(a1)
					m.Flush(a2)
					m.Load(a1)
					m.Load(a2)
				}
			},
		},
		{
			// PThammer's actual attack loop: walk the measured TLB and
			// leaf-PTE LLC eviction sets, then load — the page walk's
			// implicit KindPTEFetch accesses are the only thing reaching
			// the aggressor rows, and no privileged operation is issued.
			// LoadsPerOp counts the two hammer probes, not the eviction
			// streams, so loads/sec reads as hammer activations per
			// second and stays comparable with the privileged baseline.
			Name:        "implicit-hammer-loop",
			LoadsPerOp:  2,
			SteadyState: true,
			Run: func(b *testing.B) {
				m := newMachine()
				h, err := NewImplicitHammer(m, 256, evset.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.HammerOnce(m)
				}
			},
		},
		{
			// The privileged upper bound the eviction-driven loop chases:
			// same pair, but invlpg and clflush instead of the streams.
			Name:        "implicit-hammer-priv",
			LoadsPerOp:  2,
			SteadyState: true,
			Run: func(b *testing.B) {
				m := newMachine()
				pair, ok := FindImplicitAggressors(m, 256)
				if !ok {
					b.Fatal("no implicit aggressor pair in geometry")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pair.HammerOncePrivileged(m)
				}
			},
		},
		{
			// The paper's end-to-end payoff, measured as one op: one
			// attempt of the budgeted driver (no backoff, no tiers)
			// builds the spray layout and eviction sets on a recycled
			// demo machine, hammers across refresh windows (rescanning
			// the sprayed translations once per window) until the
			// class-A flip model corrupts a sprayed PTE exploitably,
			// detects the corruption from user space, and rewrites a
			// PTE through it. Not steady-state (each op constructs a
			// whole attack) and not load-shaped; the figure of merit is
			// wall-clock per escalation.
			Name: "pte-flip-escalation",
			Run: func(b *testing.B) {
				w := DefaultBudget().MaxWindows
				for i := 0; i < b.N; i++ {
					v, err := RunEscalationResilient(flip.ClassA(), 1, nil, Budget{MaxWindows: w, AttemptWindows: w})
					if err != nil {
						b.Fatal(err)
					}
					if !v.Success {
						b.Fatalf("escalation failed: %+v", v)
					}
				}
			},
		},
		{
			// The robustness tentpole measured as one op: the budgeted
			// escalation driver recovering from a mid-run aggressor-pair
			// invalidation by replanning onto the next-ranked pair. Seed
			// 2 is the fixture whose fault actually fires (the armed row
			// goes dead and tier 2 engages). Not steady-state: each op
			// builds a whole machine and attack.
			Name: "resilient-escalation",
			Run: func(b *testing.B) {
				fc := &fault.Config{Class: fault.PairInvalidate}
				for i := 0; i < b.N; i++ {
					v, err := RunEscalationResilient(flip.ClassA(), 2, fc, DefaultBudget())
					if err != nil {
						b.Fatal(err)
					}
					if !v.Success || v.Replans == 0 {
						b.Fatalf("driver did not recover via replan: %+v", v)
					}
				}
			},
		},
		{
			// The planner-ranking layer on its own: one
			// NewEscalationPlanner per op — touching the seed regions,
			// indexing the jackpot surface and ranking every candidate
			// pair — on a fresh demo machine built with the timer
			// stopped. Not steady-state: each op demand-allocates page
			// tables and builds the ranking.
			Name: "escalation-planner",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m := machine.MustNew(EscalationConfig(flip.MustNewModel(flip.ClassA(), 1)))
					b.StartTimer()
					if _, err := NewEscalationPlanner(m); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// Two co-located attacker cores hammering the same aggressor
			// pair under the deterministic interleaver: the solo arm must
			// stay below the flip threshold and the duo arm must cross
			// it. Not steady-state: each op builds two multi-core
			// machines and runs both arms.
			Name: "mt-colocated-amplify",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := RunColocatedAmplify(4, 4)
					if err != nil {
						b.Fatal(err)
					}
					if res.SoloFlips != 0 || res.DuoFlips == 0 {
						b.Fatalf("co-location did not gate the flips: %+v", res)
					}
				}
			},
		},
		{
			// The same attacker next to a memory-streaming bystander
			// tenant: the bystander's DRAM churn must dilute the
			// attacker's pressure below the threshold that the quiet arm
			// crosses.
			Name: "mt-noisy-neighbour",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := RunNoisyNeighbour(4, 4)
					if err != nil {
						b.Fatal(err)
					}
					if res.QuietFlips == 0 || res.NoisyFlips != 0 {
						b.Fatalf("bystander did not dilute the flips: %+v", res)
					}
				}
			},
		},
		{
			// The full cross-tenant chain on striped table pools: the
			// attacker hammers its own leaf-PTE rows, a flip lands in the
			// victim tenant's sandwiched table row, and a victim page
			// remaps onto an attacker-owned frame. Seed 1 breaches in ~23
			// refresh windows.
			Name: "mt-cross-tenant-escalation",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := RunCrossTenantEscalation(1, 60)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Breached {
						b.Fatalf("no cross-tenant breach: %+v", res)
					}
				}
			},
		},
		{
			// Stride one line past a page so every iteration misses the
			// caches and the TLB; the address space is premapped so the
			// measured loop walks tables without demand-allocating them.
			Name:        "cold-load-sweep",
			LoadsPerOp:  1,
			SteadyState: true,
			Run: func(b *testing.B) {
				m := newMachine()
				size := m.Memory().Size()
				m.Premap(0, size)
				var a phys.Addr
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Load(a)
					a += 4096 + 64
					if uint64(a) >= size {
						a = 0
					}
				}
			},
		},
		{
			// Whole-page stride across twice the sTLB reach, so
			// translations keep walking while data stays cached.
			Name:        "tlb-thrash",
			LoadsPerOp:  1,
			SteadyState: true,
			Run: func(b *testing.B) {
				m := newMachine()
				pages := uint64(m.Config().TLB.L2Entries * 2)
				m.Premap(0, pages*phys.FrameSize)
				var p uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Load(phys.Addr(p * phys.FrameSize))
					p++
					if p >= pages {
						p = 0
					}
				}
			},
		},
		{
			Name:        "loadn-batch-64",
			LoadsPerOp:  64,
			SteadyState: true,
			Run: func(b *testing.B) {
				m := newMachine()
				addrs := make([]phys.Addr, 64)
				for i := range addrs {
					addrs[i] = phys.Addr(i * 4096)
				}
				buf := make([]mem.Result, 0, len(addrs))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = m.LoadN(addrs, buf[:0])
				}
			},
		},
		{
			// The Reset/Recycle cost pin: one cohort slice's worth of
			// DRAM traffic (64 touched rows) followed by a recycle on a
			// 2^16-row module. Port.Reset is contractually
			// O(banks + touched rows); an implementation that scrubbed
			// the per-row ACT arrays instead of epoch-bumping would be
			// orders of magnitude slower here and trip the gate, which
			// is how cohort turnover is kept from silently reintroducing
			// an O(rows) scrub.
			Name:        "dram-recycle-reset",
			LoadsPerOp:  64,
			SteadyState: true,
			Run: func(b *testing.B) {
				cfg := dram.Config{
					Channels: 1, RanksPerChannel: 1, BanksPerRank: 8,
					Rows: 1 << 16, RowBytes: 8192,
					HammerThreshold: 100,
				}
				clock := timing.MustNewClock(3_400_000_000)
				d, err := dram.New(cfg, clock, &perf.Counters{}, timing.DefaultLatencies())
				if err != nil {
					b.Fatal(err)
				}
				addrs := make([]mem.Access, 64)
				for r := range addrs {
					addrs[r] = mem.Access{Addr: cfg.AddrOf(dram.Location{Row: uint64(r) * 11})}
				}
				// Warm the per-bank touched-slice capacity so the
				// measured loop is allocation-free.
				for _, a := range addrs {
					d.Lookup(a)
				}
				d.Reset()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, a := range addrs {
						d.Lookup(a)
					}
					d.Reset()
				}
			},
		},
		{
			Name: "sweep-engine",
			// 11 paddings × 40 reps × 8 addrs.
			LoadsPerOp: 11 * 40 * 8,
			Run: func(b *testing.B) {
				cfg := machine.SandyBridge()
				cfg.NoiseProb = 0.1
				cfg.NoiseMin = 100
				cfg.NoiseMax = 500
				spec := sweep.Spec{
					Machine:      cfg,
					Addrs:        []phys.Addr{0, 0x1000, 0x2000, 0x41000, 0x82000, 0x200000, 0x5000, 0x6000},
					PadMin:       0,
					PadMax:       100,
					PadStep:      10,
					Reps:         40,
					FlushBetween: true,
					BaseSeed:     42,
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sweep.Run(spec); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}
}
