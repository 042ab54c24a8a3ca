package machine

import (
	"reflect"
	"testing"

	"pthammer/internal/dram"
	"pthammer/internal/fault"
	"pthammer/internal/flip"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// resetTrace is everything observable a workload leaves behind on a
// machine. The reset-equivalence difftest demands bit-identity of this
// whole record between a freshly constructed machine and a recycled
// one — that identity is the Reset/Recycle contract the cohort
// scheduler and the sweep workers rest on.
type resetTrace struct {
	Clock        timing.Cycles
	Counters     perf.Snapshot
	Hammer       dram.Stats
	Flips        []flip.Flip
	Attempts     uint64
	Misses       uint64
	Windows      uint64
	Faults       fault.Stats
	PrivFlushes  uint64
	PrivInvlpgs  uint64
	Materialized int
	Writes       uint64
}

func traceOf(m *Machine) resetTrace {
	tr := resetTrace{
		Clock:        m.Clock().Now(),
		Counters:     m.Counters().Snapshot(),
		Hammer:       m.HammerStats(),
		Materialized: m.Memory().Materialized(),
		Writes:       m.Memory().WriteCount(),
	}
	tr.PrivFlushes, tr.PrivInvlpgs = m.PrivilegedOps()
	if fm := m.FlipModel(); fm != nil {
		tr.Flips = append([]flip.Flip(nil), fm.Flips()...)
		tr.Attempts, tr.Misses, tr.Windows = fm.Attempts(), fm.Misses(), fm.Windows()
	}
	if fam := m.FaultModel(); fam != nil {
		tr.Faults = fam.Stats()
	}
	return tr
}

// resetVariant describes one seeded configuration of the property
// test: which optional engines are wired and with what seeds.
type resetVariant struct {
	name  string
	noise bool
	flip  bool
	fault bool
	seed  int64
}

func resetVariants() []resetVariant {
	return []resetVariant{
		{name: "quiet", seed: 3},
		{name: "noisy", noise: true, seed: 5},
		{name: "flip", flip: true, seed: 1},
		{name: "flip-seed9", flip: true, seed: 9},
		{name: "flip-fault", flip: true, fault: true, seed: 2},
		{name: "noisy-flip-fault", noise: true, flip: true, fault: true, seed: 7},
	}
}

// buildResetMachine constructs a fresh machine for the variant. Models
// are one-shot bound, so every call builds fresh ones.
func buildResetMachine(t *testing.T, v resetVariant) *Machine {
	t.Helper()
	cfg := SandyBridge()
	cfg.DRAM.HammerThreshold = 24
	cfg.DRAM.RefreshWindow = 25_000
	if v.noise {
		cfg.NoiseSeed = v.seed
		cfg.NoiseProb = 0.3
		cfg.NoiseMin = 100
		cfg.NoiseMax = 400
	}
	if v.flip {
		cfg.FlipModel = flip.MustNewModel(flip.ClassA(), v.seed)
	}
	if v.fault {
		fm, err := fault.NewModel(fault.Config{Class: fault.PairInvalidate, Seed: v.seed})
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultModel = fm
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// resetWorkload drives a seed-parameterised mix of everything the
// facade offers — stores (materializing victim-row content flips can
// land in), flush-hammer traffic across refresh windows, translations,
// probes, an invlpg — and returns the machine's trace.
func resetWorkload(m *Machine, seed int64) resetTrace {
	geom := m.Config().DRAM
	rowA := uint64(100 + seed%7)
	above := geom.AddrOf(dram.Location{Row: rowA})
	below := geom.AddrOf(dram.Location{Row: rowA + 2})
	victim := geom.AddrOf(dram.Location{Row: rowA + 1})
	// Materialize victim-row frames so sampled flips can apply.
	for k := uint64(0); k < 8; k++ {
		m.Store64(victim+phys.Addr(k*512), ^uint64(0))
	}
	iters := 150 + int(seed%5)*40
	for i := 0; i < iters; i++ {
		m.Load(above)
		m.Flush(above)
		m.Load(below)
		m.Flush(below)
		if i%17 == 3 {
			m.Translate(above + phys.Addr(64*uint64(i%8)))
		}
		if i%29 == 11 {
			m.Probe(below)
		}
	}
	m.InvalidatePage(above)
	m.Load(above)
	return traceOf(m)
}

// TestResetEquivalence is the reset-equivalence difftest: over seeded
// configs (noise on/off, flip model, fault model), a machine that ran
// a dirtying workload and was recycled with Reset must produce a
// bit-identical Clock/PMC/HammerStats/Flips trace to a freshly
// constructed machine running the same workload.
func TestResetEquivalence(t *testing.T) {
	for _, v := range resetVariants() {
		t.Run(v.name, func(t *testing.T) {
			fresh := buildResetMachine(t, v)
			want := resetWorkload(fresh, v.seed)
			if v.flip && len(want.Flips) == 0 {
				t.Fatal("workload produced no flips; the property would be vacuous for this variant")
			}

			recycled := buildResetMachine(t, v)
			resetWorkload(recycled, v.seed+13) // dirty with a different workload
			recycled.Reset()
			got := resetWorkload(recycled, v.seed)

			if !reflect.DeepEqual(want, got) {
				t.Errorf("recycled trace diverged from fresh:\nfresh:    %+v\nrecycled: %+v", want, got)
			}
		})
	}

	// The sweep engine's variant: a noisy machine built with seed A,
	// dirtied, then recycled with ResetWithNoiseSeed(B) must replay a
	// fresh machine built with NoiseSeed B.
	t.Run("noisy-reseeded", func(t *testing.T) {
		const seedA, seedB = 5, 8
		want := resetWorkload(buildResetMachine(t, resetVariant{noise: true, seed: seedB}), seedB)
		if other := resetWorkload(buildResetMachine(t, resetVariant{noise: true, seed: seedA}), seedB); reflect.DeepEqual(want, other) {
			t.Fatal("noise seeds A and B give identical traces; the property would be vacuous")
		}

		recycled := buildResetMachine(t, resetVariant{noise: true, seed: seedA})
		resetWorkload(recycled, seedA)
		recycled.ResetWithNoiseSeed(seedB)
		if got := recycled.Config().NoiseSeed; got != seedB {
			t.Errorf("Config().NoiseSeed after ResetWithNoiseSeed = %d, want %d", got, seedB)
		}
		if got := resetWorkload(recycled, seedB); !reflect.DeepEqual(want, got) {
			t.Errorf("reseeded trace diverged from fresh:\nfresh:    %+v\nrecycled: %+v", want, got)
		}
	})
}

// TestMultiResetEquivalence extends the difftest to the multi-tenant
// machine: a recycled MultiMachine must replay the interleaved
// workload bit-identically to a fresh one — per-core clocks, grant
// log, PMCs, hammer stats, flips, and both tenants' table state.
func TestMultiResetEquivalence(t *testing.T) {
	build := func() *MultiMachine {
		cfg := SandyBridge()
		cfg.DRAM.HammerThreshold = 24
		cfg.DRAM.RefreshWindow = 25_000
		cfg.FlipModel = flip.MustNewModel(flip.ClassB(), 4)
		return MustNewMulti(MultiConfig{Config: cfg, Cores: 2, Tenants: 2})
	}
	run := func(mm *MultiMachine) ([]int, []resetTrace, []int) {
		var log []int
		mm.Run(func(i int, m *Machine) func() bool {
			base := phys.Addr(uint64(i) * (8 << 20))
			n := 0
			return func() bool {
				log = append(log, i)
				for end := min(n+8, 300); n < end; n++ {
					m.Load(base + phys.Addr(uint64(n%96)*4096+uint64(n)*64))
				}
				return n < 300
			}
		})
		var traces []resetTrace
		for i := 0; i < mm.NumCores(); i++ {
			traces = append(traces, traceOf(mm.Core(i)))
		}
		var allocated []int
		for tn := 0; tn < mm.Tenants(); tn++ {
			allocated = append(allocated, mm.Tables(tn).Allocated())
		}
		return log, traces, allocated
	}

	wantLog, wantTraces, wantAlloc := run(build())

	mm := build()
	// Dirty with a different schedule, including cross-tenant mappings.
	mm.Run(func(i int, m *Machine) func() bool {
		n := 0
		return func() bool {
			for end := min(n+4, 150); n < end; n++ {
				m.Load(phys.Addr(uint64(i)*(4<<20) + uint64(n)*8192))
			}
			return n < 150
		}
	})
	mm.Reset()
	gotLog, gotTraces, gotAlloc := run(mm)

	if !reflect.DeepEqual(wantLog, gotLog) {
		t.Errorf("grant log diverged after recycle: fresh %v, recycled %v", wantLog, gotLog)
	}
	if !reflect.DeepEqual(wantTraces, gotTraces) {
		t.Errorf("per-core traces diverged after recycle:\nfresh:    %+v\nrecycled: %+v", wantTraces, gotTraces)
	}
	if !reflect.DeepEqual(wantAlloc, gotAlloc) {
		t.Errorf("table allocation diverged after recycle: fresh %v, recycled %v", wantAlloc, gotAlloc)
	}
}
