package sweep

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pthammer/internal/fault"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// testSpec is a small but non-trivial sweep: noisy machine, flushes on,
// a handful of pages, several padding points.
func testSpec() Spec {
	cfg := machine.SandyBridge()
	cfg.NoiseProb = 0.2
	cfg.NoiseMin = 100
	cfg.NoiseMax = 400
	return Spec{
		Machine:      cfg,
		Addrs:        []phys.Addr{0x0, 0x1000, 0x41000, 0x200000, 0x5000},
		PadMin:       0,
		PadMax:       60,
		PadStep:      10,
		Reps:         50,
		FlushBetween: true,
		BaseSeed:     42,
	}
}

// evictSpec is a small eviction-driven sweep: two targets in distinct
// 2 MiB regions, light noise, a couple of padding points. Every shard
// runs Algorithm 1 before measuring.
func evictSpec() Spec {
	cfg := machine.SandyBridge()
	cfg.NoiseProb = 0.05
	cfg.NoiseMin = 100
	cfg.NoiseMax = 400
	return Spec{
		Machine:      cfg,
		Addrs:        []phys.Addr{0x0, 0x200000},
		PadMin:       0,
		PadMax:       20,
		PadStep:      10,
		Reps:         8,
		EvictBetween: true,
		BaseSeed:     7,
	}
}

func TestRunValidatesSpec(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Addrs = nil },
		func(s *Spec) { s.Reps = 0 },
		func(s *Spec) { s.PadStep = 0 },
		func(s *Spec) { s.PadMin = -1 },
		func(s *Spec) { s.PadMax = s.PadMin - 1 },
		func(s *Spec) { s.Machine.DRAM.HammerThreshold = 0 },
		func(s *Spec) { s.EvictBetween = true }, // both modes at once
		// More paddings than the cap, and a count that overflows int:
		// errors, never a panic from expanding them.
		func(s *Spec) { s.PadMin, s.PadMax, s.PadStep = 0, maxPaddings, 1 },
		func(s *Spec) { s.PadMin, s.PadMax, s.PadStep = 0, math.MaxInt, 1 },
		// An address past the end of memory, in both modes: an error,
		// never a panic from the shard's first load or Algorithm 1.
		func(s *Spec) { s.Addrs = append(s.Addrs, phys.Addr(s.Machine.DRAM.Capacity())) },
		func(s *Spec) {
			s.FlushBetween, s.EvictBetween = false, true
			s.Addrs = append(s.Addrs, phys.Addr(s.Machine.DRAM.Capacity()))
		},
	}
	for i, mutate := range bad {
		s := testSpec()
		mutate(&s)
		if _, err := Run(s); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}

	// A template carrying a model: a model binds to one machine, so
	// whether Run failed would depend on the shard and worker counts.
	// Rejected up front, one padding included, naming the field.
	onePad := func(s *Spec) { s.PadMax = s.PadMin }
	for _, tc := range []struct {
		field  string
		mutate func(*Spec)
	}{
		{"FlipModel", func(s *Spec) { s.Machine.FlipModel = flip.MustNewModel(flip.ClassA(), 1) }},
		{"FlipModel", func(s *Spec) { onePad(s); s.Machine.FlipModel = flip.MustNewModel(flip.ClassA(), 1) }},
		{"FaultModel", func(s *Spec) {
			fm, err := fault.NewModel(fault.Config{Class: fault.PairInvalidate, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			onePad(s)
			s.Machine.FaultModel = fm
		}},
	} {
		s := testSpec()
		tc.mutate(&s)
		if _, err := Run(s); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("template with a %s: err = %v, want an error naming the field", tc.field, err)
		}
	}
}

func TestSweepShapeAndSampleCounts(t *testing.T) {
	s := testSpec()
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 7 {
		t.Fatalf("points = %d, want 7 (pads 0..60 step 10)", len(res.Points))
	}
	wantSamples := uint64(s.Reps * len(s.Addrs))
	for i, p := range res.Points {
		if p.Padding != i*10 {
			t.Fatalf("point %d padding = %d, want %d", i, p.Padding, i*10)
		}
		if got := p.Hist.Total(); got != wantSamples {
			t.Fatalf("padding %d samples = %d, want %d", p.Padding, got, wantSamples)
		}
	}
	if got := res.Merged().Total(); got != wantSamples*7 {
		t.Fatalf("merged samples = %d, want %d", got, wantSamples*7)
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the engine's core
// contract: for a fixed seed the merged histograms are bit-identical
// no matter how the shards are spread over workers.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	s := testSpec()
	s.Workers = 1
	serial, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0) + 3} {
		s.Workers = workers
		par, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Points) != len(serial.Points) {
			t.Fatalf("%d workers: %d points, want %d", workers, len(par.Points), len(serial.Points))
		}
		for i := range serial.Points {
			a, b := serial.Points[i], par.Points[i]
			if a.Padding != b.Padding || !a.Hist.Equal(b.Hist) {
				t.Fatalf("%d workers: padding %d histogram differs from serial run", workers, a.Padding)
			}
		}
	}
}

// TestSweepSeparatesCachedFromFlushed checks the physics the engine
// exists to measure: with flushes the latencies are DRAM-class, without
// them the stream settles into cache hits.
func TestSweepSeparatesCachedFromFlushed(t *testing.T) {
	s := testSpec()
	s.Machine.NoiseProb = 0 // deterministic latencies for the bounds below
	s.PadMin, s.PadMax, s.PadStep = 0, 0, 1
	lat := s.Machine.Lat

	flushed, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	s.FlushBetween = false
	cached, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}

	// Every flushed sample pays at least a DRAM row access on top of
	// translation; the cached run must contain L1-hit samples.
	for _, b := range flushed.Points[0].Hist.Bins() {
		if b.Latency < lat.DRAMRowHit {
			t.Fatalf("flushed sweep has sub-DRAM latency %d", b.Latency)
		}
	}
	warm := lat.TLBL1Hit + lat.L1Hit
	if cached.Points[0].Hist.Count(warm) == 0 {
		t.Fatal("cached sweep has no warm L1-hit samples")
	}
}

// TestEvictSweepMeasuresImplicitPath: in EvictBetween mode every timed
// load rides the full implicit-access path — translation evicted by
// the TLB set, leaf PTE evicted by the LLC set — so no sample can be a
// warm TLB+L1 hit, and the slow tail reaches DRAM-walk latencies.
func TestEvictSweepMeasuresImplicitPath(t *testing.T) {
	s := evictSpec()
	s.Machine.NoiseProb = 0 // deterministic latencies for the bounds below
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	lat := s.Machine.Lat
	merged := res.Merged()
	warm := lat.TLBL1Hit + lat.L1Hit
	if merged.Count(warm) != 0 {
		t.Fatal("eviction-driven sweep produced warm-hit samples")
	}
	// Every sample at least walked: one walk step plus a memory fetch
	// on the translation side alone.
	if min := merged.Quantile(0); min < lat.PageWalkStep+lat.L1Hit {
		t.Fatalf("minimum sample %d below any possible walk", min)
	}
	// And the leaf-PTE DRAM fetch shows up in the distribution.
	if max := merged.Quantile(1); max < lat.DRAMRowHit {
		t.Fatalf("maximum sample %d never reached DRAM", max)
	}
}

// TestEvictSweepDeterministicAcrossWorkerCounts extends the engine's
// core contract to the eviction-driven mode: per-shard Algorithm 1
// construction happens on the shard's own deterministically seeded
// machine, so worker count still cannot change a single sample.
func TestEvictSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	s := evictSpec()
	s.Workers = 1
	serial, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0) + 1} {
		s.Workers = workers
		par, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Points {
			a, b := serial.Points[i], par.Points[i]
			if a.Padding != b.Padding || !a.Hist.Equal(b.Hist) {
				t.Fatalf("%d workers: padding %d histogram differs from serial run", workers, a.Padding)
			}
		}
	}
}

// TestRecycledShardsMatchFreshMachines pins the worker's machine
// recycling: at Workers 1 one machine runs every shard, recycled before
// each after the first, and every histogram must equal the shard run on
// a freshly built machine.
func TestRecycledShardsMatchFreshMachines(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{{"flush", testSpec()}, {"evict", evictSpec()}} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.spec
			s.Workers = 1
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			fresh := func(shard, seedShard int) *Histogram {
				t.Helper()
				m, err := s.shardMachine(nil, seedShard)
				if err != nil {
					t.Fatal(err)
				}
				h, err := s.runShard(m, shard, res.Points[shard].Padding)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			for i, p := range res.Points {
				if !p.Hist.Equal(fresh(i, i)) {
					t.Errorf("padding %d: recycled-machine histogram differs from a fresh machine's", p.Padding)
				}
			}
			// Non-vacuity: the shard seed reaches the samples, so a
			// recycled machine that kept the previous shard's seed
			// would have been caught above.
			if res.Points[1].Hist.Equal(fresh(1, 0)) {
				t.Error("shard 1 on shard 0's noise seed matches; the comparison cannot see the reseed")
			}
		})
	}
}

// TestPaddings pins the swept values: PadMin, PadMin+PadStep, … up to
// PadMax, including ranges whose next step would pass math.MaxInt.
func TestPaddings(t *testing.T) {
	for _, tc := range []struct {
		min, max, step int
		want           []int
	}{
		{0, 100, 10, []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}},
		{0, 95, 10, []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}},
		{7, 7, 3, []int{7}},
		{math.MaxInt - 5, math.MaxInt, 10, []int{math.MaxInt - 5}},
		{0, math.MaxInt, 1 << 62, []int{0, 1 << 62}},
	} {
		s := Spec{PadMin: tc.min, PadMax: tc.max, PadStep: tc.step}
		if got := s.paddings(); !slices.Equal(got, tc.want) {
			t.Errorf("paddings(%d, %d, %d) = %v, want %v", tc.min, tc.max, tc.step, got, tc.want)
		}
	}
}

// TestShardSeedsDiffer guards the seed mix: shards must not share noise
// streams just because the base seed is small.
func TestShardSeedsDiffer(t *testing.T) {
	seen := map[int64]bool{}
	for shard := 0; shard < 64; shard++ {
		seed := shardSeed(1, shard)
		if seen[seed] {
			t.Fatalf("duplicate shard seed %d at shard %d", seed, shard)
		}
		seen[seed] = true
	}
}

func TestHistogramMergeAndEqual(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for _, c := range []timing.Cycles{5, 5, 90, 300} {
		a.Add(c)
	}
	b.Add(5)
	if a.Equal(b) {
		t.Fatal("unequal histograms reported equal")
	}
	b.Add(5)
	b.Add(90)
	b.Add(300)
	if !a.Equal(b) {
		t.Fatal("equal histograms reported unequal")
	}
	a.Merge(b)
	if a.Total() != 8 || a.Count(5) != 4 {
		t.Fatalf("merge wrong: total %d count(5) %d", a.Total(), a.Count(5))
	}
	bins := a.Bins()
	if len(bins) != 3 || bins[0].Latency != 5 || bins[2].Latency != 300 {
		t.Fatalf("bins = %+v", bins)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for _, c := range []timing.Cycles{10, 10, 10, 20, 20, 30, 30, 30, 30, 100} {
		h.Add(c)
	}
	for _, tc := range []struct {
		q    float64
		want timing.Cycles
	}{
		{0, 10}, {0.25, 10}, {0.5, 20}, {0.9, 30}, {1, 100},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%.2f) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := h.Mean(); got != 29 {
		t.Errorf("Mean = %v, want 29", got)
	}
}

// TestQuantilesEdgeCases pins the documented clamping contract before
// the flip-latency tables start depending on it: q=0 is exactly the
// minimum and q=1 exactly the maximum, an empty histogram reports 0
// for every query, and out-of-range q (negative, past one, NaN, the
// infinities) clamp to the corresponding edge instead of panicking or
// hitting Go's implementation-defined float→integer conversion.
func TestQuantilesEdgeCases(t *testing.T) {
	empty := NewHistogram()
	for _, got := range empty.Quantiles(-1, 0, 0.5, 1, 2, math.NaN()) {
		if got != 0 {
			t.Fatalf("empty histogram quantile = %d, want 0", got)
		}
	}

	h := NewHistogram()
	for _, c := range []timing.Cycles{40, 7, 300, 7, 90} {
		h.Add(c)
	}
	const min, max = timing.Cycles(7), timing.Cycles(300)
	// The documented min/max contract at the exact edges.
	if got := h.Quantile(0); got != min {
		t.Errorf("Quantile(0) = %d, want the minimum %d", got, min)
	}
	if got := h.Quantile(1); got != max {
		t.Errorf("Quantile(1) = %d, want the maximum %d", got, max)
	}
	// Out-of-range queries clamp to the same edges.
	for _, q := range []float64{-0.01, -5, math.Inf(-1), math.NaN()} {
		if got := h.Quantile(q); got != min {
			t.Errorf("Quantile(%v) = %d, want clamped minimum %d", q, got, min)
		}
	}
	for _, q := range []float64{1.01, 17, math.Inf(1)} {
		if got := h.Quantile(q); got != max {
			t.Errorf("Quantile(%v) = %d, want clamped maximum %d", q, got, max)
		}
	}
	// A single batched call agrees with the per-query path.
	got := h.Quantiles(-1, 0, 1, 2)
	want := []timing.Cycles{min, min, max, max}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Quantiles[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// A vanishingly small positive q still means "at least one sample":
	// the rank-1 clamp, not a zero rank.
	if got := h.Quantile(1e-12); got != min {
		t.Errorf("Quantile(1e-12) = %d, want %d", got, min)
	}
}

// BenchmarkSweep measures end-to-end engine throughput on a small
// parallel sweep.
func BenchmarkSweep(b *testing.B) {
	s := testSpec()
	s.Reps = 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(s); err != nil {
			b.Fatal(err)
		}
	}
}
