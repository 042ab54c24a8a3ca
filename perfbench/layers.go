package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"pthammer/internal/machine"
	"pthammer/internal/perf"
	"pthammer/internal/sweep"
)

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct {
	name, unit string
}

// layerMetrics is every per-layer metric, in report order. The package
// documentation says which end-to-end metric each should move.
var layerMetrics = []layerMetric{
	{"hammer.trace_overhead", "ratio"},
	{"escalation.trace_overhead", "ratio"},
	{"population.trace_overhead", "ratio"},
	{"sweep.trace_overhead", "ratio"},
	{"hammer.allocs_per_op", "count"},
	{"escalation.allocs_per_op", "count"},
	{"population.allocs_per_op", "count"},
	{"sweep.allocs_per_op", "count"},
	{"evset.tlb_evict_ns", "ns"},
	{"evset.llc_evict_ns", "ns"},
	{"machine.probe_ns", "ns"},
	{"bench.hammer_iter_us", "us"},
	{"dram.host_ns_per_act", "ns"},
	{"ptwalk.host_ns_per_walk", "ns"},
	{"machine.new_ms", "ms"},
	{"bench.planner_ms", "ms"},
	{"bench.plan_next_ms", "ms"},
	{"evset.build_tlb_ms", "ms"},
	{"evset.build_llc_ms", "ms"},
	{"bench.driver_residual_ms", "ms"},
	{"cohort.new_pool_ms", "ms"},
	{"cohort.ns_per_attacker_iter", "ns"},
	{"sweep.speedup_2w", "ratio"},
	{"sweep.shard_construct_ms", "ms"},
	{"tlb.walks_per_iter", "count"},
	{"tlb.stlb_hits_per_iter", "count"},
	{"ptwalk.steps_per_iter", "count"},
	{"ptwalk.pscache_hits_per_iter", "count"},
	{"ptwalk.leaf_dram_per_iter", "count"},
	{"cache.llc_refs_per_iter", "count"},
	{"cache.llc_misses_per_iter", "count"},
	{"dram.acts_per_iter", "count"},
	{"dram.row_conflicts_per_iter", "count"},
	{"timing.sim_cycles_per_iter", "cycles"},
	{"flip.windows", "count"},
	{"flip.flips", "count"},
	{"evset.tlb_set_pages", "count"},
	{"evset.llc_set_lines", "count"},
	{"hammer.implicit_ratio", "ratio"},
	{"bench.windows_per_op", "count"},
	{"bench.iters_per_op", "count"},
	{"bench.replans_per_op", "count"},
	{"bench.rebuilds_per_op", "count"},
	{"fault.events_per_op", "count"},
}

// traceSizing fixes the traced run: traced set-ups per workload, and
// how many op pairs (untraced, then traced) each workload runs.
type traceSizing struct {
	setups int
	pairs  map[string]int
}

// defaultTraceSizing runs a few op pairs per workload: 10 for the
// hammer keeps its six spans per iteration at ~60,000 (a few MB), and
// the whole traced run near 15 s.
func defaultTraceSizing() traceSizing {
	return traceSizing{setups: 3, pairs: map[string]int{"hammer": 10, "escalation": 10, "population": 6, "sweep": 10}}
}

// layerRun accumulates one traced run.
type layerRun struct {
	seed     int64
	sz       traceSizing
	rec      *recorder
	log      io.Writer
	values   map[string]float64
	attempts int
	failed   int
}

// check counts one op's correctness verdict.
func (l *layerRun) check(what string, err error) {
	l.attempts++
	if err != nil {
		l.failed++
		fmt.Fprintf(l.log, "perfbench: trace %s failed: %v\n", what, err)
	}
}

// setUp starts the workload sz.setups times, set-up traced, and
// returns the last start's state.
func (l *layerRun) setUp(w workload) (runner, error) {
	var r runner
	for k := 0; k < l.sz.setups; k++ {
		l.rec.newTrace()
		var err error
		if r, err = w.start(l.seed, l.rec); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// pairs runs ops 0..n-1 twice each, untraced then traced, calling after
// (when non-nil) once per pair. It records the workload's tracing
// overhead (untraced over traced time, i.e. traced work_per_s over
// untraced work_per_s) and the heap allocations per untraced op, and
// returns the untraced op times.
func (l *layerRun) pairs(w workload, r runner, after func()) []time.Duration {
	n := l.sz.pairs[w.name]
	var plainOps []time.Duration
	var plain, traced time.Duration
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		_, err := r.op(i, nil, nil)
		d := time.Since(t)
		runtime.ReadMemStats(&ms1)
		l.check(fmt.Sprintf("%s op %d", w.name, i), err)
		mallocs += ms1.Mallocs - ms0.Mallocs
		plain += d
		plainOps = append(plainOps, d)

		l.rec.newTrace()
		t = time.Now()
		_, err = r.op(i, nil, l.rec)
		traced += time.Since(t)
		l.check(fmt.Sprintf("%s traced op %d", w.name, i), err)
		if after != nil {
			after()
		}
	}
	l.values[w.name+".trace_overhead"] = plain.Seconds() / traced.Seconds()
	l.values[w.name+".allocs_per_op"] = float64(mallocs) / float64(n)
	fmt.Fprintf(l.log, "perfbench: trace %s: %d pairs, untraced %.1f ms, traced %.1f ms\n", w.name, n, ms(plain), ms(traced))
	return plainOps
}

// spanMean and spanMedian summarise the spans of one name recorded
// since index from, in the given unit.
func (l *layerRun) spanMean(from int, name string, unit time.Duration) float64 {
	ds := l.rec.durations(from, name)
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(unit)
}

func (l *layerRun) spanMedian(from int, name string, unit time.Duration) float64 {
	ds := l.rec.durations(from, name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// traceAll runs every workload at trace size and returns the per-layer
// metrics, in any workload's traced run alike: several layers are only
// reachable from one workload, and every traced run reports them all.
func traceAll(seed int64, sz traceSizing, rec *recorder, log io.Writer) (*layerRun, error) {
	l := &layerRun{seed: seed, sz: sz, rec: rec, log: log, values: map[string]float64{}}
	for _, f := range []func() error{l.hammer, l.escalation, l.population, l.sweep} {
		runtime.GC()
		if err := f(); err != nil {
			return nil, err
		}
	}
	for _, m := range layerMetrics {
		if _, ok := l.values[m.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s not measured", m.name)
		}
	}
	return l, nil
}

// hammer attributes the hammer iteration and the escalation set-up:
// BuildEscalation and HammerOnce replayed as their exported steps, plus
// PMC deltas per iteration read outside the loop.
func (l *layerRun) hammer() error {
	w, _ := findWorkload("hammer")
	from := len(l.rec.spans)
	r, err := l.setUp(w)
	if err != nil {
		return err
	}
	hr := r.(*hammerRun)
	m := hr.m
	c0 := m.Counters().Snapshot()
	clock0, iters0, implicit0 := m.Clock().Now(), hr.iters, hr.implicit
	windows0, flips0 := m.FlipModel().Windows(), len(m.Flips())
	l.pairs(w, r, nil)

	iters := float64(hr.iters - iters0)
	per := func(events ...perf.Event) float64 {
		var n uint64
		for _, e := range events {
			n += c0.Delta(m.Counters(), e)
		}
		return float64(n) / iters
	}
	v := l.values
	v["tlb.walks_per_iter"] = per(perf.DTLBLoadMissesWalk)
	v["tlb.stlb_hits_per_iter"] = per(perf.DTLBLoadMissesL1)
	v["ptwalk.steps_per_iter"] = per(perf.WalkStepPML4E, perf.WalkStepPDPTE, perf.WalkStepPDE, perf.WalkStepPTE)
	v["ptwalk.pscache_hits_per_iter"] = per(perf.PSCacheHit)
	v["ptwalk.leaf_dram_per_iter"] = per(perf.L1PTEMemoryFetch)
	v["cache.llc_refs_per_iter"] = per(perf.LLCReference)
	v["cache.llc_misses_per_iter"] = per(perf.LongestLatCacheMiss)
	v["dram.acts_per_iter"] = per(perf.DRAMActivate)
	v["dram.row_conflicts_per_iter"] = per(perf.DRAMRowConflicts)
	v["timing.sim_cycles_per_iter"] = float64(m.Clock().Now()-clock0) / iters
	v["flip.windows"] = float64(m.FlipModel().Windows() - windows0)
	v["flip.flips"] = float64(len(m.Flips()) - flips0)
	v["evset.tlb_set_pages"] = float64(len(hr.h.TLB1.Pages) + len(hr.h.TLB2.Pages))
	v["evset.llc_set_lines"] = float64(len(hr.h.LLC1.Addrs) + len(hr.h.LLC2.Addrs))
	v["hammer.implicit_ratio"] = float64(hr.implicit-implicit0) / iters

	v["evset.tlb_evict_ns"] = l.spanMean(from, "evset.TLBSet.Evict", time.Nanosecond)
	v["evset.llc_evict_ns"] = l.spanMean(from, "evset.LLCSet.Evict", time.Nanosecond)
	v["machine.probe_ns"] = l.spanMean(from, "machine.Machine.Probe", time.Nanosecond)
	iterNs := 2 * (v["evset.tlb_evict_ns"] + v["evset.llc_evict_ns"] + v["machine.probe_ns"])
	v["bench.hammer_iter_us"] = iterNs / 1e3
	v["dram.host_ns_per_act"] = iterNs / v["dram.acts_per_iter"]
	v["ptwalk.host_ns_per_walk"] = iterNs / v["tlb.walks_per_iter"]

	v["machine.new_ms"] = l.spanMedian(from, "machine.New", time.Millisecond)
	v["bench.planner_ms"] = l.spanMedian(from, "bench.NewEscalationPlanner", time.Millisecond)
	v["bench.plan_next_ms"] = l.spanMedian(from, "bench.EscalationPlanner.Next", time.Millisecond)
	v["evset.build_tlb_ms"] = l.spanMedian(from, "evset.BuildTLB", time.Millisecond)
	v["evset.build_llc_ms"] = l.spanMedian(from, "evset.BuildLLCPTE", time.Millisecond)
	return nil
}

// escalation reads the driver's Verdicts and charges each op's time to
// the set-up and hammer layers the hammer trace measured; what is left
// is the driver's own work (detection scans, exploit, tier traffic,
// machine recycling). It must run after hammer.
func (l *layerRun) escalation() error {
	w, _ := findWorkload("escalation")
	r, err := l.setUp(w)
	if err != nil {
		return err
	}
	er := r.(*escalationRun)
	var windows, iters, replans, rebuilds, events float64
	var charged []float64
	v := l.values
	build := 2*v["evset.build_tlb_ms"] + 2*v["evset.build_llc_ms"]
	plainOps := l.pairs(w, r, func() {
		d := er.last
		windows += float64(d.Windows)
		iters += float64(d.Iterations)
		replans += float64(d.Replans)
		rebuilds += float64(d.Rebuilds)
		events += float64(d.Faults.Total())
		charged = append(charged, v["bench.planner_ms"]+v["bench.plan_next_ms"]*float64(1+d.Replans)+
			build*float64(1+d.Rebuilds+d.Replans)+float64(d.Iterations)*v["bench.hammer_iter_us"]/1e3)
	})
	residual := make([]float64, len(plainOps))
	for i, d := range plainOps {
		residual[i] = ms(d) - charged[i]
	}
	n := float64(len(plainOps))
	v["bench.windows_per_op"] = windows / n
	v["bench.iters_per_op"] = iters / n
	v["bench.replans_per_op"] = replans / n
	v["bench.rebuilds_per_op"] = rebuilds / n
	v["fault.events_per_op"] = events / n
	v["bench.driver_residual_ms"] = median(residual)
	return nil
}

// population times pool construction and the host cost of one
// attacker iteration inside a population run.
func (l *layerRun) population() error {
	w, _ := findWorkload("population")
	from := len(l.rec.spans)
	r, err := l.setUp(w)
	if err != nil {
		return err
	}
	pr := r.(*populationRun)
	iters0 := pr.iters
	var plain time.Duration
	for _, d := range l.pairs(w, r, nil) {
		plain += d
	}
	// Each pair runs the same population twice, so half the attacker
	// iterations belong to the untraced ops.
	l.values["cohort.new_pool_ms"] = l.spanMedian(from, "cohort.NewPool", time.Millisecond)
	l.values["cohort.ns_per_attacker_iter"] = float64(plain.Nanoseconds()) / (float64(pr.iters-iters0) / 2)
	return nil
}

// sweep measures the worker pool's speed-up — the same sweeps at 1 and
// 2 workers, whose histograms must agree — and one shard's serial
// construction: a machine plus Algorithm 1 for both targets.
func (l *layerRun) sweep() error {
	w, _ := findWorkload("sweep")
	from := len(l.rec.spans)
	r, err := l.setUp(w)
	if err != nil {
		return err
	}
	sr := r.(*sweepRun)
	l.pairs(w, r, nil)

	n := l.sz.pairs[w.name]
	var one, two time.Duration
	for i := 0; i < n; i++ {
		h1, h2 := sha256.New(), sha256.New()
		l.rec.newTrace()
		t := time.Now()
		_, err1 := sr.run(i, 1, "sweep.Run[workers=1]", h1, l.rec)
		one += time.Since(t)
		t = time.Now()
		_, err2 := sr.run(i, 2, "sweep.Run", h2, l.rec)
		two += time.Since(t)
		err := errors.Join(err1, err2)
		if err == nil && string(h1.Sum(nil)) != string(h2.Sum(nil)) {
			err = fmt.Errorf("histograms differ between 1 and 2 workers")
		}
		l.check(fmt.Sprintf("sweep worker comparison %d", i), err)
	}
	l.values["sweep.speedup_2w"] = one.Seconds() / two.Seconds()

	spec := sr.spec
	for i := 0; i < n; i++ {
		l.rec.newTrace()
		sp := l.rec.begin("sweep.shard_construct")
		l.check(fmt.Sprintf("sweep shard construction %d", i), l.constructShard(spec, opSeed(l.seed, i)))
		l.rec.end(sp)
	}
	l.values["sweep.shard_construct_ms"] = l.spanMedian(from, "sweep.shard_construct", time.Millisecond)
	return nil
}

// constructShard replays what sweep.Run does before a shard's first
// timed load in evict mode.
func (l *layerRun) constructShard(spec sweep.Spec, noiseSeed int64) error {
	cfg := spec.Machine
	cfg.NoiseSeed = noiseSeed
	sp := l.rec.begin("machine.New")
	m, err := machine.New(cfg)
	l.rec.end(sp)
	if err != nil {
		return err
	}
	for _, a := range spec.Addrs {
		tlb, err := buildTLB(m, a, spec.Addrs, spec.Evict, l.rec)
		if err != nil {
			return err
		}
		if _, err := buildLLC(m, a, tlb, spec.Addrs, spec.Evict, l.rec); err != nil {
			return err
		}
	}
	return nil
}
