// Command perfbench is pthammer's workload benchmark: four closed-loop
// workloads that call only the exported functions the CLIs already
// reach, each op timed on its own, plus a traced run that attributes
// host time to single layers from outside the program. It measures; it
// claims nothing. The BENCH_NNNN.json / -check mode of
// cmd/pthammer-bench stays untouched as CI's hot-path alloc gate.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hammer --seed 1 --seconds 22 --trace 0
//
// run.sh builds this package into .bench_build and runs it with the
// same flags; `go run . -workload all -seed 1` from this directory runs
// every workload in one process. -workload is hammer, population,
// sweep, escalation or all; -seed (≥ 0) makes every input; -seconds is
// the timed phase; -trace 1 makes the traced run instead; -spans FILE
// writes its spans as JSONL. The last stdout line is one JSON object:
// correct, attempted, failed and metrics — the end-to-end metrics
// untraced, the per-layer metrics traced. Exit status: 0 measured (a
// failed op makes correct false, never aborts), 1 a set-up failed or a
// metric came out NaN, 2 usage, 3 span file not written.
//
// # Workloads
//
// Each runs at GOMAXPROCS=2 in one process, in three phases: a memory
// pass (its own set-up, warm-up and 3 ops, garbage collected after
// each), set-up repeated three times (setup_s is the median; the last
// one is timed), then a timed closed loop of ops for -seconds but at
// least 100 ops, so p90 has ten samples beyond it, with the reference
// kernel sampled every 250 ms between ops.
//
//   - hammer — set-up is bench.BuildEscalation(ClassA, seed) plus 50
//     warm-up ops; an op is 1000 × (*ImplicitHammer).HammerOnce. The
//     paper's flush-free loop with the flip engine live: nearly all its
//     time is the access path (tlb, ptwalk, cache, dram and the evset
//     Evict walks), while planner and eviction-set construction land in
//     setup_s. Correct: every iteration Walked && LeafFromDRAM, and
//     PrivilegedOps stays (0, 0).
//   - population — set-up is two cohort.NewPool(8, layout), interleaved
//     and blocked, plus 6 warm-up ops; an op is one Pool.RunDetailed of
//     96 tenants × 3 windows, seed mixed from -seed and the op index,
//     cycling class A/B/C within each layout. The same cache and DRAM
//     layers used differently: two cores contend under the core
//     interleaver with LLC back-invalidation and bank arbitration, and
//     machines churn through Reset; eviction sets and the planner are
//     bypassed. Correct: blocked rows fully defensive, interleaved
//     dilution neither none nor all.
//   - sweep — an op is one sweep.Run of the pthammer-sweep default spec
//     (evict mode, 2 targets, padding 0..100 step 10, 20 reps, noise
//     0.05, Workers=2, BaseSeed mixed from -seed and the op index), 4
//     warm-up ops, with eviction verdicts re-measured 7 times, not 3: at
//     3, ~1.5% of base seeds fail Algorithm 1 calibration under noise.
//     The only host-parallel workload, building a fresh machine plus
//     eviction sets per shard, so a parallelism or machine.New change
//     shows here and nowhere else. Correct: no error, 440 samples, no
//     sample faster than a DRAM row hit.
//   - escalation — an op is one bench.RunEscalationResilient(ClassA,
//     s, class, DefaultBudget()) over a fixed catalogue, seeds 1..20 ×
//     the recoverable fault.Matrix() classes except threshold-drift, in
//     an order shuffled by -seed; 2 warm-up ops fill bench's machine
//     free list. The end-to-end attack of pthammer-flip tables 2–3,
//     dominated by set-up inside the op (the planner), so a planner
//     change shows here and not in hammer. The catalogue holds 100
//     entries, so the 100-op floor runs each once. It is fixed because
//     op cost swings 160–950 ms with the flip seed: fresh seeds per run
//     moved p50 ~5% and p90 ~15% between runs. threshold-drift is left
//     out because ~5% of its seeds end build-failed. Correct: Success, a
//     Result, and zero privileged ops.
//
// Each run prints a sim_digest, a SHA-256 over the first 100 ops'
// simulated outputs (clock and every PMC per hammer batch, Population,
// per-padding histogram bins, Verdict and EscalationResult): the same
// seed gives the same digest, traced or not.
//
// # End-to-end metrics
//
// A bound is the share by which a change's median may be worse than its
// parent's before the change is rejected; BENCHMARK.json fixes them.
//
//	work_per_s    higher  25%  work units per second of op time at the
//	                           reference host speed: iterations, tenants,
//	                           timed samples or escalations
//	setup_s       lower   25%  construction plus warm-up, median of 3,
//	                           as measured
//	peak_heap_mb  lower   25%  largest live heap between memory-pass ops
//
// Op times are scaled to a reference host speed by a fixed kernel timed
// between ops (see hostRef): on the shared 2-vCPU Xeon VM the benchmark
// was written on, neighbours slow everything by up to 2× for seconds
// to minutes, and the scaling halves the spread between runs. Even so,
// two sets of ten 22-second runs per workload put work_per_s 6–10%
// apart between quartiles, which is why the timing bounds are as wide
// as allowed.
// peak_heap_mb repeats to well under 1%, except on sweep, whose only
// state between ops is the runtime's own ~0.075 MB, a few KB either
// way.
//
// The human report also prints op_p50_ms, op_p90_ms and the highest
// percentile with ten samples beyond it (each also as measured),
// allocs_per_op (memory pass), fail_ratio and the reference kernel's
// time; none of them gates. The per-op percentiles swing further than
// throughput: calm hammer ops take 4 ms and disturbed ones 7–9, so the
// median and p90 jump between the two as the disturbed share crosses
// 50% or 10% — ten identical hammer runs put their op_p50_ms 20% and
// their p90 25% apart, scaled or not. Failures travel as the result
// line's attempted and failed, and allocations as per-layer metrics,
// since both read 0 on some workloads.
//
// # Traced run
//
// -trace 1 runs every workload for a few ops (10 op pairs, 6 for
// population); the output does not depend on -workload, as several
// layers are reachable from one workload only. Each workload gets
// traced set-ups, then op pairs, each op untraced and then with spans
// around every exported call the benchmark makes. Spans stay in
// memory, are written as JSONL at exit (-spans), and each layer's self
// time is printed. Each per-layer metric names the end-to-end metric,
// and workload, it should move:
//
//	<w>.trace_overhead            untraced / traced op time; moves nothing
//	<w>.allocs_per_op             heap Mallocs per untraced op: work_per_s on <w>
//	evset.tlb_evict_ns, evset.llc_evict_ns, machine.probe_ns
//	                              HammerOnce replayed as its six calls: work_per_s on hammer
//	bench.hammer_iter_us          sum of those six: work_per_s on hammer
//	dram.host_ns_per_act, ptwalk.host_ns_per_walk
//	                              host time per simulated event: work_per_s on hammer
//	machine.new_ms, bench.planner_ms, bench.plan_next_ms,
//	evset.build_tlb_ms, evset.build_llc_ms
//	                              BuildEscalation replayed as its steps: setup_s on hammer, work_per_s on escalation
//	bench.driver_residual_ms      escalation op minus planner + next×(1+replans)
//	                              + build×(1+rebuilds+replans) + iterations×hammer_iter_us:
//	                              work_per_s on escalation
//	cohort.new_pool_ms            setup_s on population
//	cohort.ns_per_attacker_iter   op time / Σ Outcome.Iterations: work_per_s on population
//	sweep.speedup_2w              op time at 1 worker / at 2 (histograms equal): work_per_s on sweep
//	sweep.shard_construct_ms      machine.New + 2×BuildTLB + 2×BuildLLCPTE: work_per_s on sweep
//
// The exact simulated counts move nothing by themselves: a
// simulator-only change must leave them identical, and a model change
// explains its host-time shift through them. They are, per hammer
// iteration from PMC deltas read outside the loop, tlb.walks,
// tlb.stlb_hits, ptwalk.steps, ptwalk.pscache_hits, ptwalk.leaf_dram,
// cache.llc_refs, cache.llc_misses, dram.acts, dram.row_conflicts and
// timing.sim_cycles; flip.windows and flip.flips over the hammer's op
// pairs; evset.tlb_set_pages and evset.llc_set_lines summed over
// both sides; bench.windows/iters/replans/rebuilds_per_op and
// fault.events_per_op from the escalation Verdicts; and
// hammer.implicit_ratio, iterations that were Walked && LeafFromDRAM
// over all — useful work over attempts. Span times include the
// recorder's own clock reads (trace_overhead says how much).
//
// # Claiming a gain
//
// A change that claims a gain does not edit this benchmark. Build the
// parent and the change, run at least 10 alternating parent/change
// pairs per workload at one -seconds, on a seed not used while writing
// the change, and claim the gain only if the change wins at least 9 of
// 10 pairs and the medians differ by more than the parent's own
// interquartile range. Every other metric × workload must stay within
// its bound, and the traced run must show the saving in the layer the
// change touched.
//
// The benchmark's own tests run from this directory with go test; each
// workload runs there at smoke size.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

const (
	exitOK     = 0
	exitFailed = 1
	exitUsage  = 2
	exitWrite  = 3
)

// result is the JSON object the last stdout line carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes the result line; encoding fails on a NaN or
// infinite metric, which means a measurement went wrong.
func printResult(w io.Writer, r result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// run is main with its environment explicit: args exclude the program
// name, and the return value is the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "hammer, population, sweep, escalation, or all")
	seed := fs.Int64("seed", 1, "seed every input is made from (≥ 0)")
	seconds := fs.Int("seconds", 22, "length of each timed phase in seconds (≥ 1)")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics instead")
	spans := fs.String("spans", "", "file the traced run writes its spans to, one JSON object per line")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "perfbench: "+format+"\n", a...)
		fs.Usage()
		return exitUsage
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments: %q", fs.Args())
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return usage("unknown -workload %q", *name)
		}
		selected = []workload{w}
	}
	switch {
	case *seed < 0:
		return usage("-seed must be ≥ 0 (got %d)", *seed)
	case *seconds < 1:
		return usage("-seconds must be ≥ 1 (got %d)", *seconds)
	case *trace != 0 && *trace != 1:
		return usage("-trace must be 0 or 1 (got %d)", *trace)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	if *trace == 1 {
		return runTrace(*seed, defaultTraceSizing(), *spans, stdout, stderr)
	}
	for _, w := range selected {
		runtime.GC()
		sz := defaultSizing(*seconds)
		o, err := measure(w, *seed, sz, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return exitFailed
		}
		o.report(stdout, w, *seed, sz)
		r := result{Correct: o.failed == 0, Attempted: len(o.ops), Failed: o.failed, Metrics: o.endToEnd()}
		if err := printResult(stdout, r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return exitFailed
		}
	}
	return exitOK
}

// runTrace runs the traced run, prints self times and every per-layer
// metric, writes the spans when asked, and ends with the result line.
func runTrace(seed int64, sz traceSizing, spansPath string, stdout, stderr io.Writer) int {
	rec := newRecorder()
	l, err := traceAll(seed, sz, rec, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return exitFailed
	}
	fmt.Fprintf(stdout, "traced run seed=%d spans=%d\n", seed, len(rec.spans))
	rec.printSelfTimes(stdout)
	metrics := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		metrics[m.name] = metric{l.values[m.name], m.unit}
		fmt.Fprintf(stdout, "  %-30s %16.4f %s\n", m.name, l.values[m.name], m.unit)
	}
	if spansPath != "" {
		if err := rec.writeJSONL(spansPath); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return exitWrite
		}
	}
	r := result{Correct: l.failed == 0, Attempted: l.attempts, Failed: l.failed, Metrics: metrics}
	if err := printResult(stdout, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return exitFailed
	}
	return exitOK
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
