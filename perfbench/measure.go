package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"
)

// sizing fixes how long one untraced workload run is.
type sizing struct {
	// seconds is the timed phase's length; it stops at the first op
	// boundary past it once minOps ops have run.
	seconds time.Duration
	// minOps floors the timed op count: 100 ops put ten samples beyond
	// p90, and the sim digest covers the first digestOps.
	minOps    int
	digestOps int
	// setups is how many times set-up runs; setup_s is their median and
	// the last one's state is timed.
	setups int
	// memOps is how many ops the memory pass runs on its own set-up.
	memOps int
}

// defaultSizing is the benchmark's run shape for a -seconds budget.
func defaultSizing(seconds int) sizing {
	return sizing{seconds: time.Duration(seconds) * time.Second, minOps: 100, digestOps: 100, setups: 3, memOps: 3}
}

// outcome is one untraced workload run. ops are host times, refOps the
// same at the reference host speed (see hostRef), and refTook every
// reference kernel sample.
type outcome struct {
	setup       []time.Duration
	ops, refOps []time.Duration
	refTook     []time.Duration
	elapsed     time.Duration
	units       int
	failed      int
	digest      string
	// peakLive and allocsPerOp come from the memory pass: the largest
	// live heap between ops, and heap allocations per op.
	peakLive    uint64
	allocsPerOp float64
}

// liveHeap collects garbage and returns the live heap. It collects
// twice, so objects parked in sync.Pool victim caches are gone and the
// value is what the program itself holds.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// footprint is the memory pass: it sets the workload up and runs its
// first n ops, collecting garbage after set-up and after every op. It
// returns the largest live heap those collections found — the state the
// workload keeps between ops, exact, and independent of GC pacing and
// of how many ops a timed phase manages — and the heap allocations per
// op. Transient heap inside an op is not seen: sampling it at
// collections read 40–58 MB for one sweep spec, as the two workers'
// shards happened to overlap.
func footprint(w workload, seed int64, n int) (peak uint64, allocsPerOp float64, err error) {
	r, err := w.start(seed, nil)
	if err != nil {
		return 0, 0, err
	}
	peak = liveHeap()
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&ms0)
		r.op(i, nil, nil)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		peak = max(peak, liveHeap())
	}
	return peak, float64(mallocs) / float64(n), nil
}

// measure runs the memory pass, then sets the workload up sz.setups
// times and times a closed loop of ops on the last set-up, each op
// timed on its own. An op failing its correctness check is counted and
// reported on log, never fatal.
func measure(w workload, seed int64, sz sizing, log io.Writer) (outcome, error) {
	var o outcome
	var err error
	if o.peakLive, o.allocsPerOp, err = footprint(w, seed, sz.memOps); err != nil {
		return o, err
	}
	var r runner
	for k := 0; k < sz.setups; k++ {
		r = nil
		runtime.GC()
		t := time.Now()
		if r, err = w.start(seed, nil); err != nil {
			return o, err
		}
		o.setup = append(o.setup, time.Since(t))
	}

	ref := newHostRef()
	ref.sample()
	var starts []time.Duration
	sim := sha256.New()
	start := time.Now()
	for i := 0; i < sz.minOps || time.Since(start) < sz.seconds; i++ {
		var dw io.Writer
		if i < sz.digestOps {
			dw = sim
		}
		ref.due()
		t := time.Now()
		starts = append(starts, t.Sub(ref.start))
		units, err := r.op(i, dw, nil)
		o.ops = append(o.ops, time.Since(t))
		o.units += units
		if err != nil {
			o.failed++
			fmt.Fprintf(log, "perfbench: %s op %d failed: %v\n", w.name, i, err)
		}
	}
	o.elapsed = time.Since(start)
	ref.sample()
	o.refOps = ref.normalize(o.ops, starts)
	o.refTook = ref.took
	o.digest = hex.EncodeToString(sim.Sum(nil))
	return o, nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics the result line carries.
func (o outcome) endToEnd() map[string]metric {
	return map[string]metric{
		"work_per_s":   {o.rate(o.refOps), "1/s"},
		"setup_s":      {median(millis(o.setup)) / 1e3, "s"},
		"peak_heap_mb": {float64(o.peakLive) / (1 << 20), "MB"},
	}
}

// rate is work units per second of the given op times; it leaves out
// the reference kernel sampled between ops.
func (o outcome) rate(ops []time.Duration) float64 {
	var total time.Duration
	for _, d := range ops {
		total += d
	}
	return float64(o.units) / total.Seconds()
}

// report prints every end-to-end metric by name, unit and sample count,
// then the op-time distribution, allocations and failures per op, the
// reference kernel and the sim digest. Op times are at the reference
// host speed, with the value as measured after them.
func (o outcome) report(out io.Writer, w workload, seed int64, sz sizing) {
	n := len(o.ops)
	e := o.endToEnd()
	refMs, hostMs := millis(o.refOps), millis(o.ops)
	fmt.Fprintf(out, "workload %s seed=%d ops=%d warmups=%d setups=%d timed_s=%.3f\n",
		w.name, seed, n, w.warmups, len(o.setup), o.elapsed.Seconds())
	line := func(name string, v float64, unit, samples string) {
		fmt.Fprintf(out, "  %-14s %14.4f %-16s %s\n", name, v, unit, samples)
	}
	line("work_per_s", e["work_per_s"].Value, w.unit+"/s", fmt.Sprintf("n=%d ops, %d %s; as measured %.4f", n, o.units, w.unit, o.rate(o.ops)))
	line("setup_s", e["setup_s"].Value, "s", fmt.Sprintf("n=%d set-ups, median", len(o.setup)))
	line("peak_heap_mb", e["peak_heap_mb"].Value, "MB", fmt.Sprintf("n=%d ops, memory pass", sz.memOps))
	quantile := func(p float64, note string) {
		line(fmt.Sprintf("op_p%.0f_ms", p*100), percentile(refMs, p), "ms",
			fmt.Sprintf("n=%d%s; as measured %.4f", n, note, percentile(hostMs, p)))
	}
	quantile(0.5, "")
	quantile(0.9, "")
	if pct, ok := tailPercentile(n); ok && pct != 90 {
		quantile(float64(pct)/100, ", highest with 10 beyond")
	}
	line("allocs_per_op", o.allocsPerOp, "count", fmt.Sprintf("n=%d ops, memory pass", sz.memOps))
	line("fail_ratio", float64(o.failed)/float64(n), "ratio", fmt.Sprintf("%d/%d", o.failed, n))
	line("ref_kernel_us", median(millis(o.refTook))*1e3, "us", fmt.Sprintf("n=%d samples, reference %v", len(o.refTook), refNominal))
	fmt.Fprintf(out, "  sim_digest     %s (first %d ops)\n", o.digest, min(n, sz.digestOps))
}
