// Package sweep is the Figure 5/6 measurement engine: it times loads
// over an address stream while sweeping the amount of NOP padding
// executed before each timed load, producing one latency histogram per
// padding value — the raw material of the paper's latency-vs-padding
// plots.
//
// A sweep is split into independent shards, one per padding value, and
// the shards are distributed over a worker pool. Each worker builds one
// machine.Machine on its first shard and recycles it under the
// Reset/Recycle contract before every later one, re-stamped with a
// noise seed derived from the sweep's base seed and the shard index.
// Every shard therefore runs on a machine observationally identical to
// a fresh one, so the merged result is bit-identical for any worker
// count: parallelism changes wall-clock time, never the histograms.
//
// Every rep of a shard is the same plain loop: the between-loads
// traffic (clflush of each address in FlushBetween mode, a walk of
// each address's TLB and leaf-PTE LLC eviction sets in EvictBetween
// mode), the padding NOPs, then one batched LoadN of the address
// stream whose latencies are the shard's samples.
package sweep

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pthammer/internal/evset"
	"pthammer/internal/machine"
	"pthammer/internal/mem"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// Spec describes one sweep: which machine to build, which addresses to
// time, and the padding range to sweep.
type Spec struct {
	// Machine is the template configuration; each shard runs on a
	// machine built from it with NoiseSeed overridden by a value
	// derived from BaseSeed and the shard index. It must carry no
	// FlipModel or FaultModel: a model binds to one machine, and the
	// sweep's machines are its own.
	Machine machine.Config

	// Addrs is the address stream timed at every padding value.
	Addrs []phys.Addr

	// PadMin/PadMax/PadStep define the swept NOP counts: PadMin,
	// PadMin+PadStep, … ≤ PadMax. Before each timed replay of the
	// address stream the shard executes that many NOPs (advancing the
	// clock by NOP-cost × count), modelling the padding instructions of
	// the paper's Figure 5/6 measurement loops.
	PadMin, PadMax, PadStep int

	// Reps is how many times the address stream is replayed per padding
	// value; each timed load adds one histogram sample.
	Reps int

	// FlushBetween issues clflush on every address before its timed
	// load (the Figure 6 explicit-hammer style), so loads measure the
	// DRAM path instead of cache hits.
	FlushBetween bool

	// EvictBetween drives the sweep the way the paper's unprivileged
	// attacker must: each shard builds, once, a TLB eviction set and a
	// leaf-PTE LLC eviction set per address (Algorithm 1, via
	// internal/evset) and walks both before every timed replay, so the
	// timed loads measure the full implicit-access path — a hardware
	// walk whose leaf PTE comes from DRAM — with zero flush or invlpg.
	// Mutually exclusive with FlushBetween.
	EvictBetween bool

	// Evict tunes the per-shard eviction-set construction when
	// EvictBetween is set; the zero value selects evset's defaults.
	Evict evset.Options

	// Workers caps the worker pool; 0 means GOMAXPROCS. The worker
	// count never affects results, only how shards overlap in time.
	Workers int

	// BaseSeed seeds the per-shard noise streams.
	BaseSeed int64
}

// maxPaddings caps how many padding values one sweep expands: each is
// a shard with its own histogram, and the paper's figures sweep 11.
const maxPaddings = 1 << 16

// validate reports an error for a sweep that cannot run.
func (s Spec) validate() error {
	switch {
	case len(s.Addrs) == 0:
		return fmt.Errorf("sweep: address stream is empty")
	case s.Reps <= 0:
		return fmt.Errorf("sweep: reps must be positive (got %d)", s.Reps)
	case s.PadStep <= 0:
		return fmt.Errorf("sweep: pad step must be positive (got %d)", s.PadStep)
	case s.PadMin < 0 || s.PadMax < s.PadMin:
		return fmt.Errorf("sweep: bad padding range [%d, %d]", s.PadMin, s.PadMax)
	case (s.PadMax-s.PadMin)/s.PadStep >= maxPaddings:
		// The count is printed unsigned: with PadStep 1 it is MaxInt+1.
		return fmt.Errorf("sweep: %d paddings exceed the %d-padding cap",
			uint64((s.PadMax-s.PadMin)/s.PadStep)+1, maxPaddings)
	case s.FlushBetween && s.EvictBetween:
		return fmt.Errorf("sweep: FlushBetween and EvictBetween are mutually exclusive")
	case s.Machine.FlipModel != nil:
		return fmt.Errorf("sweep: Machine.FlipModel must be nil (a model binds to one machine)")
	case s.Machine.FaultModel != nil:
		return fmt.Errorf("sweep: Machine.FaultModel must be nil (a model binds to one machine)")
	}
	memBytes := s.Machine.DRAM.Capacity()
	for _, a := range s.Addrs {
		if uint64(a) >= memBytes {
			return fmt.Errorf("sweep: address %#x outside %d-byte memory", uint64(a), memBytes)
		}
	}
	return nil
}

// paddings expands the swept padding values in ascending order. Each is
// computed from its index, never by stepping past PadMax, which
// overflows once PadMax is within PadStep of math.MaxInt.
func (s Spec) paddings() []int {
	pads := make([]int, (s.PadMax-s.PadMin)/s.PadStep+1)
	for i := range pads {
		pads[i] = s.PadMin + i*s.PadStep
	}
	return pads
}

// shardSeed derives the noise seed for one shard. The mix keeps shard
// streams decorrelated while staying a pure function of (BaseSeed,
// shard), which is what makes worker count irrelevant to results.
func shardSeed(base int64, shard int) int64 {
	x := uint64(base) ^ (uint64(shard+1) * 0x9E3779B97F4A7C15)
	x ^= x >> 32
	return int64(x)
}

// Histogram counts latency samples per exact cycle value.
type Histogram struct {
	counts map[timing.Cycles]uint64
	total  uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[timing.Cycles]uint64)}
}

// Add records one latency sample.
func (h *Histogram) Add(c timing.Cycles) {
	h.counts[c]++
	h.total++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns how many samples landed exactly on the given latency.
func (h *Histogram) Count(c timing.Cycles) uint64 { return h.counts[c] }

// Bin is one histogram bucket: an exact latency and its sample count.
type Bin struct {
	Latency timing.Cycles
	Count   uint64
}

// Bins returns the buckets in ascending latency order.
func (h *Histogram) Bins() []Bin {
	bins := make([]Bin, 0, len(h.counts))
	for c, n := range h.counts {
		bins = append(bins, Bin{Latency: c, Count: n})
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i].Latency < bins[j].Latency })
	return bins
}

// Quantile returns the smallest latency at or below which at least
// ⌈q·Total⌉ samples lie (q in [0,1]; q=0 is the minimum, q=1 the
// maximum). Zero-sample histograms report 0. The walk over sorted bins
// makes it a pure function of the recorded samples, so summary tables
// derived from bit-identical histograms are themselves bit-identical.
func (h *Histogram) Quantile(q float64) timing.Cycles {
	return h.Quantiles(q)[0]
}

// Quantiles answers several quantile queries with a single bin sort —
// the summary-table path asks for min/p25/p50/p90/max per histogram
// and should not pay five sorts for it. Each query's sample rank
// ⌈q·Total⌉ is clamped to [1, Total], so out-of-range q degrade
// gracefully rather than panic or read past the distribution: any
// q ≤ 0 — and NaN — reports the minimum exactly like q=0, and any
// q ≥ 1 reports the maximum exactly like q=1. The clamp happens in
// float space, before any float→integer conversion, because Go leaves
// out-of-range conversions implementation-defined. An empty histogram
// reports 0 for every query. The flip-latency tables depend on this
// contract at the q=0/q=1 edges.
func (h *Histogram) Quantiles(qs ...float64) []timing.Cycles {
	out := make([]timing.Cycles, len(qs))
	if h.total == 0 {
		return out
	}
	bins := h.Bins()
	for i, q := range qs {
		var rank uint64
		switch {
		case math.IsNaN(q) || q <= 0:
			rank = 1
		case q >= 1:
			rank = h.total
		default:
			rank = uint64(math.Ceil(q * float64(h.total)))
			if rank < 1 {
				rank = 1
			}
			if rank > h.total {
				rank = h.total
			}
		}
		var seen uint64
		for _, b := range bins {
			seen += b.Count
			if seen >= rank {
				out[i] = b.Latency
				break
			}
		}
	}
	return out
}

// Mean returns the average sample latency in cycles (0 when empty).
// The sum runs over sorted bins, not the raw count map: float addition
// is not associative, so summing in map-iteration order would make the
// low digits of the mean vary run to run on identical samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for _, b := range h.Bins() {
		sum += float64(b.Latency) * float64(b.Count)
	}
	return sum / float64(h.total)
}

// Merge folds other's samples into h. Map order is harmless here:
// per-key uint64 adds commute, so any iteration order yields the same
// counts.
func (h *Histogram) Merge(other *Histogram) {
	for c, n := range other.counts { //pthammer:nondeterministic-ok order-independent integer accumulation per distinct key
		h.counts[c] += n
	}
	h.total += other.total
}

// Equal reports whether two histograms hold identical samples. Map
// order is harmless here: membership comparison is order-independent.
func (h *Histogram) Equal(other *Histogram) bool {
	if h.total != other.total || len(h.counts) != len(other.counts) {
		return false
	}
	for c, n := range h.counts { //pthammer:nondeterministic-ok order-independent membership comparison
		if other.counts[c] != n {
			return false
		}
	}
	return true
}

// Point is the merged measurement at one padding value.
type Point struct {
	Padding int
	Hist    *Histogram
}

// Result is a completed sweep: one Point per padding value, ascending.
type Result struct {
	Points []Point
}

// Merged folds every padding's histogram into one distribution — the
// overall latency picture Figure 6 compares across hammer styles.
func (r *Result) Merged() *Histogram {
	h := NewHistogram()
	for _, p := range r.Points {
		h.Merge(p.Hist)
	}
	return h
}

// Run executes the sweep and returns the per-padding histograms. The
// shards (one per padding value) are pulled off a shared index by the
// worker pool; each shard writes only its own slot, so the merge is
// race-free and the output deterministic for a fixed Spec. Each worker
// owns one machine for the length of the Run. Errors are reported in
// shard order, so a bad machine template surfaces as the first shard's
// construction error regardless of scheduling: a worker whose
// machine.New failed tries again on its next shard.
func Run(s Spec) (*Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	pads := s.paddings()
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pads) {
		workers = len(pads)
	}

	points := make([]Point, len(pads))
	errs := make([]error, len(pads))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m *machine.Machine
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pads) {
					return
				}
				var h *Histogram
				var err error
				if m, err = s.shardMachine(m, i); err == nil {
					h, err = s.runShard(m, i, pads[i])
				}
				points[i] = Point{Padding: pads[i], Hist: h}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Result{Points: points}, nil
}

// shardMachine readies a machine for one shard, seeded with the
// shard's noise seed: m recycled with ResetWithNoiseSeed, or a new
// machine built from the template when m is nil.
func (s Spec) shardMachine(m *machine.Machine, shard int) (*machine.Machine, error) {
	seed := shardSeed(s.BaseSeed, shard)
	if m != nil {
		m.ResetWithNoiseSeed(seed)
		return m, nil
	}
	cfg := s.Machine
	cfg.NoiseSeed = seed
	return machine.New(cfg)
}

// runShard measures one padding value on m, which must be in
// fresh-construction state with the shard's noise seed (shardMachine).
// In EvictBetween mode it first runs Algorithm 1 on that machine — the
// construction is deterministic for the shard's seed, so the merged
// sweep stays bit-identical for any worker count.
func (s Spec) runShard(m *machine.Machine, shard, pad int) (*Histogram, error) {
	var err error
	var tlbs []*evset.TLBSet
	var llcs []*evset.LLCSet
	if s.EvictBetween {
		tlbs = make([]*evset.TLBSet, len(s.Addrs))
		llcs = make([]*evset.LLCSet, len(s.Addrs))
		for i, a := range s.Addrs {
			// Every other target page is excluded from this target's
			// streams, so priming one never re-installs another.
			if tlbs[i], err = evset.BuildTLB(m, a, s.Addrs, s.Evict); err != nil {
				return nil, fmt.Errorf("sweep: shard %d addr %#x: %w", shard, uint64(a), err)
			}
			if llcs[i], err = evset.BuildLLCPTE(m, a, tlbs[i], s.Addrs, s.Evict); err != nil {
				return nil, fmt.Errorf("sweep: shard %d addr %#x: %w", shard, uint64(a), err)
			}
		}
	}
	h := NewHistogram()
	nopCost := s.Machine.Lat.NOP * timing.Cycles(pad)
	clock := m.Clock()
	buf := make([]mem.Result, 0, len(s.Addrs))
	for rep := 0; rep < s.Reps; rep++ {
		if s.FlushBetween {
			for _, a := range s.Addrs {
				m.Flush(a)
			}
		}
		if s.EvictBetween {
			for i := range tlbs {
				tlbs[i].Evict(m)
				llcs[i].Evict(m)
			}
		}
		// Execute the padding NOPs, then replay the address stream as
		// one batched measurement.
		clock.Advance(nopCost)
		buf = m.LoadN(s.Addrs, buf[:0])
		for _, r := range buf {
			h.Add(r.Latency)
		}
	}
	return h, nil
}
