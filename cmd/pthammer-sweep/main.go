// Command pthammer-sweep reproduces the shape of the paper's Figure 5
// and Figure 6 measurements against the SandyBridge preset: it sweeps
// the number of padding NOPs executed before each timed load and emits
// the latency-vs-padding table (Figure 5) plus the merged latency
// distribution (Figure 6) as tab-separated text.
//
// The default mode is the paper's actual measurement: eviction-driven
// (-mode evict). Each sweep shard runs Algorithm 1 — building a TLB
// eviction set and a leaf-PTE LLC eviction set per target page from
// user-space loads alone — and walks both sets before every timed
// replay, so the timed loads traverse the full implicit-access path
// with zero flush or invlpg. -mode flush runs the privileged clflush
// baseline for comparison.
//
// Output is a pure function of the spec (machine preset, padding
// range, reps, seed, mode): the sweep engine's merged histograms are
// bit-identical for any worker count, and the tables are derived only
// from them, so -workers changes wall-clock time and nothing else —
// asserted by this package's tests.
//
// Usage:
//
//	pthammer-sweep [-mode evict|flush] [-padmin N] [-padmax N]
//	               [-padstep N] [-reps N] [-targets N] [-noise P]
//	               [-seed N] [-workers N] [-o FILE]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"pthammer/internal/machine"
	"pthammer/internal/pagetable"
	"pthammer/internal/phys"
	"pthammer/internal/sweep"
)

// buildSpec assembles the sweep from the command's knobs. Targets are
// spread one per 2 MiB region so every page has its own leaf page
// table — the same layout the hammer scenarios use.
func buildSpec(mode string, targets, padMin, padMax, padStep, reps, workers int, noise float64, seed int64) (sweep.Spec, error) {
	if targets <= 0 {
		return sweep.Spec{}, fmt.Errorf("targets must be positive (got %d)", targets)
	}
	// The negated form rejects NaN too, the same test timing.NewNoise
	// applies once a machine is built.
	if !(noise >= 0 && noise < 1) {
		return sweep.Spec{}, fmt.Errorf("noise %v outside [0,1)", noise)
	}
	if workers < 0 {
		return sweep.Spec{}, fmt.Errorf("workers must be non-negative (got %d)", workers)
	}
	cfg := machine.SandyBridge()
	if noise > 0 {
		cfg.NoiseProb = noise
		cfg.NoiseMin = 100
		cfg.NoiseMax = 500
	}
	addrs := make([]phys.Addr, targets)
	for i := range addrs {
		addrs[i] = phys.Addr(uint64(i) * pagetable.Span(2))
	}
	s := sweep.Spec{
		Machine:  cfg,
		Addrs:    addrs,
		PadMin:   padMin,
		PadMax:   padMax,
		PadStep:  padStep,
		Reps:     reps,
		Workers:  workers,
		BaseSeed: seed,
	}
	switch mode {
	case "evict":
		s.EvictBetween = true
	case "flush":
		s.FlushBetween = true
	default:
		return sweep.Spec{}, fmt.Errorf("unknown mode %q (want evict or flush)", mode)
	}
	return s, nil
}

// renderTables runs the sweep and renders both tables. Everything
// written is derived from the spec and the (worker-count-independent)
// histograms, so the bytes are deterministic for a fixed spec — the
// contract the determinism test pins across worker counts.
func renderTables(s sweep.Spec, mode string) ([]byte, error) {
	res, err := sweep.Run(s)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# pthammer-sweep preset=SandyBridge mode=%s targets=%d reps=%d seed=%d noise=%g\n",
		mode, len(s.Addrs), s.Reps, s.BaseSeed, s.Machine.NoiseProb)

	fmt.Fprintf(&buf, "# figure5: load latency (cycles) vs padding NOPs\n")
	fmt.Fprintf(&buf, "padding\tsamples\tmin\tp25\tp50\tp90\tmax\tmean\n")
	for _, p := range res.Points {
		h := p.Hist
		qs := h.Quantiles(0, 0.25, 0.5, 0.9, 1)
		fmt.Fprintf(&buf, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\n",
			p.Padding, h.Total(), qs[0], qs[1], qs[2], qs[3], qs[4], h.Mean())
	}

	fmt.Fprintf(&buf, "# figure6: merged latency distribution\n")
	fmt.Fprintf(&buf, "latency\tcount\n")
	for _, b := range res.Merged().Bins() {
		fmt.Fprintf(&buf, "%d\t%d\n", b.Latency, b.Count)
	}
	return buf.Bytes(), nil
}

func main() {
	mode := flag.String("mode", "evict", "measurement mode: evict (Algorithm 1 eviction sets, flush-free) or flush (privileged clflush baseline)")
	padMin := flag.Int("padmin", 0, "smallest padding NOP count")
	padMax := flag.Int("padmax", 100, "largest padding NOP count")
	padStep := flag.Int("padstep", 10, "padding step")
	reps := flag.Int("reps", 20, "timed replays of the target stream per padding value")
	targets := flag.Int("targets", 2, "number of target pages (one per 2 MiB region)")
	noise := flag.Float64("noise", 0.05, "per-load latency-spike probability (0 = fully deterministic)")
	seed := flag.Int64("seed", 1, "base seed for the per-shard noise streams")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); never affects the tables")
	out := flag.String("o", "", "output path (default stdout)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pthammer-sweep:", err)
		os.Exit(1)
	}
	spec, err := buildSpec(*mode, *targets, *padMin, *padMax, *padStep, *reps, *workers, *noise, *seed)
	if err != nil {
		fail(err)
	}
	tables, err := renderTables(spec, *mode)
	if err != nil {
		fail(err)
	}
	if *out == "" {
		os.Stdout.Write(tables)
		return
	}
	if err := os.WriteFile(*out, tables, 0o644); err != nil {
		fail(err)
	}
	fmt.Println("wrote", *out)
}
