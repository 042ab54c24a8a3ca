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
// range, reps, seed, mode): the sweep runs GOMAXPROCS workers, its
// merged histograms are bit-identical for any worker count, and the
// tables are derived only from them, so GOMAXPROCS changes wall-clock
// time and nothing else — asserted by this package's tests.
//
// Usage:
//
//	pthammer-sweep [-mode evict|flush] [-padmin N] [-padmax N]
//	               [-padstep N] [-reps N] [-targets N] [-noise P]
//	               [-seed N] [-o FILE]
//
// Exit codes: 0 success; 1 the sweep engine rejected the spec or
// failed (a -reps, -padstep or padding range it refuses, a target past
// the machine's memory); 2 usage error (an unknown flag, a stray
// argument, or a bad -mode, -targets or -noise value); 3 output write
// failure.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"pthammer/internal/machine"
	"pthammer/internal/pagetable"
	"pthammer/internal/phys"
	"pthammer/internal/sweep"
)

// The command's exit codes, one per failure surface, so CI scripts can
// tell a broken flag line from a broken simulation from a full disk.
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitWrite   = 3
)

// buildSpec assembles the sweep from the command's knobs. Targets are
// spread one per 2 MiB region so every page has its own leaf page
// table — the same layout the hammer scenarios use. The spec leaves
// Workers at 0: the sweep runs GOMAXPROCS workers.
func buildSpec(mode string, targets, padMin, padMax, padStep, reps int, noise float64, seed int64) (sweep.Spec, error) {
	if targets <= 0 {
		return sweep.Spec{}, fmt.Errorf("targets must be positive (got %d)", targets)
	}
	// The negated form rejects NaN too, the same test timing.NewNoise
	// applies once a machine is built.
	if !(noise >= 0 && noise < 1) {
		return sweep.Spec{}, fmt.Errorf("noise %v outside [0,1)", noise)
	}
	cfg := machine.SandyBridge()
	if noise > 0 {
		cfg.NoiseProb = noise
		cfg.NoiseMin = 100
		cfg.NoiseMax = 500
	}
	// Every target past memory is rejected by the sweep, so the list
	// stops one past the last that fits: a huge count costs one error,
	// not an allocation of that many addresses.
	addrs := make([]phys.Addr, min(uint64(targets), cfg.DRAM.Capacity()/pagetable.Span(2)+1))
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

// run is main with its environment made explicit, so the error paths
// are table-testable: args exclude the program name, and the return
// value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pthammer-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "evict", "measurement mode: evict (Algorithm 1 eviction sets, flush-free) or flush (privileged clflush baseline)")
	padMin := fs.Int("padmin", 0, "smallest padding NOP count")
	padMax := fs.Int("padmax", 100, "largest padding NOP count")
	padStep := fs.Int("padstep", 10, "padding step")
	reps := fs.Int("reps", 20, "timed replays of the target stream per padding value")
	targets := fs.Int("targets", 2, "number of target pages (one per 2 MiB region)")
	noise := fs.Float64("noise", 0.05, "per-load latency-spike probability (0 = fully deterministic)")
	seed := fs.Int64("seed", 1, "base seed for the per-shard noise streams")
	out := fs.String("o", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		// The flag set already printed the parse error and usage.
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pthammer-sweep: unexpected arguments: %q\n", fs.Args())
		fs.Usage()
		return exitUsage
	}
	spec, err := buildSpec(*mode, *targets, *padMin, *padMax, *padStep, *reps, *noise, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "pthammer-sweep:", err)
		return exitUsage
	}
	tables, err := renderTables(spec, *mode)
	if err != nil {
		fmt.Fprintln(stderr, "pthammer-sweep:", err)
		return exitRuntime
	}
	if *out == "" {
		stdout.Write(tables)
		return exitOK
	}
	if err := os.WriteFile(*out, tables, 0o644); err != nil {
		fmt.Fprintln(stderr, "pthammer-sweep:", err)
		return exitWrite
	}
	fmt.Fprintln(stdout, "wrote", *out)
	return exitOK
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
