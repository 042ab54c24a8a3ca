// Command pthammer-flip characterises the repository's disturbance-
// error engine the way "Flipping Bits in Memory Without Accessing
// Them" characterises real modules: for each DRAM module class
// (internal/flip profiles A/B/C) it builds the full escalation layout
// on the demo machine (bench.EscalationConfig — sprayed victim page
// tables, measured eviction sets, flush-free hammer), hammers for a
// fixed iteration budget, and tabulates time-to-first-flip and
// flips-per-10⁶-iterations. It then runs the class-A
// pte-flip-escalation end to end — one attempt of the budgeted
// escalation driver over the -robust-windows budget — and reports the
// exploit chain, and finally sweeps the full driver across the fault
// matrix (internal/fault) to tabulate robustness: success rate and
// window spend per injected fault class over a seed matrix.
//
// Every number in the output is simulated state (iterations, windows,
// cycle-derived milliseconds, addresses), never wall-clock, so the
// bytes are a pure function of the flags: reruns are bit-identical,
// which the CI robustness run asserts by diffing two invocations. The
// command exits non-zero if no class produces a flip — a broken flip
// engine should redden CI, not emit an empty table.
//
// Usage:
//
//	pthammer-flip [-seed N] [-iters N] [-robust-seeds N]
//	              [-robust-windows N] [-o FILE]
//
// Exit codes: 0 success, 1 simulation failure, 2 usage error, 3 output
// write failure.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pthammer/internal/bench"
	"pthammer/internal/fault"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
)

// The command's exit codes, one per failure surface, so CI scripts can
// tell a broken flag line from a broken simulation from a full disk.
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitWrite   = 3
)

// simMillis converts simulated cycles to milliseconds at the machine
// clock rate.
func simMillis(cycles uint64) float64 {
	return float64(cycles) / float64(machine.FreqHz) * 1e3
}

// render runs the per-class flip-rate table, the class-A escalation
// (one driver attempt spanning budget.MaxWindows), and (for
// robustSeeds > 0) the fault-matrix robustness sweep under budget, and
// returns the full deterministic report.
func render(seed int64, iters uint64, robustSeeds int, budget bench.Budget) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# pthammer-flip preset=SandyBridge(escalation layout) seed=%d iters=%d\n", seed, iters)
	fmt.Fprintf(&buf, "# table 1: time-to-first-flip and flip rate per DRAM module class\n")
	fmt.Fprintf(&buf, "class\tattempts_per_window\texcess_scale\tbias_1to0\tfirst_flip_iter\tfirst_flip_sim_ms\twindows\tflips\tflips_per_1e6_iters\n")
	totalFlips := 0
	for _, p := range flip.Profiles() {
		run, err := bench.RunFlipRate(p, seed, iters)
		if err != nil {
			return nil, fmt.Errorf("class %s: %w", p.Name, err)
		}
		totalFlips += run.Flips
		fmt.Fprintf(&buf, "%s\t%d\t%g\t%g\t%d\t%.3f\t%d\t%d\t%.1f\n",
			p.Name, p.AttemptsPerWindow, p.ExcessScale, p.OneToZeroBias,
			run.FirstFlipIter, simMillis(uint64(run.FirstFlipCycles)),
			run.Windows, run.Flips, run.FlipsPerMillionIters())
	}
	if totalFlips == 0 {
		return nil, fmt.Errorf("no module class produced a flip within %d iterations — flip engine broken?", iters)
	}

	w := budget.MaxWindows
	v, err := bench.RunEscalationResilient(flip.ClassA(), seed, nil, bench.Budget{MaxWindows: w, AttemptWindows: w})
	if err != nil {
		return nil, fmt.Errorf("escalation: %w", err)
	}
	if !v.Success {
		return nil, fmt.Errorf("escalation: %s after %d windows (%d flips landed)", v.Reason, v.Windows, v.Flips)
	}
	res := v.Result
	fmt.Fprintf(&buf, "# table 2: pte-flip-escalation (class A): flip -> Translate divergence -> PTE rewrite -> kernel write\n")
	fmt.Fprintf(&buf, "iterations\twindows\tflips\tfirst_flip_iter\tsim_ms\tcorrupt_va\ttable_frame\trewritten_va\tsecret_frame\n")
	fmt.Fprintf(&buf, "%d\t%d\t%d\t%d\t%.3f\t%#x\t%#x\t%#x\t%#x\n",
		res.Iterations, res.Windows, res.TotalFlips, res.FirstFlipIter,
		simMillis(uint64(res.Cycles)),
		uint64(res.CorruptVA), uint64(res.TableFrame),
		uint64(res.RewrittenVA), uint64(res.SecretFrame))

	if robustSeeds > 0 {
		if err := renderRobustness(&buf, robustSeeds, budget); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// renderRobustness sweeps the budgeted escalation driver over the
// fault matrix × seeds 1..robustSeeds and appends table 3: per fault
// class, how often the driver recovered, what it spent, and how every
// abort was classified.
func renderRobustness(buf *bytes.Buffer, robustSeeds int, budget bench.Budget) error {
	fmt.Fprintf(buf, "# table 3: resilient escalation under injected faults (class A, budget=%d windows, seeds 1..%d)\n",
		budget.MaxWindows, robustSeeds)
	fmt.Fprintf(buf, "fault_class\tkind\tseeds\tsuccesses\tsuccess_rate\tmean_windows\tmax_windows\tmean_iters\trebuilds\treplans\tfaults_observed\tpriv_ops\tabort_reasons\n")
	for _, sc := range fault.Matrix() {
		var succ int
		var sumWindows, maxWindows, sumIters, faults, privOps uint64
		var rebuilds, replans uint
		reasons := make(map[string]bool)
		for s := 1; s <= robustSeeds; s++ {
			v, err := bench.RunEscalationResilient(flip.ClassA(), int64(s), sc.Config, budget)
			if err != nil {
				return fmt.Errorf("robustness %s seed %d: %w", sc.Name, s, err)
			}
			if v.Success {
				succ++
			} else {
				reasons[string(v.Reason)] = true
			}
			sumWindows += v.Windows
			if v.Windows > maxWindows {
				maxWindows = v.Windows
			}
			sumIters += v.Iterations
			rebuilds += v.Rebuilds
			replans += v.Replans
			faults += v.Faults.Total()
			privOps += v.PrivFlushes + v.PrivInvlpgs
		}
		kind := "recoverable"
		if !sc.Recoverable {
			kind = "unrecoverable"
		}
		abortReasons := "-"
		if len(reasons) > 0 {
			var rs []string
			for r := range reasons {
				rs = append(rs, r)
			}
			sort.Strings(rs)
			abortReasons = strings.Join(rs, ",")
		}
		n := float64(robustSeeds)
		fmt.Fprintf(buf, "%s\t%s\t%d\t%d\t%.2f\t%.1f\t%d\t%.1f\t%d\t%d\t%d\t%d\t%s\n",
			sc.Name, kind, robustSeeds, succ, float64(succ)/n,
			float64(sumWindows)/n, maxWindows, float64(sumIters)/n,
			rebuilds, replans, faults, privOps, abortReasons)
	}
	return nil
}

// run is main with its environment made explicit, so the error paths
// are table-testable: args exclude the program name, and the return
// value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pthammer-flip", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed for the flip models; the whole report is deterministic per seed")
	iters := fs.Uint64("iters", 8000, "hammer iterations per module class for the rate table")
	robustSeeds := fs.Int("robust-seeds", 3, "seeds per fault class for the robustness table (0 skips it)")
	robustWindows := fs.Uint64("robust-windows", bench.DefaultBudget().MaxWindows, "window budget per escalation run, in the escalation and robustness tables")
	out := fs.String("o", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		// The flag set already printed the parse error and usage.
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pthammer-flip: unexpected arguments: %q\n", fs.Args())
		fs.Usage()
		return exitUsage
	}
	if *iters == 0 {
		fmt.Fprintln(stderr, "pthammer-flip: -iters must be positive")
		return exitUsage
	}
	if *robustSeeds < 0 {
		fmt.Fprintf(stderr, "pthammer-flip: -robust-seeds must be non-negative (got %d)\n", *robustSeeds)
		return exitUsage
	}
	budget := bench.DefaultBudget()
	budget.MaxWindows = *robustWindows
	if err := budget.Validate(); err != nil {
		fmt.Fprintf(stderr, "pthammer-flip: -robust-windows %d: %v\n", *robustWindows, err)
		return exitUsage
	}

	report, err := render(*seed, *iters, *robustSeeds, budget)
	if err != nil {
		fmt.Fprintln(stderr, "pthammer-flip:", err)
		return exitRuntime
	}
	if *out == "" {
		stdout.Write(report)
		return exitOK
	}
	if err := os.WriteFile(*out, report, 0o644); err != nil {
		fmt.Fprintln(stderr, "pthammer-flip:", err)
		return exitWrite
	}
	fmt.Fprintln(stdout, "wrote", *out)
	return exitOK
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
