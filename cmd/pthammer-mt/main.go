// Command pthammer-mt runs the multi-tenant scenarios — the attacks
// only a machine with concurrent per-core front-ends over a shared LLC
// and banked DRAM can express — and tabulates their outcomes:
//
//   - mt-colocated-amplify: one attacker core stays below the flip
//     threshold; two co-located cores hammering the same aggressor
//     pair cross it.
//   - mt-noisy-neighbour: a memory-streaming bystander tenant closes
//     the attacker's open DRAM rows and steals bank arbitration slots,
//     diluting its pressure below the threshold the quiet arm crosses.
//   - mt-cross-tenant-escalation: tenant page-table pools striped
//     across adjacent DRAM rows let the attacker hammer its own
//     leaf-PTE rows until a flip in the sandwiched victim row remaps a
//     victim page onto an attacker-owned frame; the attacker's marker
//     read back through the victim's own translation is the breach.
//   - mt-population: thousands of attacker/victim tenant pairs
//     time-sliced over a bounded pool of recycled front-ends
//     (internal/cohort), tabulating breach, dilution and table-flip
//     rates per 10⁶ tenants across module classes A/B/C and both table
//     striping layouts.
//
// A machine's cores take their quanta as plain calls on one goroutine,
// granted lowest-clock-first with a fixed tiebreak; the population
// runs' units — one two-core machine per GOMAXPROCS, so GOMAXPROCS
// also sets the pool size — run in parallel, but share no simulated
// state. So the output bytes are a pure function of the flags, and in
// particular independent of GOMAXPROCS. CI asserts this by diffing
// runs at GOMAXPROCS 1, 2 and 4, twice each, and the population table
// additionally at GOMAXPROCS 32: pools of 1, 2, 4 and 32 units.
//
// Usage:
//
//	pthammer-mt [-scenario all|amplify|noisy|cross-tenant|population]
//	            [-seed N] [-windows N] [-xt-seed N] [-xt-windows N]
//	            [-pop-tenants N] [-pop-seed N] [-pop-windows N] [-o FILE]
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
	"runtime"

	"pthammer/internal/bench"
	"pthammer/internal/cohort"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitWrite   = 3
)

// renderAmplify runs both co-location arms and appends table 1.
func renderAmplify(buf *bytes.Buffer, seed int64, windows int) error {
	res, err := bench.RunColocatedAmplify(seed, windows)
	if err != nil {
		return fmt.Errorf("amplify: %w", err)
	}
	fmt.Fprintf(buf, "# table 1: mt-colocated-amplify — same pair, one core vs two co-located cores (seed=%d windows=%d)\n", seed, windows)
	fmt.Fprintf(buf, "arm\tcores\tpeak_pressure\tflips\titerations\n")
	fmt.Fprintf(buf, "solo\t1\t%d\t%d\t%d\n", res.SoloPressure, res.SoloFlips, res.SoloIters)
	fmt.Fprintf(buf, "duo\t2\t%d\t%d\t%d\n", res.DuoPressure, res.DuoFlips, res.DuoIters)
	if res.SoloFlips != 0 || res.DuoFlips == 0 {
		return fmt.Errorf("amplify: co-location did not gate the flips: %+v", res)
	}
	return nil
}

// renderNoisy runs both neighbour arms and appends table 2.
func renderNoisy(buf *bytes.Buffer, seed int64, windows int) error {
	res, err := bench.RunNoisyNeighbour(seed, windows)
	if err != nil {
		return fmt.Errorf("noisy: %w", err)
	}
	fmt.Fprintf(buf, "# table 2: mt-noisy-neighbour — attacker next to an idle vs streaming bystander tenant (seed=%d windows=%d)\n", seed, windows)
	fmt.Fprintf(buf, "arm\tpeak_pressure\tflips\tattacker_iters\tbystander_loads\n")
	fmt.Fprintf(buf, "quiet\t%d\t%d\t%d\t0\n", res.QuietPressure, res.QuietFlips, res.QuietIters)
	fmt.Fprintf(buf, "noisy\t%d\t%d\t%d\t%d\n", res.NoisyPressure, res.NoisyFlips, res.NoisyIters, res.BystanderLoads)
	if res.QuietFlips == 0 || res.NoisyFlips != 0 {
		return fmt.Errorf("noisy: bystander did not dilute the flips: %+v", res)
	}
	return nil
}

// renderCrossTenant runs the escalation chain and appends table 3.
func renderCrossTenant(buf *bytes.Buffer, seed int64, maxWindows int) error {
	res, err := bench.RunCrossTenantEscalation(seed, maxWindows)
	if err != nil {
		return fmt.Errorf("cross-tenant: %w", err)
	}
	fmt.Fprintf(buf, "# table 3: mt-cross-tenant-escalation — striped table pools, victim row sandwiched by attacker rows (seed=%d budget=%d windows)\n", seed, maxWindows)
	fmt.Fprintf(buf, "attacker_rows\tvictim_row\twindows\titerations\tflips\tdiverged_va\thijacked_frame\tbreached\n")
	fmt.Fprintf(buf, "%d,%d\t%d\t%d\t%d\t%d\t%#x\t%#x\t%v\n",
		res.AttackerRows[0], res.AttackerRows[1], res.VictimRow,
		res.Windows, res.Iterations, res.Flips,
		uint64(res.DivergedVA), uint64(res.HijackedFrame.Addr()), res.Breached)
	if !res.Breached {
		return fmt.Errorf("cross-tenant: no breach: %+v", res)
	}
	return nil
}

// renderPopulation runs tenant populations through bounded cohort
// pools and appends table 4. Every class reuses the layout's pool —
// the construct-once/reset-many lifecycle the cohort scheduler exists
// for — and each row's story is asserted before the bytes are kept:
// interleaved striping must breach for class A and split the
// population between diluted and undiluted tenants, blocked striping
// must be fully defensive.
func renderPopulation(buf *bytes.Buffer, tenants int, seed int64, windows int) error {
	fmt.Fprintf(buf, "# table 4: mt-population — tenant populations over a bounded core pool, rates per 10^6 tenants (tenants=%d/row windows=%d seed=%d)\n",
		tenants, windows, seed)
	fmt.Fprintf(buf, "layout\tclass\ttenants\tbreached_per_M\tdiluted_per_M\ttable_flips_per_M\tmean_peak_pressure\tmax_peak_pressure\tmean_iters\n")
	// One two-core unit per GOMAXPROCS. Units draw tenants from one
	// shared index, one tenant per draw, so at most one unit per tenant
	// ever runs: a unit past the tenant count would be built and never
	// run.
	frontEnds := min(2*runtime.GOMAXPROCS(0), 2*tenants, cohort.MaxFrontEnds)
	for _, layout := range []machine.TableLayout{machine.LayoutInterleaved, machine.LayoutBlocked} {
		pool, err := cohort.NewPool(frontEnds, layout)
		if err != nil {
			return fmt.Errorf("population: %w", err)
		}
		flips := make([]int, 0, 3)
		for _, class := range []flip.Profile{flip.ClassA(), flip.ClassB(), flip.ClassC()} {
			pop, err := pool.Run(cohort.Spec{Profile: class, Tenants: tenants, Seed: seed, Windows: windows})
			if err != nil {
				return fmt.Errorf("population: %v class %s: %w", layout, class.Name, err)
			}
			fmt.Fprintf(buf, "%v\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				layout, class.Name, pop.Tenants,
				pop.BreachedPerM(), pop.DilutedPerM(), pop.TableFlipsPerM(),
				pop.MeanPeakPressure, pop.MaxPeakPressure, pop.MeanIterations)
			flips = append(flips, pop.TableFlips)
			switch layout {
			case machine.LayoutInterleaved:
				if class.Name == "A" && pop.Breached == 0 {
					return fmt.Errorf("population: interleaved class A never breached: %+v", pop)
				}
				if pop.Diluted == 0 || pop.Diluted == pop.Tenants {
					return fmt.Errorf("population: interleaved class %s dilution is degenerate: %+v", class.Name, pop)
				}
			case machine.LayoutBlocked:
				if pop.Breached != 0 || pop.TableFlips != 0 || pop.Diluted != pop.Tenants {
					return fmt.Errorf("population: blocked class %s is not defensive: %+v", class.Name, pop)
				}
			}
		}
		if layout == machine.LayoutInterleaved && !(flips[0] >= flips[1] && flips[1] >= flips[2]) {
			return fmt.Errorf("population: table flips not monotone across classes: %v", flips)
		}
	}
	return nil
}

// params is one render's full input: the output bytes are a pure
// function of it.
type params struct {
	scenario   string
	seed       int64
	windows    int
	xtSeed     int64
	xtWindows  int
	popTenants int
	popSeed    int64
	popWindows int
}

// render produces the full deterministic report for the selected
// scenario(s).
// The header deliberately omits GOMAXPROCS: CI diffs the bytes across
// it, so nothing scheduling- or pool-shape-dependent may appear in
// them.
func render(p params) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# pthammer-mt preset=SandyBridge(escalation scale) scenario=%s\n", p.scenario)
	if p.scenario == "all" || p.scenario == "amplify" {
		if err := renderAmplify(&buf, p.seed, p.windows); err != nil {
			return nil, err
		}
	}
	if p.scenario == "all" || p.scenario == "noisy" {
		if err := renderNoisy(&buf, p.seed, p.windows); err != nil {
			return nil, err
		}
	}
	if p.scenario == "all" || p.scenario == "cross-tenant" {
		if err := renderCrossTenant(&buf, p.xtSeed, p.xtWindows); err != nil {
			return nil, err
		}
	}
	if p.scenario == "all" || p.scenario == "population" {
		if err := renderPopulation(&buf, p.popTenants, p.popSeed, p.popWindows); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// run is main with its environment made explicit, so the error paths
// are table-testable: args exclude the program name, and the return
// value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pthammer-mt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "all", "which scenario to run: all, amplify, noisy, cross-tenant or population")
	seed := fs.Int64("seed", 4, "flip-model seed for the amplify and noisy scenarios")
	windows := fs.Int("windows", 4, "refresh windows per arm for the amplify and noisy scenarios")
	xtSeed := fs.Int64("xt-seed", 1, "flip-model seed for the cross-tenant escalation")
	xtWindows := fs.Int("xt-windows", 60, "refresh-window budget for the cross-tenant escalation")
	popTenants := fs.Int("pop-tenants", 2000, "tenants per population row (6 rows: 3 classes x 2 layouts)")
	popSeed := fs.Int64("pop-seed", 1, "population seed; per-tenant seeds are mixed from it")
	popWindows := fs.Int("pop-windows", 3, "refresh windows per tenant slice in the population runs")
	out := fs.String("o", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		// The flag set already printed the parse error and usage.
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pthammer-mt: unexpected arguments: %q\n", fs.Args())
		fs.Usage()
		return exitUsage
	}
	switch *scenario {
	case "all", "amplify", "noisy", "cross-tenant", "population":
	default:
		fmt.Fprintf(stderr, "pthammer-mt: unknown -scenario %q\n", *scenario)
		return exitUsage
	}
	if *windows < 1 || *xtWindows < 1 || *popWindows < 1 {
		fmt.Fprintf(stderr, "pthammer-mt: window counts must be positive (got %d, %d, %d)\n", *windows, *xtWindows, *popWindows)
		return exitUsage
	}
	if *popTenants < 1 || *popTenants > cohort.MaxTenants {
		fmt.Fprintf(stderr, "pthammer-mt: population needs 1 <= -pop-tenants <= %d (got %d)\n", cohort.MaxTenants, *popTenants)
		return exitUsage
	}

	report, err := render(params{
		scenario:   *scenario,
		seed:       *seed,
		windows:    *windows,
		xtSeed:     *xtSeed,
		xtWindows:  *xtWindows,
		popTenants: *popTenants,
		popSeed:    *popSeed,
		popWindows: *popWindows,
	})
	if err != nil {
		fmt.Fprintln(stderr, "pthammer-mt:", err)
		return exitRuntime
	}
	if *out == "" {
		stdout.Write(report)
		return exitOK
	}
	if err := os.WriteFile(*out, report, 0o644); err != nil {
		fmt.Fprintln(stderr, "pthammer-mt:", err)
		return exitWrite
	}
	fmt.Fprintln(stdout, "wrote", *out)
	return exitOK
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
