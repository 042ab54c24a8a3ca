// Command pthammer-bench runs the repository's standard performance
// scenarios against the SandyBridge preset and writes the results as
// JSON, seeding the repo's perf trajectory: each perf-focused PR reruns
// the tool and records a new BENCH_NNNN.json to compare against the
// last one.
//
// The scenario bodies live in internal/bench, shared with the in-tree
// `go test -bench` benchmarks so both always measure the same loops.
//
// Usage:
//
//	pthammer-bench             rerun and write the next BENCH_NNNN.json
//	pthammer-bench -o FILE     rerun and write FILE
//	pthammer-bench -C DIR      look for baselines (and write reports) in DIR
//	pthammer-bench -check      regression gate: rerun and exit non-zero
//	                           if any steady-state scenario regresses
//	                           >25% vs. the newest usable committed
//	                           BENCH_NNNN.json or allocates per op
//
// Baseline discovery walks the committed BENCH_NNNN.json files newest
// to oldest and compares against the first that parses and validates
// (right tool, right preset, non-empty go_version, non-empty scenario
// list); broken files are skipped with a warning, and -check exits 4
// only when none is usable.
//
// -check is wired into CI so hot-path regressions fail the PR that
// introduces them, not the next perf PR.
//
// Exit codes: 0 success, 1 regression (or other runtime failure),
// 2 usage error, 3 report write failure, 4 baseline missing or corrupt.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"pthammer/internal/bench"
)

// The command's exit codes, one per failure surface: CI scripts need
// to tell "your change is slower" (1) from "your baseline file is
// gone or unparseable" (4) from "the report didn't land on disk" (3).
const (
	exitOK         = 0
	exitRegression = 1
	exitUsage      = 2
	exitWrite      = 3
	exitBaseline   = 4
)

// maxRegression is the ns/op ratio past which -check fails a
// steady-state scenario.
const maxRegression = 1.25

// scenarioResult is one scenario's measurement. LoadsPerSec counts
// simulated loads (not benchmark iterations) retired per wall-clock
// second.
type scenarioResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	SteadyState bool    `json:"steady_state,omitempty"`
	LoadsPerSec float64 `json:"loads_per_sec,omitempty"`
	// SpeedupVsBaseline is baseline ns/op divided by this run's ns/op,
	// for scenarios present in the previous committed report.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// report is the file layout of BENCH_NNNN.json. Older reports carried
// extra fields; only the ones below are read back, so every committed
// generation stays parseable as a baseline.
type report struct {
	Tool         string           `json:"tool"`
	GoVersion    string           `json:"go_version"`
	GOOS         string           `json:"goos"`
	GOARCH       string           `json:"goarch"`
	Preset       string           `json:"preset"`
	BaselineFile string           `json:"baseline_file,omitempty"`
	Scenarios    []scenarioResult `json:"scenarios"`
}

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// loadReport parses a committed baseline.
func loadReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// validateBaseline decides whether a parsed report can serve as a
// comparison baseline. A report from a different tool or preset would
// make every ns/op ratio meaningless; a report with no go_version or
// no scenarios is a truncated or hand-mangled file. A *different*
// go_version is fine — toolchain upgrades are exactly what the 25%
// regression allowance absorbs.
func validateBaseline(rep report) error {
	switch {
	case rep.Tool != "pthammer-bench":
		return fmt.Errorf("tool %q, want %q", rep.Tool, "pthammer-bench")
	case rep.Preset != "SandyBridge":
		return fmt.Errorf("preset %q, want %q", rep.Preset, "SandyBridge")
	case rep.GoVersion == "":
		return fmt.Errorf("missing go_version")
	case len(rep.Scenarios) == 0:
		return fmt.Errorf("no scenarios")
	}
	return nil
}

// scanBaselines reads dir once. last is the highest BENCH_NNNN.json
// number present, usable or not (-1 when there is none), so a new
// report never overwrites a quarantined file. path and rep are the
// newest file that parses and validates, found by walking the files
// newest to oldest and warning on warn for every one skipped. Before
// this walk existed the tool blindly trusted the highest-numbered file,
// so one corrupt or foreign-preset report silently disabled (or
// poisoned) the CI gate; now a bad newest file degrades to the previous
// good one, visibly. ok is false when no usable baseline exists at all.
func scanBaselines(dir string, warn io.Writer) (last int, path string, rep report, ok bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return -1, "", report{}, false, err
	}
	type cand struct {
		num  int
		path string
	}
	var cands []cand
	for _, e := range entries {
		m := benchName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, convErr := strconv.Atoi(m[1])
		if convErr != nil {
			continue
		}
		cands = append(cands, cand{n, filepath.Join(dir, e.Name())})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].num > cands[j].num })
	last = -1
	if len(cands) > 0 {
		last = cands[0].num
	}
	for _, c := range cands {
		rep, loadErr := loadReport(c.path)
		if loadErr != nil {
			fmt.Fprintf(warn, "pthammer-bench: skipping baseline %s: %v\n", c.path, loadErr)
			continue
		}
		if valErr := validateBaseline(rep); valErr != nil {
			fmt.Fprintf(warn, "pthammer-bench: skipping baseline %s: %v\n", c.path, valErr)
			continue
		}
		return last, c.path, rep, true, nil
	}
	return last, "", report{}, false, nil
}

// measure runs every scenario, best of three (the minimum is the least
// disturbed by whatever else the host is doing, the usual benchstat
// practice).
func measure() []scenarioResult {
	var out []scenarioResult
	for _, sc := range bench.Scenarios() {
		var res testing.BenchmarkResult
		for attempt := 0; attempt < 3; attempt++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				sc.Run(b)
			})
			if attempt == 0 || r.NsPerOp() < res.NsPerOp() {
				res = r
			}
		}
		r := scenarioResult{
			Name:        sc.Name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			SteadyState: sc.SteadyState,
		}
		if sc.LoadsPerOp > 0 && res.T > 0 {
			r.LoadsPerSec = float64(sc.LoadsPerOp) * float64(res.N) / res.T.Seconds()
		}
		out = append(out, r)
		fmt.Printf("%-22s %12.1f ns/op %6d allocs/op %14.0f loads/sec\n",
			sc.Name, r.NsPerOp, r.AllocsPerOp, r.LoadsPerSec)
	}
	return out
}

// check is the CI regression gate: every steady-state scenario must
// stay allocation-free and within maxRegression of the committed
// baseline. The ns/op comparison diffs only scenarios present in BOTH
// the run and the baseline: a newly added scenario has no meaningful
// baseline yet (it is alloc-checked only, and its first committed
// BENCH_NNNN.json becomes its baseline), and a scenario that exists
// only in the baseline was renamed or retired. Both one-sided cases
// are reported as notes so they are visible in CI logs without
// failing the build that legitimately introduces them.
//
// compared counts the ns/op comparisons actually performed: when it is
// zero the gate vacuously passed (the run and the baseline share no
// steady-state scenario with a usable baseline number), which the
// caller surfaces as a distinct warning rather than a clean pass.
func check(results []scenarioResult, baseline report, baselinePath string) (failures, notes []string, compared int) {
	base := make(map[string]scenarioResult, len(baseline.Scenarios))
	for _, s := range baseline.Scenarios {
		base[s.Name] = s
	}
	measured := make(map[string]bool, len(results))
	for _, r := range results {
		measured[r.Name] = true
		if !r.SteadyState {
			continue
		}
		if r.AllocsPerOp > 0 {
			failures = append(failures,
				fmt.Sprintf("%s: %d allocs/op on the hot path, want 0", r.Name, r.AllocsPerOp))
		}
		b, ok := base[r.Name]
		if !ok {
			notes = append(notes,
				fmt.Sprintf("%s: new scenario, not in %s (alloc-checked only)", r.Name, baselinePath))
			continue
		}
		if b.NsPerOp <= 0 {
			notes = append(notes,
				fmt.Sprintf("%s: baseline ns/op %.1f unusable, skipping comparison", r.Name, b.NsPerOp))
			continue
		}
		compared++
		if ratio := r.NsPerOp / b.NsPerOp; ratio > maxRegression {
			failures = append(failures,
				fmt.Sprintf("%s: %.1f ns/op vs %.1f in %s (%.2fx > %.2fx allowed)",
					r.Name, r.NsPerOp, b.NsPerOp, baselinePath, ratio, maxRegression))
		}
	}
	for _, s := range baseline.Scenarios {
		if !measured[s.Name] {
			notes = append(notes,
				fmt.Sprintf("%s: in %s but no longer measured (renamed or retired?)", s.Name, baselinePath))
		}
	}
	return failures, notes, compared
}

// run is main with its environment made explicit so the error paths
// are table-testable: args exclude the program name, measureFn stands
// in for the (slow) real benchmark sweep, and the return value is the
// process exit code.
func run(args []string, stdout, stderr io.Writer, measureFn func() []scenarioResult) int {
	fs := flag.NewFlagSet("pthammer-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output path for the JSON report (default: next BENCH_NNNN.json in the -C directory)")
	dir := fs.String("C", ".", "directory holding the BENCH_NNNN.json baselines; reports are written there")
	checkMode := fs.Bool("check", false, "regression gate: compare against the latest BENCH_NNNN.json and exit non-zero on regression; writes no report")
	if err := fs.Parse(args); err != nil {
		// The flag set already printed the parse error and usage.
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pthammer-bench: unexpected arguments: %q\n", fs.Args())
		fs.Usage()
		return exitUsage
	}

	// The output number always continues from the highest-numbered file,
	// usable or not; the comparison baseline is the newest file that
	// validates.
	baseNum, basePath, baseline, haveBase, err := scanBaselines(*dir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pthammer-bench:", err)
		return exitBaseline
	}

	if *checkMode {
		if !haveBase {
			fmt.Fprintf(stderr, "pthammer-bench: -check needs a usable BENCH_NNNN.json baseline in %s\n", *dir)
			return exitBaseline
		}
		failures, notes, compared := check(measureFn(), baseline, basePath)
		for _, n := range notes {
			fmt.Fprintln(stdout, "note:", n)
		}
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(stderr, "REGRESSION:", f)
			}
			return exitRegression
		}
		if compared == 0 {
			// Notes explain each one-sided scenario above; this line
			// makes the vacuous pass itself unmissable in CI logs.
			fmt.Fprintf(stdout, "warning: no ns/op comparisons performed: the run and %s share no steady-state scenario with a usable baseline\n",
				basePath)
			return exitOK
		}
		fmt.Fprintf(stdout, "check passed: %d steady-state scenarios within %.0f%% of %s, 0 allocs/op\n",
			compared, (maxRegression-1)*100, basePath)
		return exitOK
	}

	rep := report{
		Tool:      "pthammer-bench",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Preset:    "SandyBridge",
	}
	var baseNs map[string]float64
	if haveBase {
		rep.BaselineFile = filepath.Base(basePath)
		baseNs = make(map[string]float64, len(baseline.Scenarios))
		for _, s := range baseline.Scenarios {
			baseNs[s.Name] = s.NsPerOp
		}
	}
	rep.Scenarios = measureFn()
	for i := range rep.Scenarios {
		if b, ok := baseNs[rep.Scenarios[i].Name]; ok && rep.Scenarios[i].NsPerOp > 0 {
			rep.Scenarios[i].SpeedupVsBaseline = b / rep.Scenarios[i].NsPerOp
		}
	}

	path := *out
	if path == "" {
		path = filepath.Join(*dir, fmt.Sprintf("BENCH_%04d.json", baseNum+1))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "pthammer-bench:", err)
		return exitRegression
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(stderr, "pthammer-bench:", err)
		return exitWrite
	}
	fmt.Fprintln(stdout, "wrote", path)
	return exitOK
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, measure))
}
