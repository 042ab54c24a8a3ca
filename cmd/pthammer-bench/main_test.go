package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func steadyResult(name string, ns float64, allocs int64) scenarioResult {
	return scenarioResult{Name: name, NsPerOp: ns, AllocsPerOp: allocs, SteadyState: true}
}

// validBaseline wraps a scenarios fragment in the header fields
// scanBaselines requires of a committed report.
func validBaseline(scenarios string) string {
	return `{"tool":"pthammer-bench","go_version":"go1.24.0","preset":"SandyBridge","scenarios":[` + scenarios + `]}`
}

// TestCheckDiffsOnlySharedScenarios: a newly added scenario is never
// ns-compared (its number would otherwise trip the gate on first
// landing), a removed one only produces a note, and a genuinely
// regressed shared scenario still fails.
func TestCheckDiffsOnlySharedScenarios(t *testing.T) {
	baseline := report{Scenarios: []scenarioResult{
		steadyResult("warm-load", 100, 0),
		steadyResult("retired-loop", 50, 0),
	}}

	results := []scenarioResult{
		steadyResult("warm-load", 110, 0),
		// A brand-new, much slower scenario: must not fail the gate.
		steadyResult("implicit-hammer-loop", 9000, 0),
		// Non-steady scenarios are never checked at all.
		{Name: "sweep-engine", NsPerOp: 1e9, AllocsPerOp: 500},
	}
	failures, notes, compared := check(results, baseline, "BENCH_TEST.json")
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	var sawNew, sawRetired bool
	for _, n := range notes {
		if strings.Contains(n, "implicit-hammer-loop") && strings.Contains(n, "new scenario") {
			sawNew = true
		}
		if strings.Contains(n, "retired-loop") && strings.Contains(n, "no longer measured") {
			sawRetired = true
		}
	}
	if !sawNew || !sawRetired {
		t.Fatalf("notes missing one-sided scenarios: %v", notes)
	}
	if compared != 1 {
		t.Fatalf("compared = %d, want 1 (only warm-load is shared)", compared)
	}
}

// TestCheckStillCatchesRegressions: the shared-scenario comparison and
// the alloc gate keep their teeth.
func TestCheckStillCatchesRegressions(t *testing.T) {
	baseline := report{Scenarios: []scenarioResult{steadyResult("warm-load", 100, 0)}}

	failures, _, _ := check([]scenarioResult{steadyResult("warm-load", 100*maxRegression*1.01, 0)},
		baseline, "BENCH_TEST.json")
	if len(failures) != 1 || !strings.Contains(failures[0], "warm-load") {
		t.Fatalf("ns/op regression not caught: %v", failures)
	}

	failures, _, _ = check([]scenarioResult{steadyResult("fresh-loop", 10, 3)}, baseline, "BENCH_TEST.json")
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op") {
		t.Fatalf("hot-path alloc not caught: %v", failures)
	}
}

// TestCheckSkipsUnusableBaseline: a zero ns/op baseline entry cannot
// produce a ratio; it is skipped with a note, not a crash or failure.
func TestCheckSkipsUnusableBaseline(t *testing.T) {
	baseline := report{Scenarios: []scenarioResult{steadyResult("warm-load", 0, 0)}}
	failures, notes, compared := check([]scenarioResult{steadyResult("warm-load", 100, 0)}, baseline, "BENCH_TEST.json")
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "unusable") {
		t.Fatalf("missing unusable-baseline note: %v", notes)
	}
	if compared != 0 {
		t.Fatalf("compared = %d, want 0 (the only shared scenario was skipped)", compared)
	}
}

// TestCheckWarnsOnZeroComparisons: a baseline holding only one-sided
// scenarios makes the ns/op gate vacuous; -check must still exit 0 but
// say so with a distinct warning line, not a clean "check passed".
func TestCheckWarnsOnZeroComparisons(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_0001.json"),
		[]byte(validBaseline(`{"name":"retired-loop","ns_per_op":50,"steady_state":true}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	measure := func() []scenarioResult {
		return []scenarioResult{steadyResult("brand-new-loop", 10, 0)}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-check", "-C", dir}, &stdout, &stderr, measure); code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "warning: no ns/op comparisons performed") {
		t.Fatalf("missing zero-comparison warning:\n%s", out)
	}
	if strings.Contains(out, "check passed") {
		t.Fatalf("vacuous run claims a clean pass:\n%s", out)
	}
	// Both one-sided scenarios still get their explanatory notes.
	for _, want := range []string{"brand-new-loop: new scenario", "retired-loop: in "} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing note %q:\n%s", want, out)
		}
	}
}

// TestLatestBaselinePicksHighestNumber covers the baseline discovery
// the gate depends on.
func TestLatestBaselinePicksHighestNumber(t *testing.T) {
	dir := t.TempDir()
	body := validBaseline(`{"name":"warm-load","ns_per_op":100,"steady_state":true}`)
	for _, name := range []string{"BENCH_0002.json", "BENCH_0010.json", "BENCH_0003.json", "other.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	num, path, _, ok, err := scanBaselines(dir, io.Discard)
	if err != nil || !ok {
		t.Fatalf("scanBaselines: %v ok=%v", err, ok)
	}
	if num != 10 || filepath.Base(path) != "BENCH_0010.json" {
		t.Fatalf("picked %s (#%d), want BENCH_0010.json", path, num)
	}

	empty := t.TempDir()
	if num, _, _, ok, err := scanBaselines(empty, io.Discard); err != nil || ok || num != -1 {
		t.Fatalf("empty dir: num=%d ok=%v err=%v, want no baseline", num, ok, err)
	}
}

// stubMeasure stands in for the real benchmark sweep so the CLI tests
// never run benchmarks; t.Fatal-ing variant for paths that must fail
// before measuring.
func stubMeasure() []scenarioResult {
	return []scenarioResult{steadyResult("warm-load", 100, 0)}
}

// TestRunErrorPaths is the CLI hardening contract: every bad
// invocation returns its designated exit code with a message on
// stderr, none of them panics, and baseline problems are told apart
// from usage and write problems.
func TestRunErrorPaths(t *testing.T) {
	corrupt := t.TempDir()
	if err := os.WriteFile(filepath.Join(corrupt, "BENCH_0001.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()

	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, exitUsage, "flag provided but not defined"},
		{"stray arguments", []string{"extra"}, exitUsage, "unexpected arguments"},
		{"check without baseline", []string{"-C", empty, "-check"}, exitBaseline, "needs a usable BENCH_NNNN.json baseline"},
		{"check with only a corrupt baseline", []string{"-C", corrupt, "-check"}, exitBaseline, "skipping baseline"},
		{"unreadable baseline dir", []string{"-C", "/nonexistent-dir"}, exitBaseline, "no such file or directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			measured := false
			code := run(tc.args, &stdout, &stderr, func() []scenarioResult {
				measured = true
				return stubMeasure()
			})
			if code != tc.code {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr missing %q:\n%s", tc.stderr, stderr.String())
			}
			if measured {
				t.Fatal("benchmarks ran before the failure was diagnosed")
			}
		})
	}
}

// TestUsableBaselineFallback is the discovery contract: the newest
// BENCH_NNNN.json that parses AND validates wins; every newer file that
// does not is skipped with a stderr warning naming it; and a different
// (but non-empty) go_version is not a reason to skip.
func TestUsableBaselineFallback(t *testing.T) {
	good := validBaseline(`{"name":"warm-load","ns_per_op":100,"steady_state":true}`)
	cases := []struct {
		name     string
		files    map[string]string
		wantPath string // base name of the chosen baseline; "" = none usable
		wantWarn []string
	}{
		{
			name: "wrong preset falls back",
			files: map[string]string{
				"BENCH_0001.json": good,
				"BENCH_0009.json": `{"tool":"pthammer-bench","go_version":"go1.24.0","preset":"Skylake","scenarios":[{"name":"x","ns_per_op":1}]}`,
			},
			wantPath: "BENCH_0001.json",
			wantWarn: []string{`BENCH_0009.json: preset "Skylake"`},
		},
		{
			name: "wrong tool falls back",
			files: map[string]string{
				"BENCH_0001.json": good,
				"BENCH_0002.json": `{"tool":"benchstat","go_version":"go1.24.0","preset":"SandyBridge","scenarios":[{"name":"x","ns_per_op":1}]}`,
			},
			wantPath: "BENCH_0001.json",
			wantWarn: []string{`BENCH_0002.json: tool "benchstat"`},
		},
		{
			name: "empty go_version falls back",
			files: map[string]string{
				"BENCH_0001.json": good,
				"BENCH_0002.json": `{"tool":"pthammer-bench","preset":"SandyBridge","scenarios":[{"name":"x","ns_per_op":1}]}`,
			},
			wantPath: "BENCH_0001.json",
			wantWarn: []string{"BENCH_0002.json: missing go_version"},
		},
		{
			name: "corrupt JSON falls back",
			files: map[string]string{
				"BENCH_0001.json": good,
				"BENCH_0002.json": "{truncated",
			},
			wantPath: "BENCH_0001.json",
			wantWarn: []string{"BENCH_0002.json"},
		},
		{
			name: "no scenarios falls back",
			files: map[string]string{
				"BENCH_0001.json": good,
				"BENCH_0002.json": `{"tool":"pthammer-bench","go_version":"go1.24.0","preset":"SandyBridge","scenarios":[]}`,
			},
			wantPath: "BENCH_0001.json",
			wantWarn: []string{"BENCH_0002.json: no scenarios"},
		},
		{
			name: "different go_version is accepted",
			files: map[string]string{
				"BENCH_0001.json": good,
				"BENCH_0002.json": `{"tool":"pthammer-bench","go_version":"go1.21.0","preset":"SandyBridge","scenarios":[{"name":"x","ns_per_op":1}]}`,
			},
			wantPath: "BENCH_0002.json",
		},
		{
			name: "all unusable",
			files: map[string]string{
				"BENCH_0001.json": "{truncated",
				"BENCH_0002.json": `{"tool":"benchstat"}`,
			},
			wantPath: "",
			wantWarn: []string{"BENCH_0001.json", "BENCH_0002.json"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, body := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var warn bytes.Buffer
			_, path, rep, ok, err := scanBaselines(dir, &warn)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (tc.wantPath != "") {
				t.Fatalf("ok = %v, want %v (warnings: %s)", ok, tc.wantPath != "", warn.String())
			}
			if ok {
				if filepath.Base(path) != tc.wantPath {
					t.Fatalf("picked %s, want %s", filepath.Base(path), tc.wantPath)
				}
				if len(rep.Scenarios) == 0 {
					t.Fatal("chosen baseline came back without scenarios")
				}
			}
			for _, w := range tc.wantWarn {
				if !strings.Contains(warn.String(), w) {
					t.Fatalf("warnings missing %q:\n%s", w, warn.String())
				}
			}
		})
	}
}

// TestRunCheckFailsWhenAllBaselinesUnusable: the gate must refuse to
// vacuously pass when every committed baseline is broken — exit 4, with
// each skipped file named, before any benchmark runs.
func TestRunCheckFailsWhenAllBaselinesUnusable(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"BENCH_0001.json": "{not json",
		"BENCH_0002.json": `{"tool":"pthammer-bench","go_version":"go1.24.0","preset":"Haswell","scenarios":[{"name":"x","ns_per_op":1}]}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	measured := false
	code := run([]string{"-C", dir, "-check"}, &stdout, &stderr, func() []scenarioResult {
		measured = true
		return stubMeasure()
	})
	if code != exitBaseline {
		t.Fatalf("exit %d, want %d (stderr: %s)", code, exitBaseline, stderr.String())
	}
	if measured {
		t.Fatal("benchmarks ran with no usable baseline")
	}
	for _, want := range []string{"BENCH_0001.json", "BENCH_0002.json", "needs a usable"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
}

// TestRunWriteSkipsCorruptBaseline: in write mode a broken newest
// baseline no longer aborts the run — it is skipped with a warning and
// the report still lands, numbered past the broken file so it is never
// overwritten, with speedups computed against the older good baseline.
func TestRunWriteSkipsCorruptBaseline(t *testing.T) {
	dir := t.TempDir()
	good := validBaseline(`{"name":"warm-load","ns_per_op":200,"steady_state":true}`)
	for name, body := range map[string]string{
		"BENCH_0003.json": good,
		"BENCH_0007.json": "{truncated",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir}, &stdout, &stderr, stubMeasure); code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "skipping baseline") {
		t.Fatalf("missing skip warning:\n%s", stderr.String())
	}
	rep, err := loadReport(filepath.Join(dir, "BENCH_0008.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineFile != "BENCH_0003.json" {
		t.Fatalf("baseline_file = %q, want BENCH_0003.json", rep.BaselineFile)
	}
	if got := rep.Scenarios[0].SpeedupVsBaseline; got != 2 {
		t.Fatalf("speedup vs baseline = %v, want 2", got)
	}
}

// TestRunWriteFailureIsDistinct: a report that cannot land on disk is
// exit 3, after measurement, not a baseline or usage error.
func TestRunWriteFailureIsDistinct(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-o", "/nonexistent-dir/out.json"}, &stdout, &stderr, stubMeasure)
	if code != exitWrite {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitWrite, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no such file or directory") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestRunCheckVerdicts drives the gate end to end through run(): a
// regression is exit 1, a clean run exit 0, both against a real
// baseline file in the -C directory.
func TestRunCheckVerdicts(t *testing.T) {
	dir := t.TempDir()
	baseline := validBaseline(`{"name":"warm-load","ns_per_op":100,"steady_state":true}`)
	if err := os.WriteFile(filepath.Join(dir, "BENCH_0001.json"), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "-check"}, &stdout, &stderr, func() []scenarioResult {
		return []scenarioResult{steadyResult("warm-load", 100*maxRegression*1.01, 0)}
	})
	if code != exitRegression || !strings.Contains(stderr.String(), "REGRESSION") {
		t.Fatalf("regression: exit %d, stderr %s", code, stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-C", dir, "-check"}, &stdout, &stderr, stubMeasure)
	if code != exitOK || !strings.Contains(stdout.String(), "check passed") {
		t.Fatalf("clean run: exit %d, stdout %s, stderr %s", code, stdout.String(), stderr.String())
	}
}

// TestRunWritesNumberedReport: without -o the report lands as the next
// BENCH_NNNN.json in the -C directory and records its baseline.
func TestRunWritesNumberedReport(t *testing.T) {
	dir := t.TempDir()
	baseline := validBaseline(`{"name":"warm-load","ns_per_op":200,"steady_state":true}`)
	if err := os.WriteFile(filepath.Join(dir, "BENCH_0007.json"), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir}, &stdout, &stderr, stubMeasure)
	if code != exitOK {
		t.Fatalf("exit %d, stderr %s", code, stderr.String())
	}
	next := filepath.Join(dir, "BENCH_0008.json")
	rep, err := loadReport(next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineFile != "BENCH_0007.json" || len(rep.Scenarios) != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if got := rep.Scenarios[0].SpeedupVsBaseline; got != 2 {
		t.Fatalf("speedup vs baseline = %v, want 2", got)
	}
}
