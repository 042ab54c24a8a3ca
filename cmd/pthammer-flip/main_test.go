package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pthammer/internal/bench"
)

// smallBudget keeps the robustness sweep fast in tests: large enough
// for every recoverable class on seed 1, small enough that the
// unrecoverable rows abort quickly.
func smallBudget() bench.Budget {
	b := bench.DefaultBudget()
	b.MaxWindows = 1700
	return b
}

// smallReport keeps the determinism check fast: a budget big enough
// for class A (and usually C) to flip, small enough for CI.
func smallReport(t *testing.T) []byte {
	t.Helper()
	out, err := render(1, 2500, 1, smallBudget())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReportDeterministic is the command's contract: two renders with
// the same seed produce bit-identical bytes — the property the CI
// robustness run asserts by diffing two full invocations.
func TestReportDeterministic(t *testing.T) {
	a := smallReport(t)
	b := smallReport(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ across reruns:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestReportLayout pins the table layout downstream tooling parses:
// one row per module class, both header lines, the escalation row, and
// one robustness row per fault-matrix scenario.
func TestReportLayout(t *testing.T) {
	out := smallReport(t)
	for _, want := range []string{
		"# table 1: time-to-first-flip and flip rate per DRAM module class",
		"class\tattempts_per_window\texcess_scale\tbias_1to0\tfirst_flip_iter\tfirst_flip_sim_ms\twindows\tflips\tflips_per_1e6_iters",
		"\nA\t", "\nB\t", "\nC\t",
		"# table 2: pte-flip-escalation (class A)",
		"iterations\twindows\tflips\tfirst_flip_iter\tsim_ms\tcorrupt_va\ttable_frame\trewritten_va\tsecret_frame",
		"# table 3: resilient escalation under injected faults",
		"fault_class\tkind\tseeds\tsuccesses\tsuccess_rate\tmean_windows\tmax_windows\tmean_iters\treplans\tfaults_observed\tpriv_ops\tabort_reasons",
		"\nnone\trecoverable\t", "\neviction-decay\trecoverable\t",
		"\nthreshold-drift\trecoverable\t", "\ntrr-suppress\trecoverable\t",
		"\nflip-misland\trecoverable\t", "\npair-invalidate\trecoverable\t",
		"\ntrr-suppress-all\tunrecoverable\t", "\nflip-misland-all\tunrecoverable\t",
	} {
		if !bytes.Contains(out, []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// goldenReport is the committed output of
//
//	pthammer-flip -seed 1 -iters 2500 -robust-seeds 2
//
// generated before the escalation planner's ranking was rewritten
// around a precomputed jackpot index, so every later refactor of the
// planner, the hammer or the driver is checked against bytes from an
// older tree, not only against a rerun of itself. Regenerate it only
// for a deliberate change of simulated output.
const goldenReport = "testdata/seed1-iters2500-robust2.tsv"

// TestGoldenReport byte-compares run() against goldenReport.
func TestGoldenReport(t *testing.T) {
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seed", "1", "-iters", "2500", "-robust-seeds", "2"}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("report differs from %s:\n--- got ---\n%s--- want ---\n%s", goldenReport, got, want)
	}
}

// TestRunErrorPaths is the CLI hardening contract: every bad
// invocation returns its designated exit code with a message on
// stderr, and none of them panics.
func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, exitUsage, "flag provided but not defined"},
		{"malformed value", []string{"-iters", "many"}, exitUsage, "invalid value"},
		{"zero iterations", []string{"-iters", "0"}, exitUsage, "-iters must be positive"},
		{"stray arguments", []string{"extra", "args"}, exitUsage, "unexpected arguments"},
		{"negative robust seeds", []string{"-robust-seeds", "-1"}, exitUsage, "-robust-seeds must be non-negative"},
		{"degenerate robust budget", []string{"-robust-windows", "10"}, exitUsage, "-robust-windows 10"},
		// 2^60 windows of 350,000 cycles wrap the driver's ceiling to 0.
		{"wrapping robust budget", []string{
			"-iters", "2500", "-robust-seeds", "0", "-robust-windows", "1152921504606846976"},
			exitRuntime, "1152921504606846976 windows of 350000 cycles overflow"},
		{"unwritable output", []string{
			"-iters", "2500", "-robust-seeds", "0",
			"-o", "/nonexistent-dir/report.tsv"}, exitWrite, "no such file or directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr missing %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}

// TestRunWritesReport covers the happy file-output path end to end
// through run(): exit 0, confirmation on stdout, report on disk.
func TestRunWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.tsv")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-iters", "2500", "-robust-seeds", "0",
		"-o", path}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote "+path) {
		t.Fatalf("stdout missing confirmation: %s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("# table 2")) {
		t.Fatalf("written report truncated:\n%s", data)
	}
	if bytes.Contains(data, []byte("# table 3")) {
		t.Fatal("-robust-seeds 0 still rendered the robustness table")
	}
}
