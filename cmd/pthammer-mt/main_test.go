package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fullReport renders all four scenarios at the default seeds, with the
// population rows scaled down to keep the test quick (200 tenants per
// row is still enough for every row's story assertion to hold).
func fullReport(t *testing.T) []byte {
	t.Helper()
	out, err := render(params{
		scenario: "all", seed: 4, windows: 4, xtSeed: 1, xtWindows: 60,
		popTenants: 200, popSeed: 1, popWindows: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReportDeterministic is the command's contract: two renders
// produce bit-identical bytes — the property the CI multicore leg
// asserts by diffing full invocations across reruns and GOMAXPROCS
// values.
func TestReportDeterministic(t *testing.T) {
	a := fullReport(t)
	b := fullReport(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ across reruns:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestReportLayout pins the table layout downstream tooling parses,
// and the outcomes the scenarios gate on: solo/quiet vs duo, dilution,
// and the cross-tenant breach.
func TestReportLayout(t *testing.T) {
	out := string(fullReport(t))
	for _, want := range []string{
		"# pthammer-mt preset=SandyBridge(escalation scale) scenario=all\n",
		"# table 1: mt-colocated-amplify",
		"arm\tcores\tpeak_pressure\tflips\titerations",
		"\nsolo\t1\t", "\nduo\t2\t",
		"# table 2: mt-noisy-neighbour",
		"arm\tpeak_pressure\tflips\tattacker_iters\tbystander_loads",
		"\nquiet\t", "\nnoisy\t",
		"# table 3: mt-cross-tenant-escalation",
		"attacker_rows\tvictim_row\twindows\titerations\tflips\tdiverged_va\thijacked_frame\tbreached",
		"\ttrue\n",
		"# table 4: mt-population",
		"layout\tclass\ttenants\tbreached_per_M\tdiluted_per_M\ttable_flips_per_M\tmean_peak_pressure\tmax_peak_pressure\tmean_iters",
		"\ninterleaved\tA\t", "\ninterleaved\tB\t", "\ninterleaved\tC\t",
		"\nblocked\tA\t", "\nblocked\tB\t", "\nblocked\tC\t",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Nothing scheduling-dependent may leak into the bytes.
	if strings.Contains(strings.ToLower(out), "procs") {
		t.Errorf("report mentions procs; its bytes must be GOMAXPROCS-independent:\n%s", out)
	}
}

// goldenReport is the committed output of
//
//	pthammer-mt -pop-tenants 300
//
// (all four tables at the default seeds and windows), generated before
// the aggressor-pair finders, clock alignment and table-row checks
// were folded into shared helpers, so every later refactor of the
// scenarios, the cohort scheduler or the machine is checked against
// bytes from an older tree, not only against a rerun of itself.
// testdata/population.tsv, the full-size -scenario population table
// from the same tree, is what CI's population leg compares against.
// Regenerate either only for a deliberate change of simulated output.
const goldenReport = "testdata/pop300.tsv"

// TestGoldenReport byte-compares run() against goldenReport.
func TestGoldenReport(t *testing.T) {
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-pop-tenants", "300"}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("report differs from %s:\n--- got ---\n%s--- want ---\n%s", goldenReport, got, want)
	}
}

// TestRunSingleScenario: -scenario selects exactly one table.
func TestRunSingleScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "amplify"}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "# table 1: mt-colocated-amplify") {
		t.Errorf("amplify table missing:\n%s", out)
	}
	for _, absent := range []string{"# table 2", "# table 3", "# table 4"} {
		if strings.Contains(out, absent) {
			t.Errorf("unexpected %s in -scenario amplify output:\n%s", absent, out)
		}
	}
}

// TestRunPopulationScenario: -scenario population emits only table 4,
// and its bytes are independent of GOMAXPROCS, which sets the pool's
// unit count.
func TestRunPopulationScenario(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	render := func(procs int) string {
		runtime.GOMAXPROCS(procs)
		var stdout, stderr bytes.Buffer
		args := []string{"-scenario", "population", "-pop-tenants", "120"}
		if code := run(args, &stdout, &stderr); code != exitOK {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
		return stdout.String()
	}
	out := render(4)
	if !strings.Contains(out, "# table 4: mt-population") {
		t.Errorf("population table missing:\n%s", out)
	}
	for _, absent := range []string{"# table 1", "# table 2", "# table 3"} {
		if strings.Contains(out, absent) {
			t.Errorf("unexpected %s in -scenario population output:\n%s", absent, out)
		}
	}
	if narrow := render(2); narrow != out {
		t.Errorf("population bytes depend on the pool size:\n--- GOMAXPROCS 4 ---\n%s--- GOMAXPROCS 2 ---\n%s", out, narrow)
	}
	// At most one unit per tenant ever draws a tenant, so a pool past
	// one unit per tenant is capped before any unit is built:
	// GOMAXPROCS 128 builds 120 units here, not 128.
	if huge := render(128); huge != out {
		t.Errorf("population bytes depend on a pool past the tenant count:\n--- GOMAXPROCS 4 ---\n%s--- GOMAXPROCS 128 ---\n%s", out, huge)
	}
}

// TestRunWritesFile: -o writes the report to the given path, and a
// path that cannot be written exits 3.
func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mt.tsv")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "noisy", "-o", path}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# table 2: mt-noisy-neighbour") {
		t.Errorf("file missing the noisy table:\n%s", data)
	}
	stderr.Reset()
	bad := filepath.Join(t.TempDir(), "missing", "mt.tsv")
	if code := run([]string{"-scenario", "noisy", "-o", bad}, &stdout, &stderr); code != exitWrite || !strings.Contains(stderr.String(), "no such file or directory") {
		t.Errorf("unwritable -o: exit %d, want %d (stderr: %s)", code, exitWrite, stderr.String())
	}
}

// TestRunUsageErrors: bad flags exit 2 without running anything, and a
// window count whose cycle budget wraps the clock (2^60 windows of the
// 350,000-cycle mt window or the 60,000-cycle tenant window come out as
// 0 cycles) exits 1 naming the count, never with a table.
func TestRunUsageErrors(t *testing.T) {
	const wrap = "1152921504606846976"
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-scenario", "bogus"}, exitUsage, ""},
		{[]string{"-windows", "0"}, exitUsage, ""},
		{[]string{"-xt-windows", "-1"}, exitUsage, ""},
		{[]string{"-pop-windows", "0"}, exitUsage, ""},
		{[]string{"-pop-tenants", "0"}, exitUsage, ""},
		// 2^61 tenants once panicked allocating the outcomes, 2^62
		// overflowed the pool cap; both are past the tenant cap.
		{[]string{"-scenario", "population", "-pop-tenants", "2305843009213693952"}, exitUsage, "-pop-tenants <= 1048576"},
		{[]string{"-scenario", "population", "-pop-tenants", "4611686018427387904"}, exitUsage, "-pop-tenants <= 1048576"},
		{[]string{"stray"}, exitUsage, ""},
		{[]string{"-not-a-flag"}, exitUsage, ""},
		{[]string{"-scenario", "amplify", "-windows", wrap}, exitRuntime, wrap + " windows of 350000 cycles overflow"},
		{[]string{"-scenario", "cross-tenant", "-xt-windows", wrap}, exitRuntime, wrap + " windows of 350000 cycles overflow"},
		{[]string{"-scenario", "population", "-pop-tenants", "10", "-pop-windows", wrap}, exitRuntime, wrap + " windows of 60000 cycles overflow"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("args %q: exit %d, want %d with %q (stderr: %s)", tc.args, code, tc.code, tc.stderr, stderr.String())
		}
		if tc.code == exitRuntime && stdout.Len() != 0 {
			t.Errorf("args %q: failed run still printed a report:\n%s", tc.args, stdout.String())
		}
	}
}
