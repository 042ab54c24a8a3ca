package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// smallSpec keeps the determinism matrix fast: two targets, three
// padding points, light noise so the seeds matter.
func smallSpec(t *testing.T, mode string) []byte {
	t.Helper()
	spec, err := buildSpec(mode, 2, 0, 20, 10, 3, 0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	out, err := renderTables(spec, mode)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTablesDeterministicAcrossWorkers is the command's contract: the
// Figure 5/6 tables are bit-identical for 1, 2, 4 and NumCPU workers
// (GOMAXPROCS sets the count), in both measurement modes. The CI race
// leg runs this same test under -race, so the guarantee holds with the
// scheduler interleaving shards adversarially.
func TestTablesDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, mode := range []string{"evict", "flush"} {
		runtime.GOMAXPROCS(1)
		serial := smallSpec(t, mode)
		if len(serial) == 0 {
			t.Fatalf("%s: empty tables", mode)
		}
		for _, workers := range []int{2, 4, runtime.NumCPU()} {
			runtime.GOMAXPROCS(workers)
			if got := smallSpec(t, mode); !bytes.Equal(got, serial) {
				t.Fatalf("%s tables differ between 1 and %d workers:\n--- 1 worker ---\n%s--- %d workers ---\n%s",
					mode, workers, serial, workers, got)
			}
		}
	}
}

// TestTablesContainBothFigures pins the output layout downstream
// tooling parses.
func TestTablesContainBothFigures(t *testing.T) {
	out := smallSpec(t, "evict")
	for _, want := range []string{
		"# figure5: load latency (cycles) vs padding NOPs",
		"padding\tsamples\tmin\tp25\tp50\tp90\tmax\tmean",
		"# figure6: merged latency distribution",
		"latency\tcount",
		"mode=evict",
	} {
		if !bytes.Contains(out, []byte(want)) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestBuildSpecRejectsBadInput covers the knobs main passes through.
func TestBuildSpecRejectsBadInput(t *testing.T) {
	if _, err := buildSpec("warp", 2, 0, 10, 10, 1, 0, 1); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := buildSpec("evict", 0, 0, 10, 10, 1, 0, 1); err == nil {
		t.Error("zero targets accepted")
	}
	for _, noise := range []float64{-1, 1, 2, math.NaN()} {
		if _, err := buildSpec("evict", 2, 0, 10, 10, 1, noise, 1); err == nil {
			t.Errorf("noise %v accepted", noise)
		}
	}
	// 513 targets put the last one at 1 GiB, past the preset's memory:
	// the tables come back as an error in both modes, never a panic.
	for _, mode := range []string{"evict", "flush"} {
		spec, err := buildSpec(mode, 513, 0, 10, 10, 1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := renderTables(spec, mode); err == nil {
			t.Errorf("%s: target outside memory accepted", mode)
		}
	}
}

// TestRunExitCodes: every failure surface of the command has its own
// exit code, flags after a stray argument are rejected rather than
// silently dropped, and every failure but the write one is refused
// before a machine is built, so it allocates next to nothing — in
// particular not one address per requested target.
func TestRunExitCodes(t *testing.T) {
	small := []string{"-mode", "flush", "-padmax", "10", "-reps", "1", "-targets", "1"}
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, exitUsage, "flag provided but not defined"},
		{"malformed value", []string{"-reps", "many"}, exitUsage, "invalid value"},
		{"stray argument", []string{"-mode", "flush", "stray", "-padmax", "10"}, exitUsage, "unexpected arguments"},
		{"unknown mode", []string{"-mode", "warp"}, exitUsage, "unknown mode"},
		{"zero targets", []string{"-targets", "0"}, exitUsage, "targets must be positive"},
		{"noise out of range", []string{"-noise", "1"}, exitUsage, "outside [0,1)"},
		{"zero reps", []string{"-reps", "0"}, exitRuntime, "reps must be positive"},
		{"target past memory", []string{"-targets", "513", "-reps", "1", "-padmax", "0"}, exitRuntime, "outside 1073741824-byte memory"},
		// 8 MiB of addresses if every requested target were listed.
		{"targets far past memory", []string{"-targets", "1048576", "-reps", "1", "-padmax", "0"}, exitRuntime, "address 0x40000000 outside 1073741824-byte memory"},
		{"huge padding range", []string{"-padmax", "9223372036854775807", "-padstep", "2"}, exitRuntime, "4611686018427387904 paddings exceed the 65536-padding cap"},
		{"padding count overflow", []string{"-padmax", "9223372036854775807", "-padstep", "1"}, exitRuntime, "9223372036854775808 paddings exceed"},
		{"unwritable output", append(small, "-o", "/nonexistent-dir/sweep.tsv"), exitWrite, "no such file or directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			code := run(tc.args, &stdout, &stderr)
			runtime.ReadMemStats(&after)
			if code != tc.code {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr missing %q:\n%s", tc.stderr, stderr.String())
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; tc.code != exitWrite && alloc >= 1<<20 {
				t.Fatalf("rejected run allocated %d bytes, want under 1 MiB", alloc)
			}
		})
	}
}

// TestRunWritesTables: run prints the tables renderTables produces, to
// stdout or to -o.
func TestRunWritesTables(t *testing.T) {
	args := []string{"-mode", "flush", "-padmax", "10", "-reps", "1", "-targets", "1"}
	spec, err := buildSpec("flush", 1, 0, 10, 10, 1, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderTables(spec, "flush")
	if err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout differs from renderTables:\n--- got ---\n%s--- want ---\n%s", stdout.Bytes(), want)
	}

	path := filepath.Join(t.TempDir(), "sweep.tsv")
	stdout.Reset()
	if code := run(append(args, "-o", path), &stdout, &stderr); code != exitOK {
		t.Fatalf("-o: exit %d, stderr: %s", code, stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from renderTables:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
	if stdout.String() != "wrote "+path+"\n" {
		t.Errorf("-o stdout = %q", stdout.String())
	}
}

// goldenTables are committed outputs of pthammer-sweep, generated by an
// older tree whose shards replayed compiled payload programs, so every
// later change to the shard loop is checked against bytes from another
// engine, not only against a rerun of itself. Never regenerate them to
// make a refactor pass; only a deliberate change of simulated output
// may touch them. Flags not listed are the command's defaults (-padmin
// 0 -padmax 100 -padstep 10 -noise 0.05).
var goldenTables = []struct {
	file          string
	mode          string
	targets, reps int
	seed          int64
}{
	{"testdata/default.tsv", "evict", 2, 20, 1},
	{"testdata/mode-flush.tsv", "flush", 2, 20, 1},
	{"testdata/seed7-targets4-reps30.tsv", "evict", 4, 30, 7},
}

// TestGoldenTables byte-compares renderTables against goldenTables.
func TestGoldenTables(t *testing.T) {
	for _, g := range goldenTables {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := buildSpec(g.mode, g.targets, 0, 100, 10, g.reps, 0.05, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := renderTables(spec, g.mode)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("tables differ from %s:\n--- got ---\n%s--- want ---\n%s", g.file, got, want)
		}
	}
}
