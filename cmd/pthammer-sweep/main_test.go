package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"testing"
)

// smallSpec keeps the determinism matrix fast: two targets, three
// padding points, light noise so the seeds matter.
func smallSpec(t *testing.T, mode string, workers int) []byte {
	t.Helper()
	spec, err := buildSpec(mode, 2, 0, 20, 10, 3, workers, 0.1, 42)
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
// Figure 5/6 tables are bit-identical for 1, 2, 4 and NumCPU workers,
// in both measurement modes. The CI race leg runs this same test under
// -race, so the guarantee holds with the scheduler interleaving shards
// adversarially.
func TestTablesDeterministicAcrossWorkers(t *testing.T) {
	for _, mode := range []string{"evict", "flush"} {
		serial := smallSpec(t, mode, 1)
		if len(serial) == 0 {
			t.Fatalf("%s: empty tables", mode)
		}
		for _, workers := range []int{2, 4, runtime.NumCPU()} {
			if got := smallSpec(t, mode, workers); !bytes.Equal(got, serial) {
				t.Fatalf("%s tables differ between 1 and %d workers:\n--- 1 worker ---\n%s--- %d workers ---\n%s",
					mode, workers, serial, workers, got)
			}
		}
	}
}

// TestTablesContainBothFigures pins the output layout downstream
// tooling parses.
func TestTablesContainBothFigures(t *testing.T) {
	out := smallSpec(t, "evict", 1)
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
	if _, err := buildSpec("warp", 2, 0, 10, 10, 1, 0, 0, 1); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := buildSpec("evict", 0, 0, 10, 10, 1, 0, 0, 1); err == nil {
		t.Error("zero targets accepted")
	}
	for _, noise := range []float64{-1, 1, 2, math.NaN()} {
		if _, err := buildSpec("evict", 2, 0, 10, 10, 1, 0, noise, 1); err == nil {
			t.Errorf("noise %v accepted", noise)
		}
	}
	if _, err := buildSpec("evict", 2, 0, 10, 10, 1, -1, 0, 1); err == nil {
		t.Error("negative workers accepted")
	}
	// 513 targets put the last one at 1 GiB, past the preset's memory:
	// the tables come back as an error in both modes, never a panic.
	for _, mode := range []string{"evict", "flush"} {
		spec, err := buildSpec(mode, 513, 0, 10, 10, 1, 0, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := renderTables(spec, mode); err == nil {
			t.Errorf("%s: target outside memory accepted", mode)
		}
	}
}

// goldenTables are committed outputs of pthammer-sweep, generated by an
// older tree whose shards replayed compiled payload programs, so every
// later change to the shard loop is checked against bytes from another
// engine, not only against a rerun of itself. Never regenerate them to
// make a refactor pass; only a deliberate change of simulated output
// may touch them. Flags not listed are the command's defaults (-padmin
// 0 -padmax 100 -padstep 10 -noise 0.05; -workers never affects the
// bytes).
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
		spec, err := buildSpec(g.mode, g.targets, 0, 100, 10, g.reps, 0, 0.05, g.seed)
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
