package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain makes the test binary its own vettool: go vet invokes the
// tool with exactly one -flags, -V=… or *.cfg argument, and those
// invocations run the command instead of the tests. Standalone runs in
// the tests below hand go vet os.Executable(), which is this binary.
func TestMain(m *testing.M) {
	if args := os.Args[1:]; len(args) == 1 &&
		(args[0] == "-flags" || strings.HasPrefix(args[0], "-V=") || strings.HasSuffix(args[0], ".cfg")) {
		os.Exit(run(args, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// writeModule materializes a throwaway module on disk so the real
// loading path — go vet, export data, vetx fact files — runs end to end
// without touching the pthammer module.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmp.test/m\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// lint runs pthammer-lint standalone over the module in dir and returns
// its exit code and stderr, where go vet relays the diagnostics.
func lint(t *testing.T, dir string, patterns ...string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	code := run(append([]string{"-C", dir}, patterns...), io.Discard, &stderr)
	return code, stderr.String()
}

// diagLines returns the relayed diagnostic lines (`pos: [analyzer]
// msg`), dropping go vet's per-package headers.
func diagLines(stderr string) []string {
	var out []string
	for _, line := range strings.Split(stderr, "\n") {
		if strings.Contains(line, ": [") {
			out = append(out, line)
		}
	}
	return out
}

func TestFlagsHandshake(t *testing.T) {
	// go vet's first probe is `tool -flags`: exit 0 with an empty JSON
	// flag list on stdout.
	var stdout bytes.Buffer
	if code := run([]string{"-flags"}, &stdout, io.Discard); code != 0 {
		t.Fatalf("-flags exited %d", code)
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Fatalf("-flags printed %q, want []", got)
	}
}

func TestVersionHandshake(t *testing.T) {
	// go vet probes with -V=full and keys its cache on the output; the
	// handshake must succeed from any binary (here: the test binary).
	var stdout bytes.Buffer
	if code := run([]string{"-V=full"}, &stdout, io.Discard); code != 0 {
		t.Fatalf("-V=full exited %d", code)
	}
	if !regexp.MustCompile(`^pthammer-lint version devel .* buildID=[0-9a-f]{64}\n$`).MatchString(stdout.String()) {
		t.Fatalf("-V=full printed %q", stdout.String())
	}
	if code := run([]string{"-V=short"}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("-V=short exited %d", code)
	}
}

func TestStandaloneCleanPackage(t *testing.T) {
	// The lint suite's own module must stay clean; internal/perf is a
	// small leaf with noalloc annotations, so this exercises the full
	// standalone pipeline against real code.
	if code, stderr := lint(t, "../..", "./internal/perf"); code != 0 {
		t.Fatalf("internal/perf exited %d; the tree should be lint-clean:\n%s", code, stderr)
	}
}

// TestStandaloneFindings checks that a module with a finding exits 1
// and that go vet relays exactly that finding: the same call in a
// package outside the deterministic set is not flagged.
func TestStandaloneFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		// cmd/ prefix puts the package in determinism's deterministic set.
		"cmd/tool/main.go": "package main\n\nimport \"time\"\n\nfunc main() { _ = time.Now() }\n",
		"internal/ok/ok.go": `// Package ok is outside the deterministic set.
package ok

import "time"

func Now() time.Time { return time.Now() }
`,
	})
	code, stderr := lint(t, dir, "./...")
	if code != 1 {
		t.Fatalf("module with a finding exited %d, want 1:\n%s", code, stderr)
	}
	lines := diagLines(stderr)
	if len(lines) != 1 || !strings.Contains(lines[0], filepath.Join("cmd", "tool", "main.go")+":5:") {
		t.Fatalf("want exactly the cmd/tool time.Now call flagged, got:\n%s", stderr)
	}
}

// TestStandaloneOrdersDiagnostics checks that a file's findings come out
// in position order, each naming its analyzer.
func TestStandaloneOrdersDiagnostics(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"cmd/tool/main.go": `package main

import "time"

func main() {
	_ = time.Now() // finding 1
	m := map[int]int{1: 1}
	for k := range m { // finding 2
		_ = k
	}
}
`,
	})
	code, stderr := lint(t, dir, "./...")
	if code != 1 {
		t.Fatalf("module with findings exited %d, want 1:\n%s", code, stderr)
	}
	lines := diagLines(stderr)
	if len(lines) != 2 {
		t.Fatalf("got %d diagnostics, want 2:\n%s", len(lines), stderr)
	}
	for i, want := range []string{"main.go:6:6: [determinism] call to time.Now", "main.go:8:2: [determinism] range over map"} {
		if !strings.Contains(lines[i], filepath.Join("cmd", "tool", want)) {
			t.Errorf("diagnostic %d = %q, want it to contain %q", i, lines[i], want)
		}
	}
}

// TestStandaloneReportsLoadErrors checks that every failure other than a
// finding — an unknown pattern, a package that does not compile, no go
// command to run — exits 1.
func TestStandaloneReportsLoadErrors(t *testing.T) {
	dir := writeModule(t, map[string]string{"p/p.go": "package p\n"})
	if code, stderr := lint(t, dir, "./no/such/pkg"); code != 1 {
		t.Fatalf("unknown pattern exited %d, want 1:\n%s", code, stderr)
	}
	bad := writeModule(t, map[string]string{
		"p/bad.go": "package p\n\nfunc f() { undeclared() }\n",
	})
	if code, stderr := lint(t, bad, "./..."); code != 1 {
		t.Fatalf("package that fails to compile exited %d, want 1:\n%s", code, stderr)
	}
	t.Setenv("PATH", t.TempDir())
	if code, stderr := lint(t, dir, "./..."); code != 1 || !strings.HasPrefix(stderr, "pthammer-lint: ") {
		t.Fatalf("missing go command exited %d, want 1 with the reason:\n%s", code, stderr)
	}
}

// TestStandaloneFlowsFactsAcrossPackages checks that noalloc facts cross
// a package boundary: Good calls an annotated function of another
// package and is clean, Bad calls an unannotated one and is flagged.
func TestStandaloneFlowsFactsAcrossPackages(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"dep/dep.go": `package dep

// Step is annotated: callers may use it.
//
//pthammer:noalloc
func Step(n int) int { return n + 1 }

// Grow is not.
func Grow(n int) []int { return make([]int, n) }
`,
		"hot/hot.go": `package hot

import "tmp.test/m/dep"

// Good calls only annotated callees across the package boundary.
//
//pthammer:noalloc
func Good(n int) int { return dep.Step(n) }

// Bad calls an unannotated one.
//
//pthammer:noalloc
func Bad(n int) int { return len(dep.Grow(n)) }
`,
	})
	code, stderr := lint(t, dir, "./...")
	if code != 1 {
		t.Fatalf("module with a finding exited %d, want 1:\n%s", code, stderr)
	}
	lines := diagLines(stderr)
	if len(lines) != 1 || !strings.Contains(lines[0], filepath.Join("hot", "hot.go")+":13:") ||
		!strings.Contains(lines[0], "[noalloc]") || !strings.Contains(lines[0], "dep.Grow") {
		t.Fatalf("want exactly Bad's dep.Grow call flagged by noalloc, got:\n%s", stderr)
	}
}

func TestCfgArgumentDispatchesToUnitcheck(t *testing.T) {
	dir := t.TempDir()
	unit := filepath.Join(dir, "unit.go")
	if err := os.WriteFile(unit, []byte("package main\n\nfunc main() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := map[string]any{
		"ID":         "tool",
		"Compiler":   "gc",
		"Dir":        dir,
		"ImportPath": "tmp.test/m/cmd/tool",
		"GoFiles":    []string{unit},
		"VetxOutput": filepath.Join(dir, "unit.vetx"),
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "unit.cfg")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{cfgPath}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("clean unit exited %d, want 0", code)
	}
	if _, err := os.Stat(cfg["VetxOutput"].(string)); err != nil {
		t.Fatalf("unit mode did not write the vetx file: %v", err)
	}
}
