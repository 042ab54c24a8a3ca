package unitcheck

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pthammer/internal/analysis/determinism"
	"pthammer/internal/analysis/framework"
	"pthammer/internal/analysis/noalloc"
)

// writeCfg marshals a Config next to the unit's files and returns its
// path.
func writeCfg(t *testing.T, cfg *Config) string {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "unit.cfg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeFile(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// selfContainedUnit builds a cfg for a package with no imports, the
// simplest unit go vet can hand us.
func selfContainedUnit(t *testing.T, importPath, src string) (*Config, string) {
	t.Helper()
	dir := t.TempDir()
	file := writeFile(t, dir, "unit.go", src)
	vetx := filepath.Join(dir, "unit.vetx")
	return &Config{
		ID:         importPath,
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: importPath,
		GoFiles:    []string{file},
		VetxOutput: vetx,
	}, vetx
}

const dirtyMain = `package main

func main() {
	m := map[int]int{1: 1}
	for k := range m {
		_ = k
	}
}
`

func TestRunReportsDiagnosticsAndWritesVetx(t *testing.T) {
	cfg, vetx := selfContainedUnit(t, "tmp.test/m/cmd/tool", dirtyMain)
	if code := Run(writeCfg(t, cfg), []*framework.Analyzer{determinism.Analyzer}); code != 2 {
		t.Fatalf("unit with a finding exited %d, want 2", code)
	}
	// The go command requires the facts file even when empty.
	if _, err := os.Stat(vetx); err != nil {
		t.Fatalf("vetx file not written: %v", err)
	}
}

func TestRunVetxOnlySuppressesDiagnostics(t *testing.T) {
	cfg, _ := selfContainedUnit(t, "tmp.test/m/cmd/tool", dirtyMain)
	cfg.VetxOnly = true
	if code := Run(writeCfg(t, cfg), []*framework.Analyzer{determinism.Analyzer}); code != 0 {
		t.Fatalf("VetxOnly unit exited %d, want 0", code)
	}
}

func TestRunCleanUnit(t *testing.T) {
	cfg, _ := selfContainedUnit(t, "tmp.test/m/cmd/tool", "package main\n\nfunc main() {}\n")
	if code := Run(writeCfg(t, cfg), []*framework.Analyzer{determinism.Analyzer}); code != 0 {
		t.Fatalf("clean unit exited %d, want 0", code)
	}
}

func TestRunHonorsSucceedOnTypecheckFailure(t *testing.T) {
	cfg, vetx := selfContainedUnit(t, "tmp.test/m/p", "package p\n\nfunc f() { undeclared() }\n")
	cfg.SucceedOnTypecheckFailure = true
	if code := Run(writeCfg(t, cfg), nil); code != 0 {
		t.Fatalf("SucceedOnTypecheckFailure exited %d, want 0", code)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Fatalf("vetx file not written on typecheck failure: %v", err)
	}

	cfg.SucceedOnTypecheckFailure = false
	if code := Run(writeCfg(t, cfg), nil); code != 1 {
		t.Fatalf("typecheck failure without the flag exited %d, want 1", code)
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	if code := Run(filepath.Join(t.TempDir(), "absent.cfg"), nil); code != 1 {
		t.Fatal("missing cfg accepted")
	}
	bad := writeFile(t, t.TempDir(), "bad.cfg", "not json")
	if code := Run(bad, nil); code != 1 {
		t.Fatal("malformed cfg accepted")
	}
	empty := writeCfg(t, &Config{ImportPath: "p"})
	if code := Run(empty, nil); code != 1 {
		t.Fatal("cfg without files accepted")
	}
}

// TestRunFlowsFactsBetweenUnits drives two units the way go vet would:
// the dependency's vetx output becomes the importer unit's PackageVetx
// input, and export data comes from the real build cache via go list.
// With the fact wired, calling the dependency's annotated function is
// clean; with the fact withheld, the same call is flagged.
func TestRunFlowsFactsBetweenUnits(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "dep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "hot"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, "go.mod", "module tmp.test/m\n\ngo 1.24\n")
	depFile := writeFile(t, filepath.Join(dir, "dep"), "dep.go", `package dep

// Step is annotated.
//
//pthammer:noalloc
func Step(n int) int { return n + 1 }
`)
	hotFile := writeFile(t, filepath.Join(dir, "hot"), "hot.go", `package hot

import "tmp.test/m/dep"

// Good may call the annotated dependency.
//
//pthammer:noalloc
func Good(n int) int { return dep.Step(n) }
`)

	// go list -export materializes dep's export data, exactly what the
	// go command would hand a vettool in PackageFile.
	list := exec.Command("go", "list", "-export", "-f", "{{.Export}}", "./dep")
	list.Dir = dir
	export, err := list.Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	depExport := strings.TrimSpace(string(export))
	if depExport == "" {
		t.Fatal("no export data for the dependency")
	}

	depVetx := filepath.Join(dir, "dep.vetx")
	depCfg := &Config{
		ID: "dep", Compiler: "gc", Dir: dir,
		ImportPath: "tmp.test/m/dep",
		GoFiles:    []string{depFile},
		VetxOutput: depVetx,
	}
	if code := Run(writeCfg(t, depCfg), []*framework.Analyzer{noalloc.Analyzer}); code != 0 {
		t.Fatalf("dep unit exited %d, want 0", code)
	}
	var vf map[string]json.RawMessage
	data, err := os.ReadFile(depVetx)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &vf); err != nil || vf["noalloc"] == nil {
		t.Fatalf("dep vetx %s holds no noalloc fact: %v", data, err)
	}

	hotCfg := &Config{
		ID: "hot", Compiler: "gc", Dir: dir,
		ImportPath:  "tmp.test/m/hot",
		GoFiles:     []string{hotFile},
		PackageFile: map[string]string{"tmp.test/m/dep": depExport},
		PackageVetx: map[string]string{"tmp.test/m/dep": depVetx},
		VetxOutput:  filepath.Join(dir, "hot.vetx"),
	}
	if code := Run(writeCfg(t, hotCfg), []*framework.Analyzer{noalloc.Analyzer}); code != 0 {
		t.Fatalf("hot unit with dep facts exited %d, want 0 (fact did not flow)", code)
	}

	// Withhold the facts: the same call must now be flagged.
	hotCfg.PackageVetx = nil
	if code := Run(writeCfg(t, hotCfg), []*framework.Analyzer{noalloc.Analyzer}); code != 2 {
		t.Fatalf("hot unit without dep facts exited %d, want 2", code)
	}
}
