// Package unitcheck implements the go vet unit-checking protocol for
// pthammer-lint, mirroring golang.org/x/tools/go/analysis/unitchecker
// without the dependency. When the go command runs
// `go vet -vettool=pthammer-lint ./...` it invokes the tool once per
// package with a single *.cfg argument describing that compilation unit
// (files, import map, export data of dependencies, fact files). The tool
// type-checks the unit, runs the analyzers, writes its fact file for
// downstream units, and reports diagnostics on stderr with exit code 2,
// each line naming its analyzer (`pos: [noalloc] msg`). It is
// pthammer-lint's only driver: standalone runs are go vet runs too.
package unitcheck

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"

	"pthammer/internal/analysis/framework"
)

// Config is the JSON schema of the .cfg file the go command hands a
// vettool (a subset: fields the shim does not need are omitted and
// ignored by the decoder).
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetxFile is the persisted fact format: analyzer name -> raw fact.
type vetxFile map[string]json.RawMessage

// Run executes the analyzers over the unit described by cfgPath and
// returns the process exit code. Diagnostics go to stderr, matching the
// go vet relay format.
func Run(cfgPath string, analyzers []*framework.Analyzer) int {
	cfg, err := readConfig(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pthammer-lint: %v\n", err)
		return 1
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return typecheckFailed(cfg, fmt.Errorf("parsing %s: %v", name, err))
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == "unsafe" {
				return types.Unsafe, nil
			}
			return compilerImporter.Import(path)
		}),
	}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return typecheckFailed(cfg, err)
	}

	// Facts of dependencies, loaded lazily from the vetx files the go
	// command produced for them.
	depFacts := make(map[string]vetxFile)
	readDepFact := func(analyzer, depPath string) (json.RawMessage, bool) {
		vf, ok := depFacts[depPath]
		if !ok {
			vf = vetxFile{}
			if path, exists := cfg.PackageVetx[depPath]; exists {
				if data, err := os.ReadFile(path); err == nil {
					// A missing or malformed vetx file only means no
					// facts; analyzers degrade to flagging the call.
					_ = json.Unmarshal(data, &vf)
				}
			}
			depFacts[depPath] = vf
		}
		raw, ok := vf[analyzer]
		return raw, ok
	}

	out := vetxFile{}
	var diags []framework.Diagnostic
	for _, a := range analyzers {
		a := a
		pass := framework.NewPass(a, fset, files, pkg, info,
			func(d framework.Diagnostic) {
				d.Message = "[" + a.Name + "] " + d.Message
				diags = append(diags, d)
			},
			func(depPath string) (json.RawMessage, bool) { return readDepFact(a.Name, depPath) },
			func(raw json.RawMessage) { out[a.Name] = raw })
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "pthammer-lint: %s on %s: %v\n", a.Name, cfg.ImportPath, err)
			return 1
		}
	}

	if err := writeVetx(cfg, out); err != nil {
		fmt.Fprintf(os.Stderr, "pthammer-lint: %v\n", err)
		return 1
	}
	if cfg.VetxOnly || len(diags) == 0 {
		return 0
	}
	framework.SortDiagnostics(fset, diags)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	return 2
}

func readConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode JSON config file %s: %v", path, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package %s has no files", cfg.ImportPath)
	}
	return cfg, nil
}

// writeVetx persists this unit's facts. The go command requires the file
// to exist even when no analyzer exported anything.
func writeVetx(cfg *Config, out vetxFile) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.VetxOutput, data, 0o666)
}

// typecheckFailed honors SucceedOnTypecheckFailure: the go command sets
// it when the compiler itself will report the error, and expects the
// vettool to stay quiet and succeed.
func typecheckFailed(cfg *Config, err error) int {
	_ = writeVetx(cfg, vetxFile{})
	if cfg.SucceedOnTypecheckFailure {
		return 0
	}
	fmt.Fprintf(os.Stderr, "pthammer-lint: %v\n", err)
	return 1
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
