// Command pthammer-lint enforces the repo's structural invariants at
// compile time: determinism of the table-producing packages, a flush-free
// attack path, 0 allocs/op hot paths, and clock-charged latency
// accounting (see internal/analysis/... for the individual analyzers and
// CONTRIBUTING.md for the annotations).
//
// It runs two ways:
//
//	pthammer-lint [-C dir] ./...                 # standalone
//	go vet -vettool=$(which pthammer-lint) ./... # as a go vet tool
//
// Both run one driver, internal/analysis/unitcheck, which speaks go vet's
// unit-checking protocol (-flags and -V=full handshakes, one *.cfg unit
// per package, vetx fact files) and exits 2 on findings. Standalone mode
// wraps it: it runs `go vet -vettool=<itself> patterns` in dir, so test
// files are checked too, and exits 1 on any failure.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"pthammer/internal/analysis/clockcharge"
	"pthammer/internal/analysis/determinism"
	"pthammer/internal/analysis/framework"
	"pthammer/internal/analysis/noalloc"
	"pthammer/internal/analysis/privilegedops"
	"pthammer/internal/analysis/unitcheck"
)

// analyzers is the full pthammer-lint suite, in the order diagnostics
// are attributed.
var analyzers = []*framework.Analyzer{
	determinism.Analyzer,
	privilegedops.Analyzer,
	noalloc.Analyzer,
	clockcharge.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit: args exclude the
// program name, and the return value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	// go vet's first probe is `tool -flags`: it expects a JSON array
	// describing the tool's analyzer flags on stdout. pthammer-lint
	// exposes none — every knob is an in-source annotation.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Fprintln(stdout, "[]")
		return 0
	}

	fs := flag.NewFlagSet("pthammer-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	version := fs.String("V", "", "print version and exit (go vet handshake)")
	dir := fs.String("C", ".", "directory to run in (standalone mode)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: pthammer-lint [-C dir] [packages]  |  pthammer-lint unit.cfg\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The version handshake hashes this executable, and standalone mode
	// hands it to go vet as the vettool.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "pthammer-lint: %v\n", err)
		return 1
	}

	if *version != "" {
		// go vet probes the tool with -V=full and caches on the printed
		// content ID; hash the executable so rebuilds invalidate it.
		if *version != "full" {
			fmt.Fprintln(stdout, "pthammer-lint version devel")
			return 0
		}
		f, err := os.Open(exe)
		if err != nil {
			fmt.Fprintf(stderr, "pthammer-lint: %v\n", err)
			return 1
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			fmt.Fprintf(stderr, "pthammer-lint: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "pthammer-lint version devel comments-go-here buildID=%x\n", h.Sum(nil))
		return 0
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return unitcheck.Run(rest[0], analyzers)
	}

	// Standalone: let go vet load the packages and drive this same
	// executable over them as its vettool.
	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	cmd.Dir = *dir
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		// go vet has already printed its findings or load errors; only
		// a go command that never ran leaves the reason unsaid.
		if _, exited := err.(*exec.ExitError); !exited {
			fmt.Fprintf(stderr, "pthammer-lint: %v\n", err)
		}
		return 1
	}
	return 0
}
