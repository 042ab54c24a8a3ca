// Package mem is a stub of the real internal/mem contract types.
package mem

import "lint.test/internal/timing"

// Result is what a device reports for one access.
type Result struct {
	Latency timing.Cycles
	Hit     bool
}

// Device serves accesses.
type Device interface {
	Lookup(uint64) Result
}

// Translator resolves addresses to frames.
type Translator interface {
	Translate(uint64) (uint64, Result)
}
