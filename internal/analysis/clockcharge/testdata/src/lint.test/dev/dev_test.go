package dev

import "lint.test/internal/mem"

// Fake is a test-file device: _test.go files are exempt, fakes need no
// clock.
type Fake struct{}

// Lookup is uncharged but unflagged (test file).
func (f *Fake) Lookup(a uint64) mem.Result {
	return mem.Result{Hit: true}
}
