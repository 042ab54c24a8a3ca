package main

import (
	"math/rand"
	"testing"
	"time"
)

// Every determinism rule is off in test files, not only the wall-clock
// one: go vet hands the analyzer each package's test variant, so a
// standalone lint run reaches these files too.
func TestElapsedGlobalRandAndMapRangeAllowed(t *testing.T) {
	start := time.Now()
	for k := range map[int]int{rand.Int(): 1} {
		_ = k
	}
	_ = time.Since(start)
}
