// Package machine is a determinism fixture for the internal/machine
// path suffix: MultiMachine.Run's grant order must be a pure function
// of the cores' clocks, so wall-clock tiebreaks and map-ordered
// scheduling are exactly the bugs the suffix listing exists to catch.
package machine

import "time"

// pick chooses the next core by wall-clock deadline: flagged, the
// scheduler may only consult simulated clocks.
func pick(deadlines map[int]time.Time) int {
	best := -1
	for i, d := range deadlines { // want `range over map in deterministic package`
		if best == -1 || d.Before(deadlines[best]) {
			best = i
		}
	}
	return best
}

// stamp reads the wall clock: flagged, grant timestamps must come from
// the cores' simulated clocks.
func stamp() time.Time {
	return time.Now() // want `call to time.Now in deterministic package`
}

// pickLowest is the deterministic way: index order over a slice of
// simulated timestamps, strict less-than for the lowest-index tiebreak.
func pickLowest(clocks []uint64) int {
	best := -1
	for i, c := range clocks {
		if best == -1 || c < clocks[best] {
			best = i
		}
	}
	return best
}
