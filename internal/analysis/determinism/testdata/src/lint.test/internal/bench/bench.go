// Package bench is a determinism fixture for the internal/bench path
// suffix: a pair finder walking a map in iteration order would reorder
// the chosen aggressor pair, and every table byte after it, run to run.
package bench

func firstVictimRow(rowOf map[uint64]uint64) uint64 {
	for _, row := range rowOf { // want `range over map in deterministic package`
		return row
	}
	return 0
}
