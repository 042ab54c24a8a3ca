// Package core is the deterministic interleaver underneath the
// simulator's multi-core mode: it drives N per-core access streams,
// granting one quantum at a time — always to the live stream whose
// logical clock is lowest, ties broken by lowest core index. The sweep
// engine already established the repo's concurrency contract (worker
// count changes wall-clock time and nothing else, via per-shard
// seeds); this package extends the same contract to cores that share
// mutable state: the schedule is a pure function of the streams'
// logical clocks, so the merged interleaving — and therefore every
// piece of shared simulator state the streams touch (LLC contents,
// DRAM activation counters, flip-engine reports) — is bit-identical for
// any GOMAXPROCS value.
//
// A grant is a plain call of the winning stream's Step on the caller's
// goroutine. Nothing runs concurrently and nothing is ever suspended,
// so exactly one stream executes simulator code at any instant, and
// GOMAXPROCS cannot reach the schedule by construction.
//
// Because grants always go to the lowest clock, the sequence of clock
// values observed at grant time is nondecreasing: shared devices see
// simulated time move forward monotonically even though each core
// carries its own clock. Devices that latch a start-of-window
// timestamp (the DRAM refresh window) still guard against a reading
// from a core that has not caught up yet; see dram.rotateWindow.
package core

import "pthammer/internal/timing"

// Stream is one core's access stream under the interleaver.
type Stream struct {
	// Now reports the core's logical clock — for a machine core, the
	// core's timing.Clock.Now.
	Now func() timing.Cycles

	// Step is one grant: it runs the stream's next quantum and reports
	// whether the stream has more. A step that returns false may have
	// run a final partial quantum or none at all; the stream is retired
	// either way and never stepped again. Touching shared simulator
	// state within a step is safe (the quantum is atomic) but delays
	// other cores whose clocks are behind, so keep quanta small: one
	// hammer iteration, one batch of loads, one scan.
	Step func() bool
}

// Run steps the streams to completion under the deterministic
// schedule: each decision grants the live stream with the lowest Now,
// ties to the lowest index, and a Step that returns false retires its
// stream.
//
// Run panics on a stream with a nil Now or Step — a wiring bug, not a
// runtime condition. A panic or runtime.Goexit inside a Step unwinds
// straight through Run on the caller's goroutine: no stream is
// suspended, so there is nothing to tear down.
func Run(streams []Stream) {
	for _, s := range streams {
		if s.Now == nil || s.Step == nil {
			panic("core: stream needs both Now and Step")
		}
	}
	done := make([]bool, len(streams))
	for remaining := len(streams); remaining > 0; {
		best := -1
		var bestT timing.Cycles
		for i, s := range streams {
			if done[i] {
				continue
			}
			// Strict < implements the fixed tiebreak: equal clocks go
			// to the lowest core index.
			if t := s.Now(); best == -1 || t < bestT {
				best, bestT = i, t
			}
		}
		if !streams[best].Step() {
			done[best] = true
			remaining--
		}
	}
}
