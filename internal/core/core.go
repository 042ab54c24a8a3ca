// Package core is the deterministic interleaver underneath the
// simulator's multi-core mode: it drives N per-core access streams,
// each as its own coroutine, while granting execution to exactly one
// stream at a time — always the runnable stream whose logical clock is
// lowest, ties broken by lowest core index. The sweep engine already
// established the repo's concurrency contract (worker count changes
// wall-clock time and nothing else, via per-shard seeds); this package
// extends the same contract to cores that share mutable state: the
// schedule is a pure function of the streams' logical clocks, so the
// merged interleaving — and therefore every piece of shared simulator
// state the streams touch (LLC contents, DRAM activation counters,
// flip-engine reports) — is bit-identical for any GOMAXPROCS value.
//
// Each stream body runs inside an iter.Pull coroutine. A grant is one
// call to the coroutine's next: control switches into the body, which
// runs until its next yield (or until it returns) and switches straight
// back. The switch is a direct hand-off, not a wake-up through the Go
// scheduler, so exactly one body executes simulator code at any
// instant and the caller's goroutine is blocked meanwhile. iter.Pull
// annotates every switch for the race detector, so the interleaver is
// race-clean by construction — the property the CI multicore leg pins
// under -race.
//
// Because grants always go to the lowest clock, the sequence of clock
// values observed at grant time is nondecreasing: shared devices see
// simulated time move forward monotonically even though each core
// carries its own clock. Devices that latch a start-of-window
// timestamp (the DRAM refresh window) still guard against a reading
// from a core that has not caught up yet; see dram.rotateWindow.
package core

import (
	"iter"

	"pthammer/internal/timing"
)

// Stream is one core's access stream under the interleaver.
type Stream struct {
	// Now reports the core's logical clock — for a machine core, the
	// core's timing.Clock.Now. The scheduler calls it only while the
	// stream is parked, so implementations need no synchronisation.
	Now func() timing.Cycles

	// Run is the stream body. It must call yield() between quanta —
	// every point at which the scheduler may hand execution to another
	// core — and may simply return when the stream is done. yield
	// switches control back to the scheduler and returns once the
	// stream is granted its next quantum. Touching shared simulator
	// state without an intervening yield is safe (the quantum is
	// atomic) but delays other cores whose clocks are behind, so keep
	// quanta small: one hammer iteration, one batch of loads, one scan.
	Run func(yield func())
}

// streamAbort is the sentinel a parked stream's yield panics with once
// its coroutine has been stopped during teardown. The unwind runs the
// stream's own deferred cleanup, and the sentinel is discarded when the
// stop returns, never escaping to the user.
type streamAbort struct{}

// seq adapts the stream body to the coroutine protocol: each yield
// parks the body until the next grant, and a yield on a stopped
// coroutine unwinds the body.
func (s Stream) seq() iter.Seq[struct{}] {
	return func(y func(struct{}) bool) {
		s.Run(func() {
			if !y(struct{}{}) {
				panic(streamAbort{})
			}
		})
	}
}

// Run executes the streams to completion under the deterministic
// schedule and returns the grant log: the core index granted at each
// scheduling decision, in order. The log is itself part of the
// determinism contract (tests diff it across GOMAXPROCS values);
// callers that only want the side effects can discard it.
//
// Run panics on a stream with a nil Now or Run — a wiring bug, not a
// runtime condition.
//
// A panic inside a stream body surfaces on the caller's goroutine with
// the original value, after teardown: every other live stream is
// stopped, so its parked yield panics a private sentinel and the body
// unwinds through its deferred cleanup. Panics raised by that cleanup
// are discarded in favour of the original. A body that calls
// runtime.Goexit (t.Fatal or t.FailNow inside a test's body, say)
// tears the other streams down the same way and then exits the
// caller's goroutine too: Run never returns normally in that case.
// Either way no stream's coroutine outlives Run.
func Run(streams []Stream) []int {
	n := len(streams)
	if n == 0 {
		return nil
	}
	for _, s := range streams {
		if s.Now == nil || s.Run == nil {
			panic("core: stream needs both Now and Run")
		}
	}

	nexts := make([]func() (struct{}, bool), n)
	stops := make([]func(), n)
	for i, s := range streams {
		nexts[i], stops[i] = iter.Pull(s.seq())
	}
	// Teardown: stopping a finished coroutine is a no-op; stopping a
	// parked one unwinds its body. On a panic or Goexit out of a body
	// (re-raised here by next), the original value is re-panicked after
	// the unwind, and a Goexit simply continues once this returns.
	defer func() {
		r := recover()
		for _, stop := range stops {
			stopDiscarding(stop)
		}
		if r != nil {
			panic(r)
		}
	}()

	// Every live stream is parked (at its start or at a yield) whenever
	// the loop picks, because next returns only once the granted body
	// yields or finishes.
	var log []int
	for remaining := n; remaining > 0; {
		best := -1
		var bestT timing.Cycles
		for i, next := range nexts {
			if next == nil {
				continue
			}
			t := streams[i].Now()
			// Strict < implements the fixed tiebreak: equal clocks go
			// to the lowest core index.
			if best == -1 || t < bestT {
				best, bestT = i, t
			}
		}
		log = append(log, best)
		if _, ok := nexts[best](); !ok {
			nexts[best] = nil
			remaining--
		}
	}
	return log
}

// stopDiscarding stops one coroutine, discarding whatever its unwind
// panics with: the streamAbort sentinel, or a panic raised by the
// body's cleanup.
func stopDiscarding(stop func()) {
	defer func() { _ = recover() }()
	stop()
}
