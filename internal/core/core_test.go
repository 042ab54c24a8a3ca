package core_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"pthammer/internal/core"
	"pthammer/internal/timing"
)

// scripted is a fake core: each quantum advances its clock by the next
// scripted increment, and the stream finishes when the script runs out.
type scripted struct {
	clock timing.Cycles
	steps []timing.Cycles
}

// stream returns s as core i's stream; every grant appends i to log.
func (s *scripted) stream(i int, log *[]int) core.Stream {
	next := 0
	return core.Stream{
		Now: func() timing.Cycles { return s.clock },
		Step: func() bool {
			*log = append(*log, i)
			s.clock += s.steps[next]
			next++
			return next < len(s.steps)
		},
	}
}

// runScripted runs the cores' streams and returns the grant log.
func runScripted(cores ...*scripted) []int {
	var log []int
	streams := make([]core.Stream, len(cores))
	for i, c := range cores {
		streams[i] = c.stream(i, &log)
	}
	core.Run(streams)
	return log
}

func TestLowestTimestampNext(t *testing.T) {
	// Core 0 takes big steps, core 1 small ones: after the opening
	// grants the scheduler must keep handing core 1 the CPU until its
	// clock passes core 0's.
	a := &scripted{steps: []timing.Cycles{100, 100}}
	b := &scripted{steps: []timing.Cycles{10, 10, 10, 10, 10}}
	log := runScripted(a, b)
	// Both start at 0 → tiebreak gives core 0 the first grant (clock
	// 100). Core 1 then runs at 0,10,20,...: five grants before its
	// script ends at 50, still below 100, so core 0's final quantum
	// comes last.
	want := []int{0, 1, 1, 1, 1, 1, 0}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
	if a.clock != 200 || b.clock != 50 {
		t.Fatalf("final clocks = %d, %d; want 200, 50", a.clock, b.clock)
	}
}

func TestTiebreakPicksLowestIndex(t *testing.T) {
	// Identical scripts: clocks are equal at every scheduling point, so
	// the fixed tiebreak must strictly alternate starting at core 0.
	mk := func() *scripted { return &scripted{steps: []timing.Cycles{5, 5, 5}} }
	log := runScripted(mk(), mk(), mk())
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
}

func TestSingleStreamAndImmediateReturn(t *testing.T) {
	var log []int
	core.Run([]core.Stream{{
		Now: func() timing.Cycles { return 0 },
		Step: func() bool {
			log = append(log, 0)
			return false
		},
	}})
	if !reflect.DeepEqual(log, []int{0}) {
		t.Fatalf("grant log = %v, want [0]", log)
	}
	core.Run(nil) // no streams: returns at once
}

func TestNilStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted a stream with a nil Step")
		}
	}()
	core.Run([]core.Stream{{Now: func() timing.Cycles { return 0 }}})
}

// TestDeterministicAcrossGOMAXPROCS is the headline contract: the grant
// log (and the streams' final state) must be bit-identical no matter
// how much real parallelism the runtime has to play with.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func() ([]int, []timing.Cycles) {
		// Irregular, mutually prime step patterns so the schedule is
		// nontrivial.
		cores := []*scripted{
			{steps: []timing.Cycles{7, 13, 7, 13, 7, 13, 7, 13}},
			{steps: []timing.Cycles{11, 11, 11, 11, 11, 11}},
			{steps: []timing.Cycles{3, 3, 3, 29, 3, 3, 3, 29, 3}},
			{steps: []timing.Cycles{17, 2, 17, 2, 17, 2}},
		}
		log := runScripted(cores...)
		finals := make([]timing.Cycles, len(cores))
		for i, c := range cores {
			finals[i] = c.clock
		}
		return log, finals
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	refLog, refFinals := run()
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		log, finals := run()
		if !reflect.DeepEqual(log, refLog) {
			t.Fatalf("GOMAXPROCS=%d: grant log diverged:\n got %v\nwant %v", p, log, refLog)
		}
		if !reflect.DeepEqual(finals, refFinals) {
			t.Fatalf("GOMAXPROCS=%d: final clocks diverged: got %v want %v", p, finals, refFinals)
		}
	}
}

// TestZeroQuantumStreams: streams whose clocks never move still make
// progress and terminate. With permanently equal clocks the strict-<
// tiebreak keeps choosing the lowest live index, so core 0 runs to
// completion before core 1 gets its first grant.
func TestZeroQuantumStreams(t *testing.T) {
	var log []int
	mk := func(i int) core.Stream {
		steps := 0
		return core.Stream{
			Now: func() timing.Cycles { return 0 },
			Step: func() bool {
				log = append(log, i)
				steps++
				return steps < 3
			},
		}
	}
	core.Run([]core.Stream{mk(0), mk(1)})
	want := []int{0, 0, 0, 1, 1, 1}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
}

// TestSingleCoreGrantLog: a lone stream with several quanta gets every
// grant, one per quantum.
func TestSingleCoreGrantLog(t *testing.T) {
	s := &scripted{steps: []timing.Cycles{5, 5, 5, 5}}
	log := runScripted(s)
	if !reflect.DeepEqual(log, []int{0, 0, 0, 0}) {
		t.Fatalf("grant log = %v", log)
	}
	if s.clock != 20 {
		t.Fatalf("final clock = %d, want 20", s.clock)
	}
}

// TestPanicPropagatesAfterTeardown is the interleaver's crash
// contract: a panic in one stream's step must re-surface on the
// caller's goroutine with the original value.
func TestPanicPropagatesAfterTeardown(t *testing.T) {
	streams := make([]core.Stream, 3)
	for i := range streams {
		streams[i] = ticking(func(q int) {
			if i == 1 && q == 2 {
				panic("boom in core 1")
			}
		})
	}
	defer func() {
		if r := recover(); r != "boom in core 1" {
			t.Fatalf("recovered %v, want the original panic value", r)
		}
	}()
	core.Run(streams)
	t.Fatal("Run returned instead of panicking")
}

// TestPanicBeforeFirstYield: a stream that panics in its very first
// quantum surfaces the same way.
func TestPanicBeforeFirstYield(t *testing.T) {
	var log []int
	other := &scripted{steps: []timing.Cycles{1, 1, 1, 1, 1, 1, 1, 1}}
	streams := []core.Stream{
		other.stream(0, &log),
		{
			Now:  func() timing.Cycles { return 0 },
			Step: func() bool { panic("instant") },
		},
	}
	defer func() {
		if r := recover(); r != "instant" {
			t.Fatalf("recovered %v, want \"instant\"", r)
		}
	}()
	core.Run(streams)
	t.Fatal("Run returned instead of panicking")
}

// TestGrantClocksNondecreasing pins the property shared devices rely
// on: the clock of the granted core, read at grant time, never moves
// backwards across the schedule.
func TestGrantClocksNondecreasing(t *testing.T) {
	cores := []*scripted{
		{steps: []timing.Cycles{40, 1, 1, 1, 40}},
		{steps: []timing.Cycles{9, 9, 9, 9, 9, 9, 9, 9, 9}},
	}
	var log []int
	var granted []timing.Cycles
	streams := make([]core.Stream, len(cores))
	for i, c := range cores {
		inner := c.stream(i, &log)
		streams[i] = core.Stream{
			Now: inner.Now,
			Step: func() bool {
				granted = append(granted, c.clock)
				return inner.Step()
			},
		}
	}
	core.Run(streams)
	if len(granted) != 14 {
		t.Fatalf("recorded %d grants, want 14", len(granted))
	}
	for i := 1; i < len(granted); i++ {
		if granted[i] < granted[i-1] {
			t.Fatalf("grant-time clocks not nondecreasing: %v", granted)
		}
	}
}

// TestGoexitInStreamTearsDown: a step that calls runtime.Goexit — what
// t.Fatal or t.FailNow inside a MultiMachine.Run step does — must not
// hang Run. Goexit propagates to the caller's goroutine, so Run
// neither returns normally nor panics.
func TestGoexitInStreamTearsDown(t *testing.T) {
	streams := make([]core.Stream, 3)
	for i := range streams {
		streams[i] = ticking(func(q int) {
			if i == 1 && q == 1 {
				runtime.Goexit()
			}
		})
	}
	returned := false
	var recovered any
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		defer func() { recovered = recover() }()
		core.Run(streams)
		returned = true
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung after a stream called runtime.Goexit")
	}
	if returned {
		t.Error("Run returned normally after a stream called runtime.Goexit")
	}
	if recovered != nil {
		t.Errorf("Run panicked with %v instead of propagating Goexit", recovered)
	}
}

// ticking returns an endless stream advancing its clock 10 cycles per
// quantum; quantum(q) runs inside the q-th step.
func ticking(quantum func(q int)) core.Stream {
	clock := timing.Cycles(0)
	q := 0
	return core.Stream{
		Now: func() timing.Cycles { return clock },
		Step: func() bool {
			clock += 10
			quantum(q)
			q++
			return true
		},
	}
}

// TestNoGoroutineLeak: the interleaver runs every step on the caller's
// goroutine, so no step — in a normal run or a panicking one — ever
// sees more goroutines than existed before Run.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	steps, peak := 0, 0
	check := func() {
		steps++
		peak = max(peak, runtime.NumGoroutine())
	}
	var log []int
	a := &scripted{steps: []timing.Cycles{3, 5, 3, 5}}
	b := &scripted{steps: []timing.Cycles{4, 4, 4}}
	streams := []core.Stream{a.stream(0, &log), b.stream(1, &log)}
	for i, s := range streams {
		streams[i].Step = func() bool {
			check()
			return s.Step()
		}
	}
	core.Run(streams)

	func() {
		defer func() { _ = recover() }()
		core.Run([]core.Stream{
			ticking(func(q int) { check() }),
			ticking(func(q int) {
				check()
				if q == 3 {
					panic("boom")
				}
			}),
			ticking(func(q int) { check() }),
		})
	}()
	if steps != 7+11 {
		t.Fatalf("checked %d steps, want 18", steps)
	}
	if peak > base {
		t.Fatalf("a step saw %d goroutines, %d before Run", peak, base)
	}
}
