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

func (s *scripted) stream() core.Stream {
	return core.Stream{
		Now: func() timing.Cycles { return s.clock },
		Run: func(yield func()) {
			for i, d := range s.steps {
				s.clock += d
				if i < len(s.steps)-1 {
					yield()
				}
			}
		},
	}
}

func TestLowestTimestampNext(t *testing.T) {
	// Core 0 takes big steps, core 1 small ones: after the opening
	// grants the scheduler must keep handing core 1 the CPU until its
	// clock passes core 0's.
	a := &scripted{steps: []timing.Cycles{100, 100}}
	b := &scripted{steps: []timing.Cycles{10, 10, 10, 10, 10}}
	log := core.Run([]core.Stream{a.stream(), b.stream()})
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
	log := core.Run([]core.Stream{mk().stream(), mk().stream(), mk().stream()})
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
}

func TestSingleStreamAndImmediateReturn(t *testing.T) {
	ran := false
	log := core.Run([]core.Stream{{
		Now: func() timing.Cycles { return 0 },
		Run: func(yield func()) { ran = true },
	}})
	if !ran {
		t.Fatal("stream body never ran")
	}
	if !reflect.DeepEqual(log, []int{0}) {
		t.Fatalf("grant log = %v, want [0]", log)
	}
	if got := core.Run(nil); got != nil {
		t.Fatalf("Run(nil) = %v, want nil", got)
	}
}

func TestNilStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted a stream with a nil Run")
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
		streams := make([]core.Stream, len(cores))
		for i, c := range cores {
			streams[i] = c.stream()
		}
		log := core.Run(streams)
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
	mk := func() core.Stream {
		return core.Stream{
			Now: func() timing.Cycles { return 0 },
			Run: func(yield func()) {
				yield()
				yield()
			},
		}
	}
	log := core.Run([]core.Stream{mk(), mk()})
	want := []int{0, 0, 0, 1, 1, 1}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
}

// TestSingleCoreGrantLog: a lone stream with several quanta gets every
// grant; the log length is quanta+1 (one grant per yield plus the
// initial one).
func TestSingleCoreGrantLog(t *testing.T) {
	s := &scripted{steps: []timing.Cycles{5, 5, 5, 5}}
	log := core.Run([]core.Stream{s.stream()})
	if !reflect.DeepEqual(log, []int{0, 0, 0, 0}) {
		t.Fatalf("grant log = %v", log)
	}
	if s.clock != 20 {
		t.Fatalf("final clock = %d, want 20", s.clock)
	}
}

// TestPanicPropagatesAfterTeardown is the interleaver's crash
// contract: a panic in one stream body must re-surface on the caller's
// goroutine with the original value — not crash the process from a
// stream goroutine — and every other live stream must first unwind
// through its deferred cleanup.
func TestPanicPropagatesAfterTeardown(t *testing.T) {
	n := 3
	cleaned := make([]bool, n)
	var streams []core.Stream
	for i := 0; i < n; i++ {
		i := i
		clock := timing.Cycles(0)
		streams = append(streams, core.Stream{
			Now: func() timing.Cycles { return clock },
			Run: func(yield func()) {
				defer func() { cleaned[i] = true }()
				for q := 0; ; q++ {
					clock += 10
					if i == 1 && q == 2 {
						panic("boom in core 1")
					}
					yield()
				}
			},
		})
	}
	defer func() {
		r := recover()
		if r != "boom in core 1" {
			t.Fatalf("recovered %v, want the original panic value", r)
		}
		for i, c := range cleaned {
			if !c {
				t.Errorf("core %d deferred cleanup never ran", i)
			}
		}
	}()
	core.Run(streams)
	t.Fatal("Run returned instead of panicking")
}

// TestPanicBeforeFirstYield: a body that panics in its very first
// quantum — including from a stream that never yields at all — still
// tears down cleanly.
func TestPanicBeforeFirstYield(t *testing.T) {
	other := &scripted{steps: []timing.Cycles{1, 1, 1, 1, 1, 1, 1, 1}}
	streams := []core.Stream{
		other.stream(),
		{
			Now: func() timing.Cycles { return 0 },
			Run: func(yield func()) { panic("instant") },
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
	var granted []timing.Cycles
	streams := make([]core.Stream, len(cores))
	for i, c := range cores {
		c := c
		inner := c.stream()
		streams[i] = core.Stream{
			Now: inner.Now,
			Run: func(yield func()) {
				inner.Run(func() {
					yield()
					// Back from a grant: record the clock we resumed at.
					granted = append(granted, c.clock)
				})
			},
		}
	}
	core.Run(streams)
	for i := 1; i < len(granted); i++ {
		if granted[i] < granted[i-1] {
			t.Fatalf("grant-time clocks not nondecreasing: %v", granted)
		}
	}
}

// TestGoexitInStreamTearsDown: a body that calls runtime.Goexit — what
// t.Fatal or t.FailNow inside a MultiMachine.Run body does — must not
// hang Run. Goexit propagates to the caller's goroutine after every
// other stream has unwound through its deferred cleanup, so Run neither
// returns normally nor panics.
func TestGoexitInStreamTearsDown(t *testing.T) {
	cleaned := make([]bool, 3)
	streams := make([]core.Stream, len(cleaned))
	for i := range streams {
		streams[i] = ticking(func(q int) {
			if i == 1 && q == 1 {
				runtime.Goexit()
			}
		}, func() { cleaned[i] = true })
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
	for i, c := range cleaned {
		if !c {
			t.Errorf("core %d deferred cleanup never ran", i)
		}
	}
}

// TestCleanupPanicKeepsOriginal: a parked stream whose deferred cleanup
// panics while it unwinds must neither replace the original panic value
// nor cut the teardown short — core 2, stopped after core 0's cleanup
// panicked, still unwinds.
func TestCleanupPanicKeepsOriginal(t *testing.T) {
	cleaned := false
	streams := []core.Stream{
		ticking(func(q int) {}, func() { panic("cleanup in core 0") }),
		ticking(func(q int) {
			if q == 2 {
				panic("boom in core 1")
			}
		}, func() {}),
		ticking(func(q int) {}, func() { cleaned = true }),
	}
	defer func() {
		if r := recover(); r != "boom in core 1" {
			t.Fatalf("recovered %v, want the original panic value", r)
		}
		if !cleaned {
			t.Error("core 2 deferred cleanup never ran after core 0's cleanup panicked")
		}
	}()
	core.Run(streams)
	t.Fatal("Run returned instead of panicking")
}

// ticking returns an endless stream advancing its clock 10 cycles per
// quantum: quantum(q) runs before the q-th yield and cleanup is
// deferred over the whole body.
func ticking(quantum func(q int), cleanup func()) core.Stream {
	clock := timing.Cycles(0)
	return core.Stream{
		Now: func() timing.Cycles { return clock },
		Run: func(yield func()) {
			defer cleanup()
			for q := 0; ; q++ {
				clock += 10
				quantum(q)
				yield()
			}
		},
	}
}

// TestNoGoroutineLeak: every stream's coroutine is a parked goroutine
// until it finishes or is stopped, so a teardown that forgets one leaks
// it for good. After a normal run and after a panicking one, the
// goroutine count must return to its baseline.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	a := &scripted{steps: []timing.Cycles{3, 5, 3, 5}}
	b := &scripted{steps: []timing.Cycles{4, 4, 4}}
	core.Run([]core.Stream{a.stream(), b.stream()})
	waitForGoroutines(t, base, "normal run")

	func() {
		defer func() { _ = recover() }()
		core.Run([]core.Stream{
			ticking(func(q int) {}, func() {}),
			ticking(func(q int) {
				if q == 3 {
					panic("boom")
				}
			}, func() {}),
			ticking(func(q int) {}, func() {}),
		})
	}()
	waitForGoroutines(t, base, "panicking run")
}

// waitForGoroutines polls until the goroutine count is back at base:
// goroutines other tests started may still be exiting, but a parked
// coroutine never will.
func waitForGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after a %s: %d goroutines, baseline %d", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
