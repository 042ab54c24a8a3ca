package machine

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pthammer/internal/timing"
)

// newRunMachine builds an n-core machine for the interleaver tests.
// Their steps only advance clocks, so the memory system stays idle.
func newRunMachine(n int) *MultiMachine {
	return MustNewMulti(MultiConfig{Config: SandyBridge(), Cores: n})
}

// scripted is a Run body of fake cores: core i's q-th quantum advances
// its clock by script[i][q], and the core retires when its script runs
// out. Every grant appends the core index to log.
func scripted(log *[]int, script ...[]timing.Cycles) func(int, *Machine) func() bool {
	return func(i int, m *Machine) func() bool {
		q := 0
		return func() bool {
			*log = append(*log, i)
			m.Clock().Advance(script[i][q])
			q++
			return q < len(script[i])
		}
	}
}

// ticking is a Run body whose cores never retire: each quantum advances
// the core's clock 10 cycles, then runs quantum(i, q) for core i's q-th
// quantum.
func ticking(quantum func(i, q int)) func(int, *Machine) func() bool {
	return func(i int, m *Machine) func() bool {
		q := 0
		return func() bool {
			m.Clock().Advance(10)
			quantum(i, q)
			q++
			return true
		}
	}
}

// runScripted runs the scripts on a fresh machine and returns the grant
// log and the final clocks.
func runScripted(script ...[]timing.Cycles) ([]int, []timing.Cycles) {
	mm := newRunMachine(len(script))
	var log []int
	mm.Run(scripted(&log, script...))
	clocks := make([]timing.Cycles, len(script))
	for i := range clocks {
		clocks[i] = mm.Core(i).Clock().Now()
	}
	return log, clocks
}

func TestRunLowestClockNext(t *testing.T) {
	// Core 0 takes big steps, core 1 small ones: after the opening
	// grants the interleaver must keep granting core 1 until its clock
	// passes core 0's. Both start at 0, so the tiebreak gives core 0 the
	// first grant (clock 100); core 1 then runs at 0, 10, …, 40 and
	// retires at 50, still below 100, so core 0's final quantum is last.
	log, clocks := runScripted([]timing.Cycles{100, 100}, []timing.Cycles{10, 10, 10, 10, 10})
	if want := []int{0, 1, 1, 1, 1, 1, 0}; !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
	if want := []timing.Cycles{200, 50}; !reflect.DeepEqual(clocks, want) {
		t.Fatalf("final clocks = %v, want %v", clocks, want)
	}
}

func TestRunTiebreakPicksLowestIndex(t *testing.T) {
	// Identical scripts keep the clocks equal at every grant, so the
	// fixed tiebreak must strictly rotate starting at core 0.
	step := []timing.Cycles{5, 5, 5}
	log, _ := runScripted(step, step, step)
	if want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}; !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
}

// TestRunRetiredCoreNeverStepped: a step that returns false retires its
// core at once, even one whose clock stays the lowest — as a lone core
// and beside a live one.
func TestRunRetiredCoreNeverStepped(t *testing.T) {
	var log []int
	newRunMachine(1).Run(func(i int, m *Machine) func() bool {
		return func() bool {
			log = append(log, i)
			return false
		}
	})
	if want := []int{0}; !reflect.DeepEqual(log, want) {
		t.Fatalf("lone core: grant log = %v, want %v", log, want)
	}

	log = nil
	newRunMachine(2).Run(func(i int, m *Machine) func() bool {
		n := 0
		return func() bool {
			log = append(log, i)
			if i == 0 {
				return false // clock stays at 0, below core 1's
			}
			m.Clock().Advance(1)
			n++
			return n < 3
		}
	})
	if want := []int{0, 1, 1, 1}; !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
}

// TestRunZeroQuantumCores: cores whose clocks never move still make
// progress and terminate. With permanently equal clocks the strict-<
// tiebreak keeps choosing the lowest live index, so core 0 runs to
// completion before core 1 gets its first grant.
func TestRunZeroQuantumCores(t *testing.T) {
	log, _ := runScripted([]timing.Cycles{0, 0, 0}, []timing.Cycles{0, 0, 0})
	if want := []int{0, 0, 0, 1, 1, 1}; !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
}

// TestRunSingleCoreGrantLog: a lone core with several quanta gets every
// grant, one per quantum.
func TestRunSingleCoreGrantLog(t *testing.T) {
	log, clocks := runScripted([]timing.Cycles{5, 5, 5, 5})
	if want := []int{0, 0, 0, 0}; !reflect.DeepEqual(log, want) {
		t.Fatalf("grant log = %v, want %v", log, want)
	}
	if clocks[0] != 20 {
		t.Fatalf("final clock = %d, want 20", clocks[0])
	}
}

func TestRunNilStepPanics(t *testing.T) {
	stepped := false
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "nil step for core 1") {
			t.Fatalf("recovered %v, want a panic naming core 1's nil step", r)
		}
		if stepped {
			t.Fatal("a quantum ran before the nil step was rejected")
		}
	}()
	newRunMachine(2).Run(func(i int, m *Machine) func() bool {
		if i == 1 {
			return nil
		}
		return func() bool { stepped = true; return false }
	})
	t.Fatal("Run accepted a nil step")
}

// TestRunDeterministicAcrossGOMAXPROCS is the headline contract: the
// grant log and the final clocks are identical no matter how much real
// parallelism the runtime has to play with.
func TestRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// Irregular, mutually prime step patterns so the schedule is
	// nontrivial.
	script := [][]timing.Cycles{
		{7, 13, 7, 13, 7, 13, 7, 13},
		{11, 11, 11, 11, 11, 11},
		{3, 3, 3, 29, 3, 3, 3, 29, 3},
		{17, 2, 17, 2, 17, 2},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	refLog, refClocks := runScripted(script...)
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		log, clocks := runScripted(script...)
		if !reflect.DeepEqual(log, refLog) {
			t.Fatalf("GOMAXPROCS=%d: grant log diverged:\n got %v\nwant %v", p, log, refLog)
		}
		if !reflect.DeepEqual(clocks, refClocks) {
			t.Fatalf("GOMAXPROCS=%d: final clocks diverged: got %v want %v", p, clocks, refClocks)
		}
	}
}

// TestRunGrantClocksNondecreasing pins the property shared devices rely
// on: the granted core's clock, read at grant time, never moves
// backwards across the schedule.
func TestRunGrantClocksNondecreasing(t *testing.T) {
	script := [][]timing.Cycles{
		{40, 1, 1, 1, 40},
		{9, 9, 9, 9, 9, 9, 9, 9, 9},
	}
	var log []int
	var granted []timing.Cycles
	inner := scripted(&log, script...)
	newRunMachine(2).Run(func(i int, m *Machine) func() bool {
		step := inner(i, m)
		return func() bool {
			granted = append(granted, m.Clock().Now())
			return step()
		}
	})
	if len(granted) != 14 {
		t.Fatalf("recorded %d grants, want 14", len(granted))
	}
	for i := 1; i < len(granted); i++ {
		if granted[i] < granted[i-1] {
			t.Fatalf("grant-time clocks not nondecreasing: %v", granted)
		}
	}
}

// TestRunPanicPropagates is the interleaver's crash contract: a panic
// in one core's step must re-surface on the caller's goroutine with the
// original value.
func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom in core 1" {
			t.Fatalf("recovered %v, want the original panic value", r)
		}
	}()
	newRunMachine(3).Run(ticking(func(i, q int) {
		if i == 1 && q == 2 {
			panic("boom in core 1")
		}
	}))
	t.Fatal("Run returned instead of panicking")
}

// TestRunPanicBeforeFirstAdvance: a core that panics in its very first
// quantum, before its clock ever moves, surfaces the original value
// from Run like a mid-run panic (TestRunPanicPropagates).
func TestRunPanicBeforeFirstAdvance(t *testing.T) {
	var log []int
	other := scripted(&log, []timing.Cycles{1, 1, 1, 1, 1, 1, 1, 1})
	defer func() {
		if r := recover(); r != "instant" {
			t.Fatalf("recovered %v, want \"instant\"", r)
		}
	}()
	newRunMachine(2).Run(func(i int, m *Machine) func() bool {
		if i == 1 {
			return func() bool { panic("instant") }
		}
		return other(i, m)
	})
	t.Fatal("Run returned instead of panicking")
}

// TestRunGoexitUnwinds: a step that calls runtime.Goexit — what t.Fatal
// or t.FailNow inside a step does — must not hang Run. Goexit unwinds
// the caller's goroutine, so Run neither returns normally nor panics.
func TestRunGoexitUnwinds(t *testing.T) {
	mm := newRunMachine(3)
	returned := false
	var recovered any
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		defer func() { recovered = recover() }()
		mm.Run(ticking(func(i, q int) {
			if i == 1 && q == 1 {
				runtime.Goexit()
			}
		}))
		returned = true
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung after a step called runtime.Goexit")
	}
	if returned {
		t.Error("Run returned normally after a step called runtime.Goexit")
	}
	if recovered != nil {
		t.Errorf("Run panicked with %v instead of propagating Goexit", recovered)
	}
}

// TestRunNoGoroutineLeak: Run calls every step on the caller's
// goroutine, so no step — in a normal run or a panicking one — ever
// sees more goroutines than existed before Run.
func TestRunNoGoroutineLeak(t *testing.T) {
	finite, endless := newRunMachine(2), newRunMachine(3)
	base := runtime.NumGoroutine()
	steps, peak := 0, 0
	check := func() {
		steps++
		peak = max(peak, runtime.NumGoroutine())
	}
	var log []int
	inner := scripted(&log, []timing.Cycles{3, 5, 3, 5}, []timing.Cycles{4, 4, 4})
	finite.Run(func(i int, m *Machine) func() bool {
		step := inner(i, m)
		return func() bool {
			check()
			return step()
		}
	})
	func() {
		defer func() { _ = recover() }()
		endless.Run(ticking(func(i, q int) {
			check()
			if i == 1 && q == 3 {
				panic("boom")
			}
		}))
	}()
	if steps != 7+11 {
		t.Fatalf("checked %d steps, want 18", steps)
	}
	if peak > base {
		t.Fatalf("a step saw %d goroutines, %d before Run", peak, base)
	}
}
