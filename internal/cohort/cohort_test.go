package cohort

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/phys"
)

// TestPoolValidation pins the constructor and spec guards.
func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(1, machine.LayoutInterleaved); err == nil {
		t.Error("NewPool(1) accepted a pool too small for one attacker/victim unit")
	}
	p, err := NewPool(2, machine.LayoutInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	if p.Units() != 1 || p.FrontEnds() != 2 {
		t.Errorf("2-front-end pool has %d units / %d front-ends, want 1 / 2", p.Units(), p.FrontEnds())
	}
	if p.Layout() != machine.LayoutInterleaved {
		t.Errorf("pool layout = %v, want interleaved", p.Layout())
	}
	for _, spec := range []Spec{
		{Profile: flip.ClassA(), Tenants: 0, Windows: 1},
		{Profile: flip.ClassA(), Tenants: 1, Windows: 0},
		{Profile: flip.Profile{Name: "bogus"}, Tenants: 1, Windows: 1},
		// 2^60 windows of the 60,000-cycle tenant window wrap to a zero
		// budget: unchecked, the tenant reported a run that never ran.
		{Profile: flip.ClassA(), Tenants: 1, Windows: 1 << 60},
		// Past the tenant cap: unchecked, 2^61 tenants panicked
		// allocating the per-tenant outcomes.
		{Profile: flip.ClassA(), Tenants: MaxTenants + 1, Windows: 1},
		{Profile: flip.ClassA(), Tenants: 1 << 61, Windows: 1},
	} {
		if _, err := p.Run(spec); err == nil {
			t.Errorf("spec %+v validated", spec)
		}
	}
	if _, err := NewPool(7, machine.LayoutBlocked); err != nil {
		t.Errorf("odd front-end count rejected: %v", err)
	}
}

// TestNewPoolRejectsPastCap: a pool past MaxFrontEnds is an error
// naming the cap, raised before any unit is built (an uncapped pool of
// 2^21 front-ends ran out of memory building its units).
func TestNewPoolRejectsPastCap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := NewPool(MaxFrontEnds+2, machine.LayoutInterleaved)
	runtime.ReadMemStats(&after)
	if err == nil || p != nil || !strings.Contains(err.Error(), fmt.Sprint(MaxFrontEnds)) {
		t.Fatalf("NewPool(MaxFrontEnds+2) = %v, %v; want nil and an error naming %d", p, err, MaxFrontEnds)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
		t.Errorf("rejected NewPool allocated %d bytes", grew)
	}
}

// TestPoolSizeInvariance is the scheduling half of the determinism
// contract: tenants are observationally independent, so regrouping the
// same population onto fewer or more units — a 2-front-end pool
// against an 8-front-end one, with a tenant count that divides neither
// evenly, and a 64-front-end one whose 32 units outnumber the tenants,
// so some units draw none — must reproduce every tenant's outcome bit
// for bit.
func TestPoolSizeInvariance(t *testing.T) {
	spec := Spec{Profile: flip.ClassA(), Tenants: 23, Seed: 7, Windows: 2}
	narrow, err := NewPool(2, machine.LayoutInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	popN, outsN, err := narrow.RunDetailed(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(outsN) != spec.Tenants {
		t.Fatalf("narrow pool returned %d outcomes, want %d", len(outsN), spec.Tenants)
	}
	for _, frontEnds := range []int{8, 64} {
		wide, err := NewPool(frontEnds, machine.LayoutInterleaved)
		if err != nil {
			t.Fatal(err)
		}
		popW, outsW, err := wide.RunDetailed(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(outsW) != spec.Tenants {
			t.Fatalf("%d-front-end pool returned %d outcomes, want %d", frontEnds, len(outsW), spec.Tenants)
		}
		for i := range outsN {
			if outsN[i] != outsW[i] {
				t.Errorf("tenant %d diverges at %d front-ends:\n  narrow: %+v\n  wide:   %+v", i, frontEnds, outsN[i], outsW[i])
			}
		}
		if popN != popW {
			t.Errorf("merged populations diverge at %d front-ends:\n  narrow: %+v\n  wide:   %+v", frontEnds, popN, popW)
		}
	}
	// Guard against a vacuous pass where nothing ever happened.
	if popN.MeanIterations == 0 || popN.MaxPeakPressure == 0 {
		t.Errorf("population is vacuous: %+v", popN)
	}
}

// TestRecycleDeterminism is the lifecycle half: the same pool run twice
// back to back — every unit recycled through dozens of tenants in
// between — must reproduce the population exactly. Any cross-tenant
// leak through a machine, flip model, or jitter stream shows up here.
func TestRecycleDeterminism(t *testing.T) {
	p, err := NewPool(4, machine.LayoutInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Profile: flip.ClassB(), Tenants: 30, Seed: 3, Windows: 2}
	_, first, err := p.RunDetailed(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := p.RunDetailed(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("tenant %d diverges across pool reuse:\n  first:  %+v\n  second: %+v", i, first[i], second[i])
		}
	}
}

// TestTenantSeedReplay pins per-tenant replayability: a tenant's seed
// depends only on the population seed and its index, so running a
// shorter prefix of the population reproduces the prefix outcomes.
func TestTenantSeedReplay(t *testing.T) {
	p, err := NewPool(4, machine.LayoutInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	full := Spec{Profile: flip.ClassA(), Tenants: 12, Seed: 11, Windows: 2}
	_, outs, err := p.RunDetailed(full)
	if err != nil {
		t.Fatal(err)
	}
	prefix := full
	prefix.Tenants = 5
	_, pre, err := p.RunDetailed(prefix)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pre {
		if pre[i] != outs[i] {
			t.Errorf("tenant %d differs between full run and prefix replay:\n  full:   %+v\n  prefix: %+v", i, outs[i], pre[i])
		}
	}
	if tenantSeed(11, 0) == tenantSeed(11, 1) || tenantSeed(11, 0) == tenantSeed(12, 0) {
		t.Error("tenantSeed does not separate tenants or populations")
	}
}

// TestLayoutContrast pins the population-level story the mt-population
// tables tell: interleaved striping sandwiches a victim table row and
// yields a non-degenerate population — some tenants breach, some
// dilute, neither all nor none — while blocked striping exposes no
// victim row and is fully defensive.
func TestLayoutContrast(t *testing.T) {
	spec := Spec{Profile: flip.ClassA(), Tenants: 200, Seed: 1, Windows: 3}

	inter, err := NewPool(8, machine.LayoutInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	if !inter.Sandwiched() {
		t.Fatal("interleaved pool sandwiches no victim row")
	}
	pi, err := inter.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pi.Breached == 0 || pi.TableFlips == 0 {
		t.Errorf("interleaved population never breached: %+v", pi)
	}
	if pi.Diluted == 0 || pi.Diluted == pi.Tenants {
		t.Errorf("interleaved dilution is degenerate (%d of %d): co-tenant traffic should split the population", pi.Diluted, pi.Tenants)
	}
	if pi.MaxPeakPressure < uint64(tenantThreshold) {
		t.Errorf("no tenant reached the hammer threshold: max pressure %d < %d", pi.MaxPeakPressure, tenantThreshold)
	}

	blocked, err := NewPool(8, machine.LayoutBlocked)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Sandwiched() {
		t.Fatal("blocked pool claims a sandwiched victim row")
	}
	pb, err := blocked.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Breached != 0 || pb.TableFlips != 0 {
		t.Errorf("blocked striping leaked a breach: %+v", pb)
	}
	if pb.Diluted != pb.Tenants {
		t.Errorf("blocked population not fully diluted: %d of %d", pb.Diluted, pb.Tenants)
	}
	if pb.MeanIterations == 0 {
		t.Errorf("blocked attacker never ran: %+v", pb)
	}
}

// TestClassMonotonicity pins that weaker module classes flip and breach
// less over the identical tenant schedule: the class is the only thing
// that differs between the runs — seeds, geometry, and interference are
// identical — so flips must be ordered A ≥ B ≥ C, strictly at the ends.
func TestClassMonotonicity(t *testing.T) {
	p, err := NewPool(8, machine.LayoutInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	flips := map[string]int{}
	breaches := map[string]int{}
	for _, class := range []flip.Profile{flip.ClassA(), flip.ClassB(), flip.ClassC()} {
		pop, err := p.Run(Spec{Profile: class, Tenants: 200, Seed: 1, Windows: 3})
		if err != nil {
			t.Fatal(err)
		}
		flips[class.Name] = pop.TableFlips
		breaches[class.Name] = pop.Breached
	}
	if !(flips["A"] >= flips["B"] && flips["B"] >= flips["C"] && flips["A"] > flips["C"]) {
		t.Errorf("table flips not monotone across classes: %v", flips)
	}
	if breaches["A"] < breaches["C"] || breaches["A"] == 0 {
		t.Errorf("breaches not monotone across classes: %v", breaches)
	}
}

// TestUnitPanicSurfacesOnCaller: units run on their own goroutines, so
// a panic inside one must be carried back to RunDetailed's caller
// rather than crash the process, and only after every unit has stopped
// — no unit goroutine may outlive the call (a tenant's cores step on
// their unit's goroutine and start none of their own). Units draw
// tenants from a shared index, so any unit may run the first tenant
// or none at all: every unit's hammer ring gets an address past the
// end of memory, each in its own fresh slice so the probed geometry
// stays untouched.
func TestUnitPanicSurfacesOnCaller(t *testing.T) {
	p, err := NewPool(8, machine.LayoutInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range p.units {
		ring := append([]phys.Addr(nil), u.geo.ring...)
		ring[0] = phys.Addr(tenantConfig(nil).DRAM.Capacity())
		u.geo.ring = ring
	}

	base := runtime.NumGoroutine()
	defer func() {
		r := recover()
		if msg := fmt.Sprint(r); !strings.Contains(msg, "outside") || !strings.Contains(msg, "memory") {
			t.Fatalf("recovered %v, want the machine's out-of-memory panic", r)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the panic, baseline %d", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	p.RunDetailed(Spec{Profile: flip.ClassA(), Tenants: 10, Seed: 1, Windows: 1})
	t.Fatal("RunDetailed returned instead of panicking")
}

// TestPerMillionRates pins the integer rate arithmetic the population
// tables print.
func TestPerMillionRates(t *testing.T) {
	p := Population{Tenants: 2000, Breached: 3, Diluted: 900, TableFlips: 17}
	if got := p.BreachedPerM(); got != 1500 {
		t.Errorf("BreachedPerM = %d, want 1500", got)
	}
	if got := p.DilutedPerM(); got != 450_000 {
		t.Errorf("DilutedPerM = %d, want 450000", got)
	}
	if got := p.TableFlipsPerM(); got != 8500 {
		t.Errorf("TableFlipsPerM = %d, want 8500", got)
	}
	if got := (Population{}).BreachedPerM(); got != 0 {
		t.Errorf("empty population rate = %d, want 0", got)
	}
}
