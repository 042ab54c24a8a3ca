package machine

import (
	"fmt"

	"pthammer/internal/cache"
	"pthammer/internal/dram"
	"pthammer/internal/pagetable"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// MultiConfig describes a multi-tenant machine: Cores front-ends (each
// a full Machine: own clock, counters, L1/L2, TLB chain, walker) over
// one physical memory, one inclusive LLC and one banked DRAM.
type MultiConfig struct {
	Config

	// Cores is the number of per-core front-ends.
	Cores int

	// Tenants is the number of address spaces, at most Cores; 0 means
	// one. Core i belongs to tenant i mod Tenants: cores of one tenant
	// share one set of page tables (threads of one process), and
	// different tenants get disjoint table pools (co-located users).
	//
	// Tenant table pools are striped across DRAM row indices at the top
	// of physical memory — tenant t owns the row indices congruent to t
	// modulo the tenant count — so different tenants' page tables land
	// in physically adjacent rows of the same banks. That is the
	// cross-tenant attack surface: an attacker hammering its own
	// tables' rows puts disturbance pressure on a victim tenant's PTEs
	// one row away (PAPER.md §II's threat model, which the single-core
	// machine cannot express).
	Tenants int

	// Layout selects how the reserved table rows are divided among
	// tenants; the zero value is the interleaved striping described
	// above.
	Layout TableLayout
}

// TableLayout selects the physical placement of per-tenant page-table
// pools within the reserved rows at the top of memory.
type TableLayout int

const (
	// LayoutInterleaved stripes tenants mod T across row indices, so
	// different tenants' tables sit in physically adjacent rows — the
	// cross-tenant attack surface.
	LayoutInterleaved TableLayout = iota
	// LayoutBlocked gives each tenant a contiguous block of row
	// indices, so a tenant's rows neighbour its own tables (and at most
	// one row of one other tenant at each block boundary) — the
	// defensive placement the population tables contrast against
	// interleaved striping.
	LayoutBlocked
)

// String returns the layout's table-cell name.
func (l TableLayout) String() string {
	switch l {
	case LayoutInterleaved:
		return "interleaved"
	case LayoutBlocked:
		return "blocked"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// MultiMachine is Cores front-ends over one shared memory system. Each
// front-end is a *Machine whose shared state (Memory, the LLC behind
// Caches, the DRAM banks behind its port) aliases every other core's;
// drive them with Run, which serialises quanta under a deterministic
// interleaver.
type MultiMachine struct {
	cfg    MultiConfig
	mem    *phys.Memory
	dram   *dram.DRAM
	shared *cache.SharedLLC
	cores  []*Machine
	tables []*pagetable.Tables
}

// tenantPools carves the top of physical memory into per-tenant
// page-table pools, each row index spanning one row of every bank and
// each pool holding at least FramesToMap frames so no tenant can
// exhaust its tables. LayoutInterleaved stripes the reserved rows mod
// T (tenant t owns the row indices congruent to t); LayoutBlocked
// hands tenant t the contiguous rows [start+t·R, start+(t+1)·R).
func tenantPools(cfg Config, tenantN int, layout TableLayout) ([][]phys.Frame, error) {
	rowSpan := uint64(cfg.DRAM.TotalBanks()) * cfg.DRAM.RowBytes
	rowFrames := rowSpan / phys.FrameSize
	memBytes := cfg.DRAM.Capacity()
	framesPerTenant := pagetable.FramesToMap(memBytes)
	rowsPerTenant := (framesPerTenant + rowFrames - 1) / rowFrames
	totalRows := memBytes / rowSpan
	reservedRows := rowsPerTenant * uint64(tenantN)
	if reservedRows >= totalRows {
		return nil, fmt.Errorf("machine: %d-byte memory too small for %d tenants × %d table rows",
			memBytes, tenantN, rowsPerTenant)
	}
	if layout != LayoutInterleaved && layout != LayoutBlocked {
		return nil, fmt.Errorf("machine: unknown table layout %v", layout)
	}
	startRow := totalRows - reservedRows
	pools := make([][]phys.Frame, tenantN)
	for t := range pools {
		pool := make([]phys.Frame, 0, rowsPerTenant*rowFrames)
		appendRow := func(r uint64) {
			first := phys.Frame(r * rowFrames)
			for k := uint64(0); k < rowFrames; k++ {
				pool = append(pool, first+phys.Frame(k))
			}
		}
		switch layout {
		case LayoutInterleaved:
			for r := startRow + uint64(t); r < totalRows; r += uint64(tenantN) {
				appendRow(r)
			}
		case LayoutBlocked:
			base := startRow + uint64(t)*rowsPerTenant
			for r := base; r < base+rowsPerTenant; r++ {
				appendRow(r)
			}
		}
		pools[t] = pool
	}
	return pools, nil
}

// NewMulti validates the config and wires the multi-tenant machine
// over the per-tenant table pools tenantPools carves: shared memory,
// DRAM and LLC, then one front-end per core, each attached to its
// tenant's page tables. Flip and fault models bind to the shared
// memory system exactly as on a single-core machine — one model serves
// every core, with reports attributed to the core whose access
// triggered them.
func NewMulti(cfg MultiConfig) (*MultiMachine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("machine: need at least one core (got %d)", cfg.Cores)
	}
	if cfg.Tenants < 0 || cfg.Tenants > cfg.Cores {
		return nil, fmt.Errorf("machine: %d tenants on %d cores (want 0 to %d)", cfg.Tenants, cfg.Cores, cfg.Cores)
	}
	pools, err := tenantPools(cfg.Config, max(cfg.Tenants, 1), cfg.Layout)
	if err != nil {
		return nil, err
	}
	return wire(cfg, pools)
}

// MustNewMulti is NewMulti but panics on error.
func MustNewMulti(cfg MultiConfig) *MultiMachine {
	mm, err := NewMulti(cfg)
	if err != nil {
		panic(err)
	}
	return mm
}

// NumCores returns how many front-ends the machine has.
func (mm *MultiMachine) NumCores() int { return len(mm.cores) }

// Core returns core i's front-end. Anything done through it outside a
// Run body executes unscheduled — fine for setup and inspection, wrong
// for the measured phase of a scenario.
func (mm *MultiMachine) Core(i int) *Machine { return mm.cores[i] }

// Tenant returns the tenant index core i belongs to.
func (mm *MultiMachine) Tenant(i int) int { return i % len(mm.tables) }

// Tenants returns how many tenants the machine hosts.
func (mm *MultiMachine) Tenants() int { return len(mm.tables) }

// Tables returns tenant t's page tables.
func (mm *MultiMachine) Tables(t int) *pagetable.Tables { return mm.tables[t] }

// Memory returns the shared physical memory.
func (mm *MultiMachine) Memory() *phys.Memory { return mm.mem }

// Config returns the configuration the machine was built with.
func (mm *MultiMachine) Config() MultiConfig { return mm.cfg }

// TablesInRow reports whether any page-table frame tenant t has
// allocated so far sits in loc's DRAM row (loc.Col is ignored): the
// row a disturbance error must land in to corrupt t's translations.
func (mm *MultiMachine) TablesInRow(t int, loc dram.Location) bool {
	geom := mm.cfg.DRAM
	for _, f := range mm.tables[t].Frames() {
		if l := geom.Map(f.Addr()); l.SameBank(loc) && l.Row == loc.Row {
			return true
		}
	}
	return false
}

// AlignClocks advances every core's clock to the latest one's — set-up
// work is never spread evenly across cores — and opens a fresh refresh
// window there, so a measured phase starts with every core at the same
// simulated instant and zero activation pressure.
func (mm *MultiMachine) AlignClocks() {
	var latest timing.Cycles
	for _, c := range mm.cores {
		latest = max(latest, c.clock.Now())
	}
	for _, c := range mm.cores {
		c.clock.Advance(latest - c.clock.Now())
	}
	mm.cores[0].ResetRefreshWindow()
}

// Reset recycles the whole machine under the Reset/Recycle contract:
// every front-end rewinds (clock, PMC, noise, TLB, walker, private
// caches, privileged-op counters), the shared LLC and DRAM rewind once,
// physical memory returns to holes, every tenant's table pool is
// recycled in place, and any bound flip/fault models rewind their
// streams and records. After Reset the machine is observationally
// identical to a fresh one from the same config — the property the
// cohort scheduler's pool-size determinism rests on. Order matters:
// the DRAM recycles through core 0's port after that core's clock is
// rebased, so its new window starts at cycle 0 as a fresh DRAM's does,
// and memory is reset before the tables so the re-allocated roots are
// the only frames the recycled machine materializes, as a fresh
// construction does.
func (mm *MultiMachine) Reset() {
	for _, c := range mm.cores {
		c.resetFrontEnd()
	}
	mm.shared.Reset()
	mm.cores[0].dport.Reset()
	mm.mem.Reset()
	for _, t := range mm.tables {
		t.Reset()
	}
	if fm := mm.cfg.FlipModel; fm != nil {
		fm.Reset()
	}
	if fam := mm.cfg.FaultModel; fam != nil {
		fam.Reset()
	}
}

// Run drives every core under the deterministic interleaver on the
// caller's goroutine. It first calls body(i, core i's front-end) once
// per core, in index order and before any quantum runs, to build that
// core's step function; a nil step is a wiring bug and panics. Then
// each grant is a plain call of the step of the live core whose clock
// is lowest, ties to the lowest core index, so the schedule is a pure
// function of the cores' simulated clocks: the interleaving — and
// everything it does to shared state (LLC contents, DRAM activation
// counters, flip-engine reports) — is bit-identical for any GOMAXPROCS
// value. Because grants go to the lowest clock, the clocks read at
// grant time never decrease, so shared devices see simulated time move
// forward even though each core carries its own clock; devices that
// latch a start-of-window timestamp still guard against a core that
// has not caught up yet (see dram.rotateWindow).
//
// A step runs one quantum (every few accesses, since a long quantum
// delays cores whose clocks are behind) and returns false once its core
// is done; that core is retired and never stepped again. A step must
// not touch another core's front-end. Cores advance their clocks only
// in their own quanta, so after AlignClocks a clock read in body equals
// the read at that core's first grant. A panic or runtime.Goexit in a
// step (t.Fatal included) unwinds straight out of Run: no core is
// suspended, so there is nothing to tear down.
func (mm *MultiMachine) Run(body func(i int, m *Machine) (step func() bool)) {
	steps := make([]func() bool, len(mm.cores))
	for i, m := range mm.cores {
		if steps[i] = body(i, m); steps[i] == nil {
			panic(fmt.Sprintf("machine: Run body returned a nil step for core %d", i))
		}
	}
	for live := len(steps); live > 0; {
		next, nextT := -1, timing.Cycles(0)
		for i, step := range steps {
			if step == nil {
				continue // retired
			}
			// Strict < implements the tiebreak: equal clocks go to the
			// lowest core index.
			if t := mm.cores[i].clock.Now(); next < 0 || t < nextT {
				next, nextT = i, t
			}
		}
		if !steps[next]() {
			steps[next] = nil
			live--
		}
	}
}
