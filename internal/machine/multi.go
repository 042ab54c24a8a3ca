package machine

import (
	"fmt"

	"pthammer/internal/cache"
	"pthammer/internal/core"
	"pthammer/internal/dram"
	"pthammer/internal/pagetable"
	"pthammer/internal/perf"
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

	// Tenants assigns each core an address space: cores with the same
	// tenant index share one set of page tables (threads of one
	// process), cores with different indices get disjoint table pools
	// (co-located users). Nil means every core is tenant 0. Tenant
	// indices must be dense: every index in [0, max+1) must own at
	// least one core.
	//
	// Tenant table pools are striped across DRAM row indices at the top
	// of physical memory — tenant t owns the row indices congruent to t
	// modulo the tenant count — so different tenants' page tables land
	// in physically adjacent rows of the same banks. That is the
	// cross-tenant attack surface: an attacker hammering its own
	// tables' rows puts disturbance pressure on a victim tenant's PTEs
	// one row away (PAPER.md §II's threat model, which the single-core
	// machine cannot express).
	Tenants []int

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
// front-end is a *Machine whose shared handles (Memory, DRAM, the LLC
// behind Caches) alias every other core's; drive them concurrently
// with Run, which serialises quanta under the deterministic
// interleaver in internal/core.
type MultiMachine struct {
	cfg     MultiConfig
	mem     *phys.Memory
	dram    *dram.DRAM
	shared  *cache.SharedLLC
	cores   []*Machine
	tenants []int
	tables  []*pagetable.Tables
}

// tenantCount validates the tenant assignment and returns the number
// of tenants.
func tenantCount(cores int, tenants []int) (int, error) {
	if tenants == nil {
		return 1, nil
	}
	if len(tenants) != cores {
		return 0, fmt.Errorf("machine: %d tenant assignments for %d cores", len(tenants), cores)
	}
	max := 0
	for i, t := range tenants {
		if t < 0 {
			return 0, fmt.Errorf("machine: core %d has negative tenant %d", i, t)
		}
		if t > max {
			max = t
		}
	}
	seen := make([]bool, max+1)
	for _, t := range tenants {
		seen[t] = true
	}
	for t, ok := range seen {
		if !ok {
			return 0, fmt.Errorf("machine: tenant indices not dense: %d unused below max %d", t, max)
		}
	}
	return max + 1, nil
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
	framesPerTenant := pagetable.FramesToMap(cfg.MemBytes)
	rowsPerTenant := (framesPerTenant + rowFrames - 1) / rowFrames
	totalRows := cfg.MemBytes / rowSpan
	reservedRows := rowsPerTenant * uint64(tenantN)
	if reservedRows >= totalRows {
		return nil, fmt.Errorf("machine: %d-byte memory too small for %d tenants × %d table rows",
			cfg.MemBytes, tenantN, rowsPerTenant)
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

// NewMulti validates the config and wires the multi-tenant machine:
// shared memory, DRAM and LLC first, then one front-end per core, each
// attached to its tenant's page tables. Flip and fault models bind to
// the shared memory system exactly as on a single-core machine — one
// model serves every core, with reports attributed to the core whose
// access triggered them.
func NewMulti(cfg MultiConfig) (*MultiMachine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("machine: need at least one core (got %d)", cfg.Cores)
	}
	tenantN, err := tenantCount(cfg.Cores, cfg.Tenants)
	if err != nil {
		return nil, err
	}
	tenants := cfg.Tenants
	if tenants == nil {
		tenants = make([]int, cfg.Cores)
	}

	pmem, err := phys.New(cfg.MemBytes)
	if err != nil {
		return nil, err
	}
	pools, err := tenantPools(cfg.Config, tenantN, cfg.Layout)
	if err != nil {
		return nil, err
	}
	tables := make([]*pagetable.Tables, tenantN)
	for t := range tables {
		if tables[t], err = pagetable.NewWithFrames(pmem, pools[t]); err != nil {
			return nil, err
		}
	}

	clocks := make([]*timing.Clock, cfg.Cores)
	counters := make([]*perf.Counters, cfg.Cores)
	for i := range clocks {
		if clocks[i], err = timing.NewClock(cfg.FreqHz); err != nil {
			return nil, err
		}
		counters[i] = &perf.Counters{}
	}
	// The shared DRAM's default port is core 0 — its bookkeeping
	// methods (and the single-device Lookup path, which multi-core code
	// never uses) charge core 0's clock.
	d, err := dram.New(cfg.DRAM, clocks[0], counters[0], cfg.Lat)
	if err != nil {
		return nil, err
	}
	shared, err := cache.NewShared(cfg.LLC, cfg.Lat)
	if err != nil {
		return nil, err
	}

	mm := &MultiMachine{
		cfg:     cfg,
		mem:     pmem,
		dram:    d,
		shared:  shared,
		cores:   make([]*Machine, cfg.Cores),
		tenants: tenants,
		tables:  tables,
	}
	for i := range mm.cores {
		if mm.cores[i], err = buildCore(cfg.Config, i, pmem, clocks[i], counters[i], d, shared, tables[tenants[i]]); err != nil {
			return nil, err
		}
	}
	if err := bindModels(cfg.Config, pmem, d); err != nil {
		return nil, err
	}
	return mm, nil
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
func (mm *MultiMachine) Tenant(i int) int { return mm.tenants[i] }

// Tenants returns how many tenants the machine hosts.
func (mm *MultiMachine) Tenants() int { return len(mm.tables) }

// Tables returns tenant t's page tables.
func (mm *MultiMachine) Tables(t int) *pagetable.Tables { return mm.tables[t] }

// Memory returns the shared physical memory.
func (mm *MultiMachine) Memory() *phys.Memory { return mm.mem }

// DRAM returns the shared DRAM device.
func (mm *MultiMachine) DRAM() *dram.DRAM { return mm.dram }

// Config returns the configuration the machine was built with.
func (mm *MultiMachine) Config() MultiConfig { return mm.cfg }

// TablesInRow reports whether any page-table frame tenant t has
// allocated so far sits in loc's DRAM row (loc.Col is ignored): the
// row a disturbance error must land in to corrupt t's translations.
func (mm *MultiMachine) TablesInRow(t int, loc dram.Location) bool {
	geom := mm.dram.Config()
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

// Reset recycles the whole multi-tenant machine under the
// Reset/Recycle contract: every front-end rewinds (clock, PMC, noise,
// TLB, walker, private caches, privileged-op counters), the shared LLC
// and DRAM rewind once, physical memory returns to holes, every
// tenant's table pool is recycled in place, and any bound flip/fault
// models rewind their streams and records. After Reset the machine is
// observationally identical to a fresh NewMulti(cfg) — the property
// the cohort scheduler's pool-size determinism rests on. The DRAM's
// new window is anchored at core 0's rebased clock, matching
// construction.
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

// Run drives every core's body under the deterministic interleaver:
// body(i, core i's front-end, yield) runs as its own coroutine, and
// quanta are serialised lowest-clock-first (ties to the lowest core
// index), so the interleaving — and everything it does to shared
// state — is bit-identical for any GOMAXPROCS value. Bodies must call
// yield between quanta (every few accesses) and must not touch another
// core's front-end. A panic or runtime.Goexit in a body (t.Fatal
// included) surfaces from Run after the other bodies unwind. Returns
// the interleaver's grant log; see internal/core.
func (mm *MultiMachine) Run(body func(i int, m *Machine, yield func())) []int {
	streams := make([]core.Stream, len(mm.cores))
	for i := range mm.cores {
		i, m := i, mm.cores[i]
		streams[i] = core.Stream{
			Now: m.clock.Now,
			Run: func(yield func()) { body(i, m, yield) },
		}
	}
	return core.Run(streams)
}
