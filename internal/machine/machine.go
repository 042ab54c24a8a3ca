// Package machine is the facade over the whole simulated memory
// hierarchy. One wiring path builds every machine: one phys.Memory, and
// per core one timing.Clock, one perf.Counters bank and the device
// chain — dTLB → sTLB → hardware page walker for translation, L1 → L2
// → LLC → DRAM banks for data — so that a single Load traverses every
// level exactly the way the paper's measured loads do, and clock deltas
// agree with counter deltas by construction. machine.New is the
// one-core case every single-core algorithm (eviction sets, Figure 5/6
// sweeps, the hammer loop) programs against; NewMulti is the N-core
// one.
//
// Translation is real: the machine reserves the top of physical
// memory as the kernel's page-table pool, identity-maps pages there on
// first touch (demand paging), and the walker's PTE fetches read the
// actual entry bytes through the cache hierarchy — so a TLB-missing
// load opens DRAM rows in the table region exactly the way PThammer's
// implicit accesses do.
package machine

import (
	"fmt"

	"pthammer/internal/cache"
	"pthammer/internal/dram"
	"pthammer/internal/fault"
	"pthammer/internal/flip"
	"pthammer/internal/mem"
	"pthammer/internal/pagetable"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/ptwalk"
	"pthammer/internal/timing"
	"pthammer/internal/tlb"
)

// FreqHz is the core clock rate of every simulated machine.
const FreqHz = 3_400_000_000

// Config fully describes one simulated machine. Physical memory is
// the DRAM geometry's capacity, so every physical address maps to a
// bank.
type Config struct {
	Lat  timing.LatencyTable
	DRAM dram.Config
	L1   cache.Config
	L2   cache.Config
	LLC  cache.Config
	TLB  tlb.Config

	// Noise parameters for timed measurements; NoiseProb 0 keeps the
	// machine fully deterministic.
	NoiseSeed          int64
	NoiseProb          float64
	NoiseMin, NoiseMax timing.Cycles

	// FlipModel, when non-nil, is the disturbance-error engine: New
	// binds it to this machine's physical memory and DRAM geometry and
	// subscribes it to end-of-refresh-window victim reports, so rows
	// hammered past HammerThreshold within a window can actually flip
	// bits (read the damage back with Flips). Nil — the default — keeps
	// memory ideal: hammering is detected but never corrupts.
	FlipModel *flip.Model

	// FaultModel, when non-nil, is the adversity engine: New binds it to
	// this machine's DRAM geometry, hooks it into the Prime/Probe paths,
	// and (when a FlipModel is also configured) subscribes it to the
	// flip engine's injection points, so the attack path can be
	// exercised under the fault classes in internal/fault. Nil — the
	// default — costs nothing: like the noise sampler, the hot paths
	// cache its absence and skip every hook.
	FaultModel *fault.Model
}

// SandyBridge returns a preset modelled on the paper's Sandy
// Bridge-class test machine: 1 GiB of DDR3 across 2 channels × 1 rank
// × 8 banks with 8 KiB rows, 32 KiB/256 KiB/8 MiB caches, a 64-entry
// dTLB over a 512-entry sTLB, and a 64 ms refresh window at FreqHz.
func SandyBridge() Config {
	return Config{
		Lat: timing.DefaultLatencies(),
		DRAM: dram.Config{
			Channels:        2,
			RanksPerChannel: 1,
			BanksPerRank:    8,
			Rows:            8192,
			RowBytes:        8192,
			// 64 ms at FreqHz.
			RefreshWindow: timing.Cycles(FreqHz * 64 / 1000),
			// First-flip activation count reported for the paper's
			// weakest module class.
			HammerThreshold: 139_000,
		},
		L1:  cache.Config{SizeBytes: 32 << 10, Ways: 8},
		L2:  cache.Config{SizeBytes: 256 << 10, Ways: 8},
		LLC: cache.Config{SizeBytes: 8 << 20, Ways: 16},
		TLB: tlb.Config{L1Entries: 64, L1Ways: 4, L2Entries: 512, L2Ways: 4},
	}
}

// Machine owns one core's front-end — clock, counters, TLB chain,
// walker, private cache levels — plus handles to the state it shares
// with any co-resident cores: physical memory, the inclusive LLC, the
// banked DRAM, and its address space's page tables. Every Machine is a
// core of the MultiMachine it points to: New builds a one-core
// MultiMachine and hands out its only core, NewMulti builds N cores
// over one shared memory system.
type Machine struct {
	multi    *MultiMachine
	core     int
	mem      *phys.Memory
	clock    *timing.Clock
	noise    *timing.Noise
	counters *perf.Counters

	tlb    *tlb.TLB
	walker *ptwalk.Walker
	tables *pagetable.Tables
	caches *cache.Hierarchy
	dport  *dram.Port

	// noisy caches NoiseProb != 0 so the quiet (deterministic) hot path
	// skips the noise sampler entirely; faulty does the same for the
	// fault-injection hooks.
	noisy  bool
	faulty bool

	// privFlushes/privInvlpgs count the kernel-only operations issued on
	// this machine. PThammer's attacker has neither clflush on kernel
	// lines nor invlpg, so the flush-free eviction-set paths assert
	// these counters never move (see PrivilegedOps).
	privFlushes uint64
	privInvlpgs uint64
}

// validate checks the config invariants shared by New and NewMulti.
func (cfg Config) validate() error {
	if err := cfg.Lat.Validate(); err != nil {
		return err
	}
	return cfg.DRAM.Validate()
}

// New validates the config and wires a single-core machine: core 0
// of a one-core MultiMachine, with the page-table pool contiguous at
// the top of physical memory — the layout every single-core scenario
// and benchmark is calibrated against.
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The kernel's page-table pool sits at the top of physical memory,
	// sized so identity-mapping the whole machine can never exhaust it.
	memBytes := cfg.DRAM.Capacity()
	tableFrames := pagetable.FramesToMap(memBytes)
	totalFrames := memBytes / phys.FrameSize
	if tableFrames >= totalFrames {
		return nil, fmt.Errorf("machine: %d-byte memory too small for its %d-frame page-table pool",
			memBytes, tableFrames)
	}
	pool := make([]phys.Frame, tableFrames)
	for i := range pool {
		pool[i] = phys.Frame(totalFrames - tableFrames + uint64(i))
	}
	mm, err := wire(MultiConfig{Config: cfg, Cores: 1}, [][]phys.Frame{pool})
	if err != nil {
		return nil, err
	}
	return mm.cores[0], nil
}

// wire builds a machine from a validated config and one page-table
// frame pool per tenant — the only difference between New and
// NewMulti: physical memory and every tenant's tables, the DRAM and
// shared LLC, one front-end per core attached to its tenant's tables,
// and last the flip/fault model bindings.
func wire(cfg MultiConfig, pools [][]phys.Frame) (*MultiMachine, error) {
	pmem, err := phys.New(cfg.DRAM.Capacity())
	if err != nil {
		return nil, err
	}
	tables := make([]*pagetable.Tables, len(pools))
	for t, pool := range pools {
		if tables[t], err = pagetable.NewWithFrames(pmem, pool); err != nil {
			return nil, err
		}
	}
	d, err := dram.New(cfg.DRAM, cfg.Lat)
	if err != nil {
		return nil, err
	}
	shared, err := cache.NewShared(cfg.LLC, cfg.Lat)
	if err != nil {
		return nil, err
	}
	mm := &MultiMachine{
		cfg:    cfg,
		mem:    pmem,
		dram:   d,
		shared: shared,
		cores:  make([]*Machine, cfg.Cores),
		tables: tables,
	}
	for i := range mm.cores {
		if mm.cores[i], err = buildCore(mm, i); err != nil {
			return nil, err
		}
	}
	if err := bindModels(cfg.Config, pmem, d); err != nil {
		return nil, err
	}
	return mm, nil
}

// buildCore wires core i's front-end — clock, PMC bank, noise source,
// DRAM port, private cache levels over the shared LLC, page walker and
// TLB chain — over mm's shared memory system and core i's tenant
// tables, charging everything to the core's own clock and counters.
func buildCore(mm *MultiMachine, i int) (*Machine, error) {
	cfg := mm.cfg.Config
	tables := mm.tables[mm.Tenant(i)]
	clock := &timing.Clock{}
	counters := &perf.Counters{}
	// Offset the seed per core so noisy cores draw independent spike
	// streams; with NoiseProb 0 (the multi-core determinism default)
	// the source is never sampled.
	noise, err := timing.NewNoise(cfg.NoiseSeed+int64(i), cfg.NoiseProb, cfg.NoiseMin, cfg.NoiseMax)
	if err != nil {
		return nil, err
	}
	dport, err := mm.dram.NewPort(i, clock, counters)
	if err != nil {
		return nil, err
	}
	caches, err := cache.NewCore(cfg.L1, cfg.L2, mm.shared, i, dport, clock, counters, cfg.Lat)
	if err != nil {
		return nil, err
	}
	walker, err := ptwalk.New(tables, caches, mm.mem, clock, counters, cfg.Lat)
	if err != nil {
		return nil, err
	}
	// Demand paging: first touch of a page identity-maps it. The
	// handler maps the whole path for va, so the walk's re-read of the
	// faulting entry — and every level below it — finds it present.
	walker.Fault = func(va phys.Addr, _ int) {
		tables.Map(va, phys.FrameOf(va))
	}
	t, err := tlb.New(cfg.TLB, walker, clock, counters, cfg.Lat)
	if err != nil {
		return nil, err
	}
	return &Machine{
		multi:    mm,
		core:     i,
		mem:      mm.mem,
		clock:    clock,
		noise:    noise,
		counters: counters,
		tlb:      t,
		walker:   walker,
		tables:   tables,
		caches:   caches,
		dport:    dport,
		noisy:    cfg.NoiseProb != 0,
		faulty:   cfg.FaultModel != nil,
	}, nil
}

// bindModels attaches the configured flip and fault models to the
// machine's memory system. It runs last — Bind is one-shot, and
// binding before a later constructor could fail would poison the model
// for a retried New with a corrected config.
func bindModels(cfg Config, pmem *phys.Memory, d *dram.DRAM) error {
	if cfg.FlipModel != nil {
		if err := cfg.FlipModel.Bind(pmem, cfg.DRAM); err != nil {
			return err
		}
		d.SetWindowHook(cfg.FlipModel.OnWindow)
	}
	if cfg.FaultModel != nil {
		if err := cfg.FaultModel.Bind(cfg.DRAM); err != nil {
			return err
		}
		if cfg.FlipModel != nil {
			if err := cfg.FlipModel.SetInjector(cfg.FaultModel); err != nil {
				return err
			}
		}
	}
	return nil
}

// MustNew is New but panics on error; intended for tests and presets.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// access is the shared demand-access path: translation through the
// TLB chain (walking the page tables on a full miss), then the data
// access through the cache chain at the physical address the
// translation resolved. Under the machine's identity mapping the two
// coincide — until a flipped page-table bit makes them diverge. It
// returns that physical address alongside the aggregate result —
// Latency is the total cycles charged (including any noise spike),
// Hit/Source report where the data was served. Panics on an
// out-of-range virtual address, mirroring phys, and on a (corrupted)
// translation that resolves outside memory.
//
//pthammer:noalloc
func (m *Machine) access(a phys.Addr) (phys.Addr, mem.Result) {
	if !m.mem.Contains(a) {
		panic(fmt.Sprintf("machine: access at %#x outside %d-byte memory", uint64(a), m.mem.Size()))
	}
	frame, tres := m.tlb.Translate(a)
	pa := frame.Addr() + phys.Addr(phys.Offset(a))
	if !m.mem.Contains(pa) {
		panic(fmt.Sprintf("machine: %#x translates to %#x outside %d-byte memory (corrupted page tables?)",
			uint64(a), uint64(pa), m.mem.Size()))
	}
	cres := m.caches.Lookup(pa)
	total := tres.Latency + cres.Latency
	if m.noisy {
		if spike := m.noise.Sample(); spike > 0 {
			m.clock.Advance(spike)
			total += spike
		}
	}
	return pa, mem.Result{Latency: total, Hit: tres.Hit && cres.Hit, Source: cres.Source}
}

// Load performs one demand load at the virtual address — the shared
// access path with nothing written back.
//
//pthammer:noalloc
func (m *Machine) Load(a phys.Addr) mem.Result {
	_, res := m.access(a)
	return res
}

// Store64 performs one demand store of a little-endian 64-bit value at
// the virtual address: the same access path as Load (write-allocate
// through the cache chain), then the bytes written to physical memory
// at the resolved address. It is a plain user store — no privilege
// involved — which is exactly what makes it the escalation demo's
// final step: once a flipped PTE maps an attacker page onto a
// page-table frame, Store64 through that page rewrites page-table
// entries. The address must be 8-byte aligned (phys panics otherwise).
//
//pthammer:noalloc
func (m *Machine) Store64(a phys.Addr, v uint64) mem.Result {
	pa, res := m.access(a)
	m.mem.Write64(pa, v)
	return res
}

// Translate resolves the virtual address the way a load would —
// through the TLB, walking (and demand-mapping) on a miss, charging
// the shared clock — and returns the physical frame plus the
// translation-side result. Tests use it to observe what a corrupted
// page table resolves to without the data-side access.
func (m *Machine) Translate(a phys.Addr) (phys.Frame, mem.Result) {
	if !m.mem.Contains(a) {
		panic(fmt.Sprintf("machine: translate at %#x outside %d-byte memory", uint64(a), m.mem.Size()))
	}
	frame, res := m.tlb.Translate(a)
	return frame, res
}

// InvalidatePage is the simulated invlpg: it drops the page's
// translation from both TLB levels and its entries from the walker's
// paging-structure caches. Only the kernel can execute it — the paper's
// attacker substitutes TLB eviction sets — so scenarios use it as the
// privileged baseline. It charges no cycles and reports whether any
// structure held state for the page.
//
//pthammer:noalloc
func (m *Machine) InvalidatePage(a phys.Addr) bool {
	m.privInvlpgs++
	inTLB := m.tlb.Invalidate(a)
	inPS := m.walker.Invalidate(a)
	return inTLB || inPS
}

// PrivilegedOps reports how many privileged maintenance operations —
// Flush (clflush on arbitrary lines) and InvalidatePage (invlpg) — have
// been issued since the machine was built. The eviction-set tests
// assert the deltas stay zero across construction and hammering: the
// whole point of Algorithm 1 is doing without them.
func (m *Machine) PrivilegedOps() (flushes, invlpgs uint64) {
	return m.privFlushes, m.privInvlpgs
}

// PTEAddr returns the physical address of the page-table entry
// consulted at the given level (1 = PT … 4 = PML4) when translating a.
// ok is false while the path is not yet mapped. Hammer scenarios use
// it to aim flushes at the cache lines holding PTEs.
func (m *Machine) PTEAddr(a phys.Addr, level int) (phys.Addr, bool) {
	return m.tables.EntryAddr(a, level)
}

// Premap eagerly identity-maps every page of [start, start+bytes),
// the way a kernel pre-faults a region. Benchmarks use it to pull
// demand-mapping table writes out of measured loops.
func (m *Machine) Premap(start phys.Addr, bytes uint64) {
	m.tables.MapRange(start, bytes)
}

// LoadN performs Load on every address in order, appending the
// per-load results to out and returning the extended slice. Passing a
// reused buffer (`buf = m.LoadN(addrs, buf[:0])`) keeps batched
// measurement loops — the sweep engine's inner loop — allocation-free;
// the single capacity check up front replaces a per-load append grow.
//
//pthammer:noalloc
func (m *Machine) LoadN(addrs []phys.Addr, out []mem.Result) []mem.Result {
	if need := len(out) + len(addrs); cap(out) < need {
		grown := make([]mem.Result, len(out), need) //pthammer:alloc-ok one up-front grow; reused buffers never hit it
		copy(grown, out)
		out = grown
	}
	for _, a := range addrs {
		out = append(out, m.Load(a)) //pthammer:alloc-ok capacity reserved above, append never grows
	}
	return out
}

// Prime issues the access stream: one demand Load per address, in
// order, discarding the per-load results and returning the total cycles
// charged. This is the batch primitive eviction sets are driven with —
// walking a measured set of conflicting pages (or lines) is the
// unprivileged attacker's substitute for invlpg and clflush, so the
// loop body must stay allocation-free for the hammer hot path.
//
//pthammer:noalloc
func (m *Machine) Prime(addrs []phys.Addr) timing.Cycles {
	if m.faulty {
		return m.primeFaulted(addrs)
	}
	var total timing.Cycles
	for _, a := range addrs {
		total += m.Load(a).Latency
	}
	return total
}

// primeFaulted is Prime under a fault model: the model may rotate the
// walk order (system activity reordering the access stream) and drop
// individual members (the line/translation got re-fetched between the
// drop and the measurement). Off the quiet path this is behaviourally
// identical to Prime — every hook returns its zero fast-path value.
//
//pthammer:noalloc
func (m *Machine) primeFaulted(addrs []phys.Addr) timing.Cycles {
	n := len(addrs)
	if n == 0 {
		return 0
	}
	fm := m.multi.cfg.FaultModel
	start := fm.PrimeStart(n)
	var total timing.Cycles
	for i := 0; i < n; i++ {
		j := start + i
		if j >= n {
			j -= n
		}
		if fm.DropMember() {
			continue
		}
		total += m.Load(addrs[j]).Latency
	}
	return total
}

// ProbeResult couples one timed load with the performance-counter
// deltas it produced — the paper's measurement primitive: rdtsc around
// the load plus the PMC kernel module reading dtlb_load_misses.*,
// page_walker.* and longest_lat_cache.* as ground truth.
type ProbeResult struct {
	mem.Result
	// Walked reports dtlb_load_misses.miss_causes_a_walk advanced: the
	// load missed both TLB levels and the hardware walker ran.
	Walked bool
	// STLBHit reports dtlb_load_misses.stlb_hit advanced: the load
	// missed only the first-level TLB.
	STLBHit bool
	// LeafFromDRAM reports page_walker.l1pte_memory_fetch advanced: the
	// walk's leaf PTE came from DRAM — an implicit hammer access.
	LeafFromDRAM bool
	// LLCMiss reports longest_lat_cache.miss advanced somewhere in the
	// load (data or PTE fetch).
	LLCMiss bool
}

// Probe performs one Load bracketed by a PMC snapshot and returns the
// result together with the decoded counter deltas. Eviction-set
// construction (Algorithm 1) uses it to decide whether a candidate
// stream really evicted the target translation or PTE line; it charges
// exactly what the Load charges and allocates nothing.
//
//pthammer:noalloc
func (m *Machine) Probe(a phys.Addr) ProbeResult {
	snap := m.counters.Snapshot()
	res := m.Load(a)
	if m.faulty {
		// Threshold drift: the fault model may inflate this timed probe.
		// The spike is charged to the shared clock so the clock-delta /
		// Result-latency agreement invariant holds under drift too.
		if extra := m.multi.cfg.FaultModel.ProbeJitter(); extra > 0 {
			m.clock.Advance(extra)
			res.Latency += extra
		}
	}
	return ProbeResult{
		Result:       res,
		Walked:       snap.Advanced(m.counters, perf.DTLBLoadMissesWalk),
		STLBHit:      snap.Advanced(m.counters, perf.DTLBLoadMissesL1),
		LeafFromDRAM: snap.Advanced(m.counters, perf.L1PTEMemoryFetch),
		LLCMiss:      snap.Advanced(m.counters, perf.LongestLatCacheMiss),
	}
}

// Flush models clflush on the address's line: it is dropped from every
// cache level and the instruction cost is charged and returned. The
// TLB is untouched — exactly why the paper needs eviction-based TLB
// flushing from user space. Panics on an out-of-range address, like
// Load.
//
//pthammer:noalloc
func (m *Machine) Flush(a phys.Addr) timing.Cycles {
	if !m.mem.Contains(a) {
		panic(fmt.Sprintf("machine: flush at %#x outside %d-byte memory", uint64(a), m.mem.Size()))
	}
	m.privFlushes++
	return m.caches.Flush(a)
}

// HammerStats reports the DRAM's per-refresh-window activation
// bookkeeping: total ACTs and which rows are currently hammer-eligible.
// Window rotation is checked against this core's clock.
func (m *Machine) HammerStats() dram.Stats { return m.dport.HammerStats() }

// Activations reports how many times loc's row has been activated in
// the current refresh window — the live pressure one aggressor row
// puts on its neighbours. Window rotation is checked against this
// core's clock.
func (m *Machine) Activations(loc dram.Location) uint64 { return m.dport.Activations(loc) }

// ResetRefreshWindow discards the DRAM's current refresh window —
// activation counts and victim pressure drop to zero, banks precharge,
// and no flip-model report fires for the discarded activity. Scenario
// construction (aggressor discovery, eviction-set building) calls it
// so the first measured window starts from zero pressure instead of
// inheriting construction traffic.
//
//pthammer:noalloc
func (m *Machine) ResetRefreshWindow() { m.dport.ResetWindow() }

// resetFrontEnd rewinds this core's private state to construction
// time: clock rebased to cycle 0, PMC bank cleared, noise stream
// reseeded from the config's NoiseSeed exactly as buildCore seeds it,
// TLB levels and paging-structure caches and private L1/L2 emptied,
// privileged-operation counters zeroed. Shared state is
// MultiMachine.Reset's, rewound once for every core.
func (m *Machine) resetFrontEnd() {
	m.clock.Reset()
	m.counters.Reset()
	m.noise.ResetTo(m.multi.cfg.NoiseSeed + int64(m.core))
	m.tlb.Reset()
	m.walker.Reset()
	m.caches.Reset()
	m.privFlushes, m.privInvlpgs = 0, 0
}

// Reset recycles the machine under the Reset/Recycle contract
// (CONTRIBUTING.md) through MultiMachine.Reset: after Reset, the
// machine is observationally identical to a fresh one built from the
// same config — same clock base, counters, cache/TLB/walker state,
// DRAM window bookkeeping, hole-only memory, one-root page tables, and
// rewound flip/fault models (still bound, streams reseeded). The
// reset-equivalence difftest in reset_test.go pins the contract:
// recycled and fresh machines produce bit-identical
// Clock/PMC/HammerStats/Flips traces for the same workload. On a core
// of a NewMulti machine, Reset rewinds every core, since they share
// one memory system.
func (m *Machine) Reset() { m.multi.Reset() }

// ResetWithNoiseSeed is Reset with a new noise seed: the recycled
// machine is observationally identical to a fresh one built with
// cfg.NoiseSeed = seed, and Config reports that seed. Each core's noise
// stream is seeded once, at seed + core as construction seeds it. The
// sweep engine recycles one machine per worker through it, each shard
// bringing its own seed.
func (m *Machine) ResetWithNoiseSeed(seed int64) {
	m.multi.cfg.NoiseSeed = seed
	m.multi.Reset()
}

// Flips returns the disturbance errors the configured flip model has
// produced so far, in occurrence order, or nil when the machine was
// built without a FlipModel. The slice is the model's own record:
// callers must not mutate it.
func (m *Machine) Flips() []flip.Flip {
	if m.multi.cfg.FlipModel == nil {
		return nil
	}
	return m.multi.cfg.FlipModel.Flips()
}

// FlipModel returns the machine's disturbance-error engine, nil when
// none was configured.
func (m *Machine) FlipModel() *flip.Model { return m.multi.cfg.FlipModel }

// FaultModel returns the machine's fault-injection engine, nil when the
// machine runs fault-free.
func (m *Machine) FaultModel() *fault.Model { return m.multi.cfg.FaultModel }

// Accessors for the shared state; algorithm code reads these the way
// the paper's tooling reads rdtsc and the PMC kernel module.

// Core returns this front-end's core index: 0 on a single-core
// machine, the position in the NewMulti core list otherwise.
func (m *Machine) Core() int { return m.core }

// Clock returns this core's cycle clock.
//
//pthammer:noalloc
func (m *Machine) Clock() *timing.Clock { return m.clock }

// Counters returns the machine's performance-counter bank.
func (m *Machine) Counters() *perf.Counters { return m.counters }

// Memory returns the backing physical memory.
func (m *Machine) Memory() *phys.Memory { return m.mem }

// Caches returns the cache hierarchy.
func (m *Machine) Caches() *cache.Hierarchy { return m.caches }

// TLB returns the TLB chain.
func (m *Machine) TLB() *tlb.TLB { return m.tlb }

// Walker returns the hardware page walker.
func (m *Machine) Walker() *ptwalk.Walker { return m.walker }

// PageTables returns the machine's page tables.
func (m *Machine) PageTables() *pagetable.Tables { return m.tables }

// Config returns the configuration the machine was built with.
func (m *Machine) Config() Config { return m.multi.cfg.Config }
