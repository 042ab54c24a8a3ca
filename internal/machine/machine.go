// Package machine is the facade over the whole simulated memory
// hierarchy. machine.New wires one phys.Memory, one timing.Clock, one
// perf.Counters bank, and the device chain — dTLB → sTLB → hardware
// page walker for translation, L1 → L2 → LLC → DRAM banks for data —
// so that a single Load traverses every level exactly the way the
// paper's measured loads do, and clock deltas agree with counter
// deltas by construction. Every later algorithm PR (eviction sets,
// Figure 5/6 sweeps, the hammer loop) programs against this type.
//
// Translation is real: the machine reserves the top of physical
// memory as the kernel's page-table pool, identity-maps pages there on
// first touch (demand paging), and the walker fetches the actual PTE
// bytes through the cache hierarchy as mem.KindPTEFetch accesses — so
// a TLB-missing load opens DRAM rows in the table region exactly the
// way PThammer's implicit accesses do.
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

// Config fully describes one simulated machine.
type Config struct {
	// MemBytes is the physical memory size; it must equal the DRAM
	// geometry's capacity so every physical address maps to a bank.
	MemBytes uint64
	// FreqHz is the core clock frequency.
	FreqHz uint64

	Lat  timing.LatencyTable
	DRAM dram.Config
	L1   cache.Config
	L2   cache.Config
	LLC  cache.Config
	TLB  tlb.Config
	// Walk sizes the walker's paging-structure caches; the zero value
	// selects ptwalk.Defaults.
	Walk ptwalk.Config

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
// dTLB over a 512-entry sTLB, and a 64 ms refresh window at 3.4 GHz.
func SandyBridge() Config {
	const freq = 3_400_000_000
	return Config{
		MemBytes: 1 << 30,
		FreqHz:   freq,
		Lat:      timing.DefaultLatencies(),
		DRAM: dram.Config{
			Channels:        2,
			RanksPerChannel: 1,
			BanksPerRank:    8,
			Rows:            8192,
			RowBytes:        8192,
			// 64 ms at 3.4 GHz.
			RefreshWindow: timing.Cycles(freq * 64 / 1000),
			// First-flip activation count reported for the paper's
			// weakest module class.
			HammerThreshold: 139_000,
		},
		L1:  cache.Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L2:  cache.Config{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64},
		LLC: cache.Config{SizeBytes: 8 << 20, Ways: 16, LineBytes: 64},
		TLB: tlb.Config{L1Entries: 64, L1Ways: 4, L2Entries: 512, L2Ways: 4},
	}
}

// Machine owns one core's front-end — clock, counters, TLB chain,
// walker, private cache levels — plus handles to the state it shares
// with any co-resident cores: physical memory, the inclusive LLC, the
// banked DRAM, and its address space's page tables. A single-core
// machine (New) owns all of that state outright; NewMulti builds N
// Machines over one shared memory system.
type Machine struct {
	cfg      Config
	core     int
	mem      *phys.Memory
	clock    *timing.Clock
	noise    *timing.Noise
	counters *perf.Counters

	tlb    *tlb.TLB
	walker *ptwalk.Walker
	tables *pagetable.Tables
	caches *cache.Hierarchy
	dram   *dram.DRAM
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
	if err := cfg.DRAM.Validate(); err != nil {
		return err
	}
	if cap := cfg.DRAM.Capacity(); cap != cfg.MemBytes {
		return fmt.Errorf("machine: DRAM capacity %d != memory size %d", cap, cfg.MemBytes)
	}
	return nil
}

// New validates the config and wires a single-core machine: the core's
// front-end built by buildCore over memory, LLC and DRAM it has all to
// itself, with the page-table pool contiguous at the top of physical
// memory — the layout every single-core scenario and benchmark is
// calibrated against.
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pmem, err := phys.New(cfg.MemBytes)
	if err != nil {
		return nil, err
	}
	clock, err := timing.NewClock(cfg.FreqHz)
	if err != nil {
		return nil, err
	}
	counters := &perf.Counters{}
	d, err := dram.New(cfg.DRAM, clock, counters, cfg.Lat)
	if err != nil {
		return nil, err
	}
	shared, err := cache.NewShared(cfg.LLC, cfg.Lat)
	if err != nil {
		return nil, err
	}
	// The kernel's page-table pool sits at the top of physical memory,
	// sized so identity-mapping the whole machine can never exhaust it.
	tableFrames := pagetable.FramesToMap(cfg.MemBytes)
	totalFrames := cfg.MemBytes / phys.FrameSize
	if tableFrames >= totalFrames {
		return nil, fmt.Errorf("machine: %d-byte memory too small for its %d-frame page-table pool",
			cfg.MemBytes, tableFrames)
	}
	tables, err := pagetable.New(pmem, phys.Frame(totalFrames-tableFrames), tableFrames)
	if err != nil {
		return nil, err
	}
	m, err := buildCore(cfg, 0, pmem, clock, counters, d, shared, tables)
	if err != nil {
		return nil, err
	}
	if err := bindModels(cfg, pmem, d); err != nil {
		return nil, err
	}
	return m, nil
}

// buildCore wires one core's front-end — noise source, DRAM port,
// private cache levels over the shared LLC, page walker and TLB chain
// — charging everything to the given clock and counters. The caller
// owns the shared pieces (memory, DRAM, LLC, the core's address-space
// tables) and binds any flip/fault models afterwards.
func buildCore(cfg Config, core int, pmem *phys.Memory, clock *timing.Clock, counters *perf.Counters, d *dram.DRAM, shared *cache.SharedLLC, tables *pagetable.Tables) (*Machine, error) {
	// Offset the seed per core so noisy cores draw independent spike
	// streams; with NoiseProb 0 (the multi-core determinism default)
	// the source is never sampled.
	noise, err := timing.NewNoise(cfg.NoiseSeed+int64(core), cfg.NoiseProb, cfg.NoiseMin, cfg.NoiseMax)
	if err != nil {
		return nil, err
	}
	dport, err := d.NewPort(core, clock, counters)
	if err != nil {
		return nil, err
	}
	caches, err := cache.NewCore(cfg.L1, cfg.L2, shared, core, dport, clock, counters, cfg.Lat)
	if err != nil {
		return nil, err
	}
	walker, err := ptwalk.New(cfg.Walk, tables, caches, pmem, clock, counters, cfg.Lat)
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
		cfg:      cfg,
		core:     core,
		mem:      pmem,
		clock:    clock,
		noise:    noise,
		counters: counters,
		tlb:      t,
		walker:   walker,
		tables:   tables,
		caches:   caches,
		dram:     d,
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
func (m *Machine) access(a phys.Addr, kind mem.Kind) (phys.Addr, mem.Result) {
	if !m.mem.Contains(a) {
		panic(fmt.Sprintf("machine: %v at %#x outside %d-byte memory", kind, uint64(a), m.mem.Size()))
	}
	frame, tres := m.tlb.Translate(mem.Access{Addr: a, Kind: kind})
	pa := frame.Addr() + phys.Addr(phys.Offset(a))
	if !m.mem.Contains(pa) {
		panic(fmt.Sprintf("machine: %#x translates to %#x outside %d-byte memory (corrupted page tables?)",
			uint64(a), uint64(pa), m.mem.Size()))
	}
	cres := m.caches.Lookup(mem.Access{Addr: pa, Kind: kind})
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
	_, res := m.access(a, mem.KindLoad)
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
	pa, res := m.access(a, mem.KindStore)
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
	return m.tlb.Translate(mem.Access{Addr: a, Kind: mem.KindLoad})
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
	fm := m.cfg.FaultModel
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
		if extra := m.cfg.FaultModel.ProbeJitter(); extra > 0 {
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
// privileged-operation counters zeroed. Shared state (LLC, DRAM,
// physical memory, page tables, models) is deliberately not touched —
// on a multi-core machine it must be reset exactly once, by the owner
// of the whole machine.
func (m *Machine) resetFrontEnd() {
	m.clock.Reset()
	m.counters.Reset()
	m.noise.ResetTo(m.cfg.NoiseSeed + int64(m.core))
	m.tlb.Reset()
	m.walker.Reset()
	m.caches.Reset()
	m.privFlushes, m.privInvlpgs = 0, 0
}

// resetShared rewinds the memory system this machine fronts: the
// shared LLC, the DRAM device (window, per-row ACT epochs, bank
// arbitration), physical memory (all frames back to holes), and the
// page-table pool (scrubbed, re-bump-allocatable, fresh root). Order
// matters: the DRAM reset anchors its new window at this core's
// already-rebased clock, and memory is reset before the tables so the
// re-allocated root is the only frame the recycled machine
// materializes — exactly what a fresh construction materializes.
func (m *Machine) resetShared() {
	m.caches.Shared().Reset()
	m.dport.Reset()
	m.mem.Reset()
	m.tables.Reset()
}

// Reset recycles a single-core machine under the Reset/Recycle
// contract (CONTRIBUTING.md): after Reset, the machine is
// observationally identical to a freshly constructed machine.New(cfg)
// — same clock base, counters, cache/TLB/walker state, DRAM window
// bookkeeping, hole-only memory, one-root page tables, and rewound
// flip/fault models (still bound, streams reseeded). The
// reset-equivalence difftest in machine_reset_test.go pins the
// contract: recycled and fresh machines produce bit-identical
// Clock/PMC/HammerStats/Flips traces for the same workload.
//
// Reset is for machines that own their whole memory system (built with
// New). Cores of a MultiMachine share theirs; recycle those with
// MultiMachine.Reset instead.
func (m *Machine) Reset() {
	m.resetFrontEnd()
	m.resetShared()
	if m.cfg.FlipModel != nil {
		m.cfg.FlipModel.Reset()
	}
	if m.cfg.FaultModel != nil {
		m.cfg.FaultModel.Reset()
	}
}

// ResetWithNoiseSeed is Reset with a new noise seed: the recycled
// machine is observationally identical to a fresh machine.New(cfg) with
// cfg.NoiseSeed = seed, and Config reports that seed. The noise stream
// is seeded once, at seed + core as construction seeds it. The sweep
// engine recycles one machine per worker through it, each shard
// bringing its own seed.
func (m *Machine) ResetWithNoiseSeed(seed int64) {
	m.cfg.NoiseSeed = seed
	m.Reset()
}

// Flips returns the disturbance errors the configured flip model has
// produced so far, in occurrence order, or nil when the machine was
// built without a FlipModel. The slice is the model's own record:
// callers must not mutate it.
func (m *Machine) Flips() []flip.Flip {
	if m.cfg.FlipModel == nil {
		return nil
	}
	return m.cfg.FlipModel.Flips()
}

// FlipModel returns the machine's disturbance-error engine, nil when
// none was configured.
func (m *Machine) FlipModel() *flip.Model { return m.cfg.FlipModel }

// FaultModel returns the machine's fault-injection engine, nil when the
// machine runs fault-free.
func (m *Machine) FaultModel() *fault.Model { return m.cfg.FaultModel }

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

// DRAM returns the DRAM device (for address mapping and stats).
func (m *Machine) DRAM() *dram.DRAM { return m.dram }

// Caches returns the cache hierarchy.
func (m *Machine) Caches() *cache.Hierarchy { return m.caches }

// TLB returns the TLB chain.
func (m *Machine) TLB() *tlb.TLB { return m.tlb }

// Walker returns the hardware page walker.
func (m *Machine) Walker() *ptwalk.Walker { return m.walker }

// PageTables returns the machine's page tables.
func (m *Machine) PageTables() *pagetable.Tables { return m.tables }

// Config returns the configuration the machine was built with.
func (m *Machine) Config() Config { return m.cfg }
