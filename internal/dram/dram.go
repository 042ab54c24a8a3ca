// Package dram models the DRAM subsystem as channels × ranks × banks,
// each bank with one open-row buffer. Every access resolves to a
// (channel, rank, bank, row, column) location; the row-buffer outcome
// (hit, closed, conflict) decides the latency charged and whether a row
// activation (ACT) fires. Activations are counted per bank row within
// the current refresh window — the quantity the rowhammer threshold is
// defined over (paper §2, Blacksmith-style activation budgeting).
//
// Lookup is the terminal hop of every simulated load, so it is written
// to cost a handful of array operations: the address decode is pure
// shift/mask on power-of-two geometries, activation counts live in
// dense per-bank arrays with epoch-tagged lazy reset (no maps, no
// per-window reallocation), and window rotation touches only bank
// headers.
package dram

import (
	"fmt"
	"iter"
	"math/bits"
	"sort"

	"pthammer/internal/mem"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// Config fixes the DRAM geometry, timing window, and hammer threshold
// for one simulated machine.
type Config struct {
	// Geometry. Capacity is Channels*RanksPerChannel*BanksPerRank*
	// Rows*RowBytes and must cover the machine's physical memory.
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	// Rows is the number of rows per bank.
	Rows uint64
	// RowBytes is the row-buffer size (column span) in bytes.
	RowBytes uint64

	// RefreshWindow is the refresh interval (tREFW, typically 64 ms) in
	// cycles. Activation counts reset and all banks precharge when the
	// clock crosses a window boundary. Zero disables windowing (counts
	// accumulate forever) — useful in tests.
	RefreshWindow timing.Cycles

	// HammerThreshold is the number of aggressor-row activations within
	// one refresh window past which an adjacent victim row is considered
	// hammer-eligible (can be induced to flip bits).
	HammerThreshold uint64
}

// Validate reports an error if the geometry is degenerate.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.RanksPerChannel <= 0 || c.BanksPerRank <= 0:
		return fmt.Errorf("dram: channels/ranks/banks must be positive (got %d/%d/%d)",
			c.Channels, c.RanksPerChannel, c.BanksPerRank)
	case c.Rows == 0:
		return fmt.Errorf("dram: rows per bank must be positive")
	case c.RowBytes == 0 || c.RowBytes%phys.FrameSize != 0:
		return fmt.Errorf("dram: row bytes %d must be a positive multiple of the %d-byte frame", c.RowBytes, phys.FrameSize)
	case c.HammerThreshold == 0:
		return fmt.Errorf("dram: hammer threshold must be positive")
	}
	return nil
}

// TotalBanks returns the number of banks across all channels and ranks.
func (c Config) TotalBanks() int {
	return c.Channels * c.RanksPerChannel * c.BanksPerRank
}

// Capacity returns the total DRAM capacity in bytes.
func (c Config) Capacity() uint64 {
	return uint64(c.TotalBanks()) * c.Rows * c.RowBytes
}

// Location is a fully decoded DRAM address.
type Location struct {
	Channel int
	Rank    int
	Bank    int // bank index within the rank
	Row     uint64
	Col     uint64 // byte offset within the row
}

// SameBank reports whether l and o name the same bank: channel, rank
// and bank index all equal.
func (l Location) SameBank(o Location) bool {
	return l.Channel == o.Channel && l.Rank == o.Rank && l.Bank == o.Bank
}

// Pairs yields every pair of locations in the same bank on different
// rows, as indices into locs with the lower row first. Pairs come in
// scan order — (i, j) for i < j, i-major — which is the deterministic
// tie-break every aggressor-pair finder builds its policy on.
func Pairs(locs []Location) iter.Seq2[int, int] {
	return func(yield func(lo, hi int) bool) {
		for i := range locs {
			for j := i + 1; j < len(locs); j++ {
				a, b := locs[i], locs[j]
				if !a.SameBank(b) || a.Row == b.Row {
					continue
				}
				lo, hi := i, j
				if a.Row > b.Row {
					lo, hi = j, i
				}
				if !yield(lo, hi) {
					return
				}
			}
		}
	}
}

// globalBank flattens (channel, rank, bank) into one index.
func (c Config) globalBank(l Location) int {
	return (l.Bank*c.RanksPerChannel+l.Rank)*c.Channels + l.Channel
}

// locOfGlobalBank is the inverse of globalBank (row/col left zero). It
// is the single source of truth for the bank decode; Map builds on it.
func (c Config) locOfGlobalBank(gb int) Location {
	return Location{
		Channel: gb % c.Channels,
		Rank:    gb / c.Channels % c.RanksPerChannel,
		Bank:    gb / c.Channels / c.RanksPerChannel,
	}
}

// decoder holds the precomputed address→(global bank, row, col)
// mapping. When both RowBytes and the total bank count are powers of
// two — true of the SandyBridge preset's 8192-byte rows × 16 banks —
// the decode is three shifts and two masks; otherwise it falls back to
// the generic div/mod path. It also produces the flattened global bank
// index directly, so the per-access path never expands to a Location
// and re-flattens it.
type decoder struct {
	rowBytes uint64
	banks    uint64
	rows     uint64
	capacity uint64

	pow2      bool
	rowShift  uint
	colMask   uint64
	bankShift uint
	bankMask  uint64
}

// newDecoder precomputes the decode constants for the geometry.
func (c Config) newDecoder() decoder {
	d := decoder{
		rowBytes: c.RowBytes,
		banks:    uint64(c.TotalBanks()),
		rows:     c.Rows,
		capacity: c.Capacity(),
	}
	if c.RowBytes&(c.RowBytes-1) == 0 && d.banks&(d.banks-1) == 0 {
		d.pow2 = true
		d.rowShift = uint(bits.TrailingZeros64(c.RowBytes))
		d.colMask = c.RowBytes - 1
		d.bankShift = uint(bits.TrailingZeros64(d.banks))
		d.bankMask = d.banks - 1
	}
	return d
}

// decode splits a physical address into its flattened global bank,
// row, and column. Panics if the address is beyond the configured
// capacity: callers are simulated hardware, and an out-of-range access
// is a simulator bug.
//
//pthammer:noalloc
func (d *decoder) decode(a phys.Addr) (gb int, row, col uint64) {
	if d.pow2 {
		block := uint64(a) >> d.rowShift
		gb = int(block & d.bankMask)
		row = block >> d.bankShift
		col = uint64(a) & d.colMask
	} else {
		block := uint64(a) / d.rowBytes
		gb = int(block % d.banks)
		row = block / d.banks
		col = uint64(a) % d.rowBytes
	}
	if row >= d.rows {
		panic(fmt.Sprintf("dram: address %#x beyond capacity %#x", uint64(a), d.capacity))
	}
	return gb, row, col
}

// Map decodes a physical address into its DRAM location. Consecutive
// row-sized blocks interleave across channels, then ranks, then banks —
// the simple open-mapping used by the paper's test machines once the
// (reverse-engineered) bank functions are applied. Panics if the
// address is beyond the configured capacity. Map builds its decoder on
// the fly; the per-access hot path in Lookup uses the one cached at New.
func (c Config) Map(a phys.Addr) Location {
	dec := c.newDecoder()
	gb, row, col := dec.decode(a)
	loc := c.locOfGlobalBank(gb)
	loc.Row = row
	loc.Col = col
	return loc
}

// AddrOf is the inverse of Map: the physical address of a location.
// Tests use it to construct same-bank different-row aggressor pairs.
func (c Config) AddrOf(l Location) phys.Addr {
	block := l.Row*uint64(c.TotalBanks()) + uint64(c.globalBank(l))
	return phys.Addr(block*c.RowBytes + l.Col)
}

// RowRange enumerates the physical addresses backed by one DRAM row:
// the base address of (channel, rank, bank, row) at column 0 and the
// row-buffer span in bytes. Under the open mapping a row is one
// contiguous RowBytes-sized block, so [start, start+bytes) is exactly
// the cells a disturbance error in that row can corrupt — the range
// the flip engine samples victim bytes from.
func (c Config) RowRange(channel, rank, bank int, row uint64) (start phys.Addr, bytes uint64) {
	loc := Location{Channel: channel, Rank: rank, Bank: bank, Row: row}
	return c.AddrOf(loc), c.RowBytes
}

// bank is the per-bank state: the open row and this refresh window's
// activation counts. Counts live in dense per-row arrays tagged with
// the window epoch they were written in — a stale tag reads as zero —
// so rotating the refresh window never clears or reallocates them.
type bank struct {
	// openRow is the row latched in the row buffer, or -1 when the bank
	// is precharged.
	openRow int64
	// lastCore is the core whose request this bank serviced most
	// recently, -1 before the first. A request from a different core
	// pays the bank-arbitration cost (the scheduler switching request
	// streams), so a single-core machine can never be charged.
	lastCore int
	// acts[row] is the row's ACT count, valid only when epoch[row]
	// matches the DRAM's current window epoch.
	acts []uint64
	// epoch[row] tags which refresh window acts[row] belongs to.
	epoch []uint64
	// touched lists the rows activated in the current window, in
	// first-activation order. Truncated (capacity kept) on rotation.
	touched []uint64
}

// DRAM is the terminal memory device of the hierarchy: the cross-core
// shared state (banks, activation bookkeeping, the refresh window).
// Cores reach it through Port values — DRAM itself is a mem.Device
// only by delegating to its default port (core 0), which keeps the
// single-core wiring unchanged.
type DRAM struct {
	cfg Config
	dec decoder
	// def is the default port (core 0): the device the single-core
	// machine wires into the cache hierarchy, and the clock bookkeeping
	// methods on DRAM itself charge into.
	def *Port

	rowHit      timing.Cycles
	rowClosed   timing.Cycles
	rowConflict timing.Cycles
	bankArb     timing.Cycles

	banks       []bank
	windowStart timing.Cycles
	// windowEpoch is the tag activations written in the current refresh
	// window carry; rotating the window just increments it. Starts at 1
	// so the zero value in bank.epoch always reads as stale.
	windowEpoch uint64
	// hook, when set, receives the ended window's Stats every time the
	// refresh window rotates naturally (the clock crossing a boundary).
	// This is the flip engine's subscription point.
	hook func(Stats)

	// Scratch buffers reused across HammerStats calls so computing
	// victim pressure never allocates proportionally to activity.
	scratchPressure []uint64 // rows long; always all-zero between banks
	scratchRows     []uint64 // candidate victim rows for the bank in hand
	scratchVictims  []Victim // accumulated victims before the caller copy
}

// New builds the DRAM device. Latencies come from the machine's
// LatencyTable; the clock and counters are the machine-wide shared
// instances every device charges into. Activation bookkeeping is
// allocated up front (O(banks × rows) words) so the per-access path
// never allocates.
func New(cfg Config, clock *timing.Clock, counters *perf.Counters, lat timing.LatencyTable) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	if clock == nil || counters == nil {
		return nil, fmt.Errorf("dram: clock and counters must be non-nil")
	}
	d := &DRAM{
		cfg:             cfg,
		dec:             cfg.newDecoder(),
		rowHit:          lat.DRAMRowHit,
		rowClosed:       lat.DRAMRowClosed,
		rowConflict:     lat.DRAMRowConflict,
		bankArb:         lat.DRAMBankArbitration,
		banks:           make([]bank, cfg.TotalBanks()),
		windowStart:     clock.Now(),
		windowEpoch:     1,
		scratchPressure: make([]uint64, cfg.Rows),
	}
	for i := range d.banks {
		d.banks[i] = bank{
			openRow:  -1,
			lastCore: -1,
			acts:     make([]uint64, cfg.Rows),
			epoch:    make([]uint64, cfg.Rows),
		}
	}
	d.def = &Port{d: d, core: 0, clock: clock, counters: counters}
	return d, nil
}

// Port is one core's view of the shared DRAM: it carries the core's
// identity, clock and counters, so every latency the shared banks
// produce — including bank arbitration against another core's request
// stream — is charged to the core that issued the access, keeping the
// clock/Result/PMC agreement per core. A single-core machine uses the
// default port DRAM builds for itself.
type Port struct {
	d        *DRAM
	core     int
	clock    *timing.Clock
	counters *perf.Counters
}

// NewPort attaches a core's front-end to the shared DRAM. The default
// port is core 0; additional cores take distinct indices so the
// per-bank arbitration bookkeeping can tell their request streams
// apart.
func (d *DRAM) NewPort(core int, clock *timing.Clock, counters *perf.Counters) (*Port, error) {
	if clock == nil || counters == nil {
		return nil, fmt.Errorf("dram: port clock and counters must be non-nil")
	}
	if core < 0 {
		return nil, fmt.Errorf("dram: port core index %d must be non-negative", core)
	}
	return &Port{d: d, core: core, clock: clock, counters: counters}, nil
}

// DRAM returns the shared device this port accesses.
func (p *Port) DRAM() *DRAM { return p.d }

// Core returns the port's core index.
func (p *Port) Core() int { return p.core }

// Config returns the geometry the device was built with.
func (d *DRAM) Config() Config { return d.cfg }

// Lookup services one memory access through the default (core 0)
// port; the port's Lookup charges the full latency to that port's
// clock before this method returns.
//
//pthammer:noalloc
func (d *DRAM) Lookup(a mem.Access) mem.Result {
	res := d.def.Lookup(a)
	return res
}

// Lookup services one memory access at a bank. It charges the
// row-buffer-outcome latency — plus the bank-arbitration cost when the
// bank last serviced a different core — to the port's clock, counts
// activations and conflicts against the port's counters, and reports
// Hit for row-buffer hits.
//
//pthammer:noalloc
func (p *Port) Lookup(a mem.Access) mem.Result {
	d := p.d
	d.rotateWindow(p.clock.Now(), p.core)
	gb, row, _ := d.dec.decode(a.Addr)
	b := &d.banks[gb]

	var lat timing.Cycles
	rowHit := false
	switch {
	case b.openRow == int64(row):
		lat = d.rowHit
		rowHit = true
	case b.openRow < 0:
		lat = d.rowClosed
		d.activate(b, row, p.counters)
	default:
		lat = d.rowConflict
		p.counters.Inc(perf.DRAMRowConflicts)
		d.activate(b, row, p.counters)
	}
	if b.lastCore != p.core {
		if b.lastCore >= 0 {
			lat += d.bankArb
		}
		b.lastCore = p.core
	}
	p.clock.Advance(lat)
	return mem.Result{Latency: lat, Hit: rowHit, Source: mem.LevelDRAM}
}

// activate latches row into the bank's row buffer and counts the ACT
// against the accessing core's counters. A row first touched this
// window has its stale count lazily reset.
//
//pthammer:noalloc
func (d *DRAM) activate(b *bank, row uint64, counters *perf.Counters) {
	b.openRow = int64(row)
	if b.epoch[row] == d.windowEpoch {
		b.acts[row]++
	} else {
		b.epoch[row] = d.windowEpoch
		b.acts[row] = 1
		b.touched = append(b.touched, row) //pthammer:alloc-ok amortized: capacity is retained across window rotations
	}
	counters.Inc(perf.DRAMActivate)
}

// SetWindowHook subscribes fn to end-of-refresh-window reports: every
// natural rotation (the clock crossing a window boundary) delivers the
// ended window's Stats, computed just before the counters reset. The
// flip engine is the intended subscriber — victim reports arrive at
// refresh time, which is when accumulated disturbance either flips
// cells or is wiped by the refresh. The hook runs after the window has
// rotated, so it may read the device (Activations, HammerStats) and
// sees the fresh window; it fires only for windows with activity.
// ResetWindow discards a window without firing it. A nil fn
// unsubscribes.
func (d *DRAM) SetWindowHook(fn func(Stats)) { d.hook = fn }

// rotateWindow resets activation bookkeeping when the clock has crossed
// a refresh-window boundary. Refresh also precharges every bank, so
// open rows close. Bumping the window epoch invalidates every count at
// once; per-bank work is just the row-buffer close and truncating the
// touched list (capacity retained), so rotation is O(banks) with zero
// allocation no matter how many rows were hammered — unless a window
// hook is subscribed, in which case the ended window's Stats are
// computed (O(touched rows)) and delivered first. Rotation is lazy:
// everything counted since the previous rotation is attributed to the
// window that just ended, however many boundaries have elapsed.
//
// now is the accessing core's clock and core its index. Under the
// multi-core interleaver grant-time clocks are nondecreasing, but a
// core can still read the device between grants of faster cores whose
// accesses already pushed windowStart past it — the guard below simply
// leaves the window alone until some core's clock catches up, instead
// of letting the unsigned subtraction wrap.
//
//pthammer:noalloc
func (d *DRAM) rotateWindow(now timing.Cycles, core int) {
	w := d.cfg.RefreshWindow
	if w == 0 {
		return
	}
	if now < d.windowStart {
		return
	}
	elapsed := now - d.windowStart
	if elapsed < w {
		return
	}
	var ended Stats
	fire := false
	if d.hook != nil {
		for i := range d.banks {
			if len(d.banks[i].touched) > 0 {
				fire = true
				break
			}
		}
		if fire {
			ended = d.stats() //pthammer:alloc-ok end-of-window report, off the per-access steady state
			ended.Core = core
		}
	}
	d.windowStart += (elapsed / w) * w
	d.windowEpoch++
	for i := range d.banks {
		d.banks[i].openRow = -1
		d.banks[i].touched = d.banks[i].touched[:0]
	}
	if fire {
		d.hook(ended) //pthammer:alloc-ok subscriber callback, fires at most once per refresh window
	}
}

// ResetWindow discards the current refresh window: activation counts
// and victim pressure drop to zero and every bank precharges, exactly
// as if a refresh had just completed — but the window hook does not
// fire, so no flips can result from the discarded activity. Callers
// use it to scrub construction traffic (demand-allocation loads,
// eviction-set build probes) out of the bookkeeping before a measured
// hammer phase starts from a clean window.
func (d *DRAM) ResetWindow() { d.def.ResetWindow() }

// ResetWindow is DRAM.ResetWindow anchored at this port's clock: the
// fresh window starts at the resetting core's current cycle reading.
//
//pthammer:noalloc
func (p *Port) ResetWindow() {
	d := p.d
	d.windowStart = p.clock.Now()
	d.windowEpoch++
	for i := range d.banks {
		d.banks[i].openRow = -1
		d.banks[i].touched = d.banks[i].touched[:0]
	}
}

// Reset recycles the device for the next cohort (the Reset/Recycle
// contract): everything ResetWindow discards, plus the cross-window
// state a fresh device starts with — per-bank lastCore arbitration
// bookkeeping back to -1, so the first access of the next cohort pays
// no stale cross-core bank-arbitration charge. The window hook stays
// subscribed (the flip model is recycled separately, not re-bound).
//
// Cost is O(banks + touched rows), never O(rows): stale per-row ACT
// counts are invalidated by the epoch bump exactly as on a window
// rotation, not scrubbed. The dram-recycle-reset bench scenario pins
// this — a recycle that walks the row arrays would regress it by
// orders of magnitude on a large-geometry module.
func (d *DRAM) Reset() { d.def.Reset() }

// Reset is DRAM.Reset anchored at this port's clock: the recycled
// device's first window starts at the resetting core's current cycle
// reading (a machine recycle rebases that clock to 0 first, matching a
// fresh device's construction-time anchor).
//
//pthammer:noalloc
func (p *Port) Reset() {
	d := p.d
	d.windowStart = p.clock.Now()
	d.windowEpoch++
	for i := range d.banks {
		b := &d.banks[i]
		b.openRow = -1
		b.lastCore = -1
		b.touched = b.touched[:0]
	}
}

// actsOf returns the current-window activation count of a row, reading
// stale epochs as zero.
func (b *bank) actsOf(row, epoch uint64) uint64 {
	if b.epoch[row] != epoch {
		return 0
	}
	return b.acts[row]
}

// Activations returns how many times the given row of the given bank
// location has been activated in the current refresh window, checking
// for rotation against the default port's clock.
func (d *DRAM) Activations(l Location) uint64 { return d.def.Activations(l) }

// Activations is DRAM.Activations with rotation checked against this
// port's clock.
func (p *Port) Activations(l Location) uint64 {
	d := p.d
	d.rotateWindow(p.clock.Now(), p.core)
	return d.banks[d.cfg.globalBank(l)].actsOf(l.Row, d.windowEpoch)
}

// Victim is a row whose neighbours have been activated enough this
// refresh window to make disturbance errors plausible.
type Victim struct {
	Channel int
	Rank    int
	Bank    int
	Row     uint64
	// Pressure is the summed activations of the two adjacent rows
	// within the current refresh window.
	Pressure uint64
}

// Stats summarises hammer-relevant DRAM activity in the current
// refresh window.
type Stats struct {
	// WindowStart is the cycle the current refresh window began.
	WindowStart timing.Cycles
	// Core identifies the request stream the report is attributed to:
	// in end-of-window hook reports, the core whose access crossed the
	// window boundary and triggered the rotation; from Port.HammerStats,
	// the asking port's core. Always 0 on a single-core machine.
	Core int
	// Activations is the total ACT count across all banks this window.
	Activations uint64
	// Victims lists rows whose adjacent-row activation pressure meets
	// the hammer threshold, most pressured first. The slice is owned by
	// the caller: it is freshly allocated on every call and never
	// aliases internal scratch state, so it stays valid across later
	// HammerStats calls.
	Victims []Victim
}

// HammerStats computes which rows are hammer-eligible right now. A row
// v is eligible when activations(v-1) + activations(v+1) within the
// current refresh window reach the configured threshold — double-sided
// hammering contributes from both sides, single-sided from one.
//
// The computation walks only the rows actually activated this window,
// accumulating neighbour pressure in a scratch buffer reused across
// calls, so its cost is O(touched rows), independent of the geometry.
func (d *DRAM) HammerStats() Stats { return d.def.HammerStats() }

// HammerStats is DRAM.HammerStats with rotation checked against this
// port's clock; the returned Stats carry this port's core index.
func (p *Port) HammerStats() Stats {
	d := p.d
	d.rotateWindow(p.clock.Now(), p.core)
	s := d.stats()
	s.Core = p.core
	return s
}

// stats computes the current window's Stats without checking for
// rotation — the shared body of HammerStats and the end-of-window
// report rotateWindow hands the hook.
func (d *DRAM) stats() Stats {
	s := Stats{WindowStart: d.windowStart}
	d.scratchVictims = d.scratchVictims[:0]
	for gb := range d.banks {
		b := &d.banks[gb]
		if len(b.touched) == 0 {
			continue
		}
		press := d.scratchPressure
		cand := d.scratchRows[:0]
		for _, row := range b.touched {
			n := b.acts[row]
			s.Activations += n
			if row > 0 {
				if press[row-1] == 0 {
					cand = append(cand, row-1)
				}
				press[row-1] += n
			}
			if row+1 < d.cfg.Rows {
				if press[row+1] == 0 {
					cand = append(cand, row+1)
				}
				press[row+1] += n
			}
		}
		loc := d.cfg.locOfGlobalBank(gb)
		for _, row := range cand {
			p := press[row]
			press[row] = 0 // restore the all-zero invariant for the next bank
			if p < d.cfg.HammerThreshold {
				continue
			}
			d.scratchVictims = append(d.scratchVictims, Victim{
				Channel: loc.Channel, Rank: loc.Rank, Bank: loc.Bank,
				Row: row, Pressure: p,
			})
		}
		d.scratchRows = cand[:0]
	}
	// Total order (pressure desc, then location) so victim lists are
	// deterministic despite per-bank append order.
	sort.Slice(d.scratchVictims, func(i, j int) bool {
		a, b := d.scratchVictims[i], d.scratchVictims[j]
		switch {
		case a.Pressure != b.Pressure:
			return a.Pressure > b.Pressure
		case a.Channel != b.Channel:
			return a.Channel < b.Channel
		case a.Rank != b.Rank:
			return a.Rank < b.Rank
		case a.Bank != b.Bank:
			return a.Bank < b.Bank
		default:
			return a.Row < b.Row
		}
	})
	// Copy out of scratch: the caller owns Stats.Victims.
	s.Victims = append([]Victim(nil), d.scratchVictims...)
	return s
}
