// Package dram models the DRAM subsystem as channels × ranks × banks,
// each bank with one open-row buffer. Every access resolves to a
// (channel, rank, bank, row, column) location; the row-buffer outcome
// (hit, closed, conflict) decides the latency charged and whether a row
// activation (ACT) fires. Activations are counted per bank row within
// the current refresh window — the quantity the rowhammer threshold is
// defined over (paper §2, Blacksmith-style activation budgeting).
//
// The banks are shared by every core, and each core reaches them only
// through its own Port, which charges that core's clock and counters:
// accesses, window discards, recycles and pressure reads all go through
// a Port. Port.Lookup is the terminal hop of every simulated load, so
// it is written to cost a handful of array operations: the address
// decode is pure shift/mask on power-of-two geometries, and activation
// counts live in one two-level sparse.Array over every bank row, found
// in two dependent loads and no branch (no maps, no per-window
// reallocation). The host cost is 4 B per sparse.ChunkLen bank rows
// (the directory) and 512 B per chunk of sparse.ChunkLen rows of one
// bank once any of them is activated — nothing per modelled row. A
// count is zero for every row off its bank's touched list, so window
// turnover and a recycle zero just the rows the ended window touched —
// O(banks + touched rows), never O(rows) — and victim pressure is read
// straight from the neighbours' counts, O(touched rows).
package dram

import (
	"cmp"
	"fmt"
	"iter"
	"math/bits"
	"slices"

	"pthammer/internal/mem"
	"pthammer/internal/perf"
	"pthammer/internal/phys"
	"pthammer/internal/sparse"
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

// MaxBanks caps a geometry's bank count, channels × ranks × banks per
// rank: New builds every bank up front. A large real system reaches it
// (8 channels × 4 ranks × 32 DDR5 banks is 1,024); the presets sit far
// below it: SandyBridge has 16 banks, and the most the tree builds is
// 48 (the planner oracle's three-rank module).
const MaxBanks = 1 << 10

// MaxCapacity caps a geometry's capacity at 64 GiB. A machine's
// physical memory is its DRAM capacity, and what it still sizes up
// front is two directories: phys's frame directory and the DRAM's row
// directory, 4 B per sparse.ChunkLen frames or rows, at most 512 KiB
// each at the cap. Chunks grow with what a run touches, so the cap
// stays to bound the worst case: a run that writes every frame and
// activates every row materializes 4 B per frame and per row, at most
// 64 MiB of each. The presets sit far below it: SandyBridge is 1 GiB,
// and the largest geometry the tree builds is 4 GiB (8 banks × 65,536
// rows × 8 KiB, dram's recycle tests and the dram-recycle-reset
// scenario).
const MaxCapacity = 1 << 36

// Validate reports an error if the geometry is degenerate or past
// MaxBanks or MaxCapacity.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.RanksPerChannel <= 0 || c.BanksPerRank <= 0:
		return fmt.Errorf("dram: channels/ranks/banks must be positive (got %d/%d/%d)",
			c.Channels, c.RanksPerChannel, c.BanksPerRank)
	case c.Channels > MaxBanks || c.RanksPerChannel > MaxBanks || c.BanksPerRank > MaxBanks ||
		c.TotalBanks() > MaxBanks: // factors within the cap keep TotalBanks from overflowing
		return fmt.Errorf("dram: %d channels × %d ranks × %d banks exceed the %d-bank cap",
			c.Channels, c.RanksPerChannel, c.BanksPerRank, MaxBanks)
	case c.Rows == 0:
		return fmt.Errorf("dram: rows per bank must be positive")
	case c.RowBytes == 0 || c.RowBytes%phys.FrameSize != 0:
		return fmt.Errorf("dram: row bytes %d must be a positive multiple of the %d-byte frame", c.RowBytes, phys.FrameSize)
	case c.HammerThreshold == 0:
		return fmt.Errorf("dram: hammer threshold must be positive")
	}
	// At most MaxBanks banks of at most MaxCapacity bytes each: the
	// last product cannot overflow.
	if hi, bankBytes := bits.Mul64(c.Rows, c.RowBytes); hi != 0 || bankBytes > MaxCapacity ||
		uint64(c.TotalBanks())*bankBytes > MaxCapacity {
		return fmt.Errorf("dram: %d banks × %d rows × %d-byte rows exceed the %d-byte capacity cap",
			c.TotalBanks(), c.Rows, c.RowBytes, uint64(MaxCapacity))
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

// bank is the per-bank state: the open row and the rows activated this
// refresh window, whose counts DRAM.acts holds. A row's count is
// nonzero exactly when the row is on touched, so ending a window zeroes
// only the touched rows and never reallocates.
type bank struct {
	// openRow is the row latched in the row buffer, or -1 when the bank
	// is precharged.
	openRow int64
	// lastCore is the core whose request this bank serviced most
	// recently, -1 before the first. A request from a different core
	// pays the bank-arbitration cost (the scheduler switching request
	// streams), so a single-core machine can never be charged.
	lastCore int
	// base is the index of the bank's row 0 in DRAM.acts.
	base uint64
	// touched lists the rows activated in the current window, in
	// first-activation order. Truncated (capacity kept) on turnover.
	touched []uint64
}

// count returns row's ACT count in b this window: 0 through the
// sentinel chunk for a row in a range never activated.
//
//pthammer:noalloc
func (d *DRAM) count(b *bank, row uint64) uint32 { return d.acts.Get(b.base + row) }

// activate counts an ACT of row, which Lookup has latched into b's row
// buffer; a row's first ACT of the window puts it on touched. It
// reports false, counting nothing, when the row's chunk of counts has
// never been written: Lookup hands that ACT to firstChunkACT. Free of
// calls, activate inlines into Lookup.
//
//pthammer:noalloc
func (d *DRAM) activate(b *bank, row uint64) bool {
	n, ok := d.acts.Inc(b.base + row)
	if n == 0 && ok {
		b.touched = append(b.touched, row) //pthammer:alloc-ok amortized: capacity is retained across window turnovers
	}
	return ok
}

// firstChunkACT counts the first ACT ever into row's chunk of counts:
// it materializes the chunk, so it is reached once per chunk, and puts
// the row on touched with a count of one. It stays out of line, so
// Lookup does not carry the slab's growth code.
//
//go:noinline
//pthammer:noalloc
func (d *DRAM) firstChunkACT(b *bank, row uint64) {
	*d.acts.Ref(b.base + row) = 1
	b.touched = append(b.touched, row) //pthammer:alloc-ok amortized: capacity is retained across window turnovers
}

// endWindow is a refresh of b: the touched rows' counts return to zero,
// the list truncates (capacity kept) and the bank precharges.
//
//pthammer:noalloc
func (d *DRAM) endWindow(b *bank) {
	for _, row := range b.touched {
		d.acts.Clear(b.base + row)
	}
	b.touched = b.touched[:0]
	b.openRow = -1
}

// DRAM is the cross-core shared state of the terminal memory device:
// banks, activation bookkeeping and the refresh window. It is not a
// mem.Device itself; every core reaches it through its own Port.
type DRAM struct {
	cfg Config
	dec decoder

	rowHit      timing.Cycles
	rowClosed   timing.Cycles
	rowConflict timing.Cycles
	bankArb     timing.Cycles

	banks []bank
	// acts holds bank b's row r's ACT count in the current window at
	// banks[b].base + r, saturating at math.MaxUint32; zero for every
	// row not on its bank's touched list. One array serves every bank,
	// so the banks share one sentinel chunk.
	acts        sparse.Array
	windowStart timing.Cycles
	// hook, when set, receives the ended window's Stats every time the
	// refresh window rotates naturally (the clock crossing a boundary).
	// This is the flip engine's subscription point.
	hook func(Stats)

	// scratchVictims accumulates victims across HammerStats calls
	// before the caller's copy, so sorting them never allocates.
	scratchVictims []Victim
}

// New builds the DRAM's shared state. Latencies come from the machine's
// LatencyTable; clocks and counters belong to the cores, which attach
// with NewPort. The first refresh window starts at cycle 0, the reading
// of every fresh clock. New allocates the count array's directory,
// 4 B per sparse.ChunkLen bank rows, and its sentinel chunk; a chunk of
// counts costs host memory only once one of its rows is activated, and
// the per-access path allocates only while the touched lists and the
// chunks first grow.
func New(cfg Config, lat timing.LatencyTable) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	d := &DRAM{
		cfg:         cfg,
		dec:         cfg.newDecoder(),
		rowHit:      lat.DRAMRowHit,
		rowClosed:   lat.DRAMRowClosed,
		rowConflict: lat.DRAMRowConflict,
		bankArb:     lat.DRAMBankArbitration,
		banks:       make([]bank, cfg.TotalBanks()),
		acts:        sparse.Make(uint64(cfg.TotalBanks()) * cfg.Rows),
	}
	for i := range d.banks {
		d.banks[i] = bank{
			openRow:  -1,
			lastCore: -1,
			base:     uint64(i) * cfg.Rows,
		}
	}
	return d, nil
}

// Port is one core's view of the shared DRAM, and the mem.Device that
// core's cache hierarchy forwards misses to: it carries the core's
// identity, clock and counters, so every latency the shared banks
// produce — including bank arbitration against another core's request
// stream — is charged to the core that issued the access, keeping the
// clock/Result/PMC agreement per core.
type Port struct {
	d        *DRAM
	core     int
	clock    *timing.Clock
	counters *perf.Counters
}

// NewPort attaches a core's front-end to the shared DRAM. Cores take
// distinct indices so the per-bank arbitration bookkeeping can tell
// their request streams apart.
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

// Lookup services one memory access at a bank. It charges the
// row-buffer-outcome latency — plus the bank-arbitration cost when the
// bank last serviced a different core — to the port's clock, counts
// activations and conflicts against the port's counters, and reports
// Hit for row-buffer hits.
//
//pthammer:noalloc
func (p *Port) Lookup(a phys.Addr) mem.Result {
	d := p.d
	d.rotateWindow(p.clock.Now(), p.core)
	gb, row, _ := d.dec.decode(a)
	b := &d.banks[gb]

	var lat timing.Cycles
	rowHit := false
	switch {
	case b.openRow == int64(row):
		lat = d.rowHit
		rowHit = true
	case b.openRow < 0:
		lat = d.rowClosed
	default:
		lat = d.rowConflict
		p.counters.Inc(perf.DRAMRowConflicts)
	}
	if !rowHit {
		b.openRow = int64(row)
		if !d.activate(b, row) {
			d.firstChunkACT(b, row)
		}
		p.counters.Inc(perf.DRAMActivate)
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

// SetWindowHook subscribes fn to end-of-refresh-window reports: every
// natural rotation (the clock crossing a window boundary) delivers the
// ended window's Stats, computed just before the counters reset. The
// flip engine is the intended subscriber — victim reports arrive at
// refresh time, which is when accumulated disturbance either flips
// cells or is wiped by the refresh. The hook runs after the window has
// rotated, so it may read the device through a port (Activations,
// HammerStats) and sees the fresh window; it fires only for windows
// with activity. Port.ResetWindow discards a window without firing it.
// A nil fn unsubscribes.
func (d *DRAM) SetWindowHook(fn func(Stats)) { d.hook = fn }

// rotateWindow resets activation bookkeeping when the clock has crossed
// a refresh-window boundary. Refresh also precharges every bank, so
// open rows close. Each bank zeroes its touched rows' counts and
// truncates the touched list (capacity retained), so rotation is
// O(banks + touched rows) with zero allocation, however large the
// module; a subscribed window hook gets the ended window's Stats,
// computed (also O(touched rows)) before the counts are zeroed and
// delivered after. Rotation is lazy:
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
	for i := range d.banks {
		d.endWindow(&d.banks[i])
	}
	if fire {
		d.hook(ended) //pthammer:alloc-ok subscriber callback, fires at most once per refresh window
	}
}

// ResetWindow discards the current refresh window: activation counts
// and victim pressure drop to zero and every bank precharges, exactly
// as if a refresh had just completed — but the window hook does not
// fire, so no flips can result from the discarded activity. The fresh
// window starts at this port's clock reading. Callers use it to scrub
// construction traffic (demand-allocation loads, eviction-set build
// probes) out of the bookkeeping before a measured hammer phase starts
// from a clean window.
//
//pthammer:noalloc
func (p *Port) ResetWindow() {
	d := p.d
	d.windowStart = p.clock.Now()
	for i := range d.banks {
		d.endWindow(&d.banks[i])
	}
}

// Reset recycles the shared device for the next cohort (the
// Reset/Recycle contract): everything ResetWindow discards, plus the
// cross-window state a fresh device starts with — per-bank lastCore
// arbitration bookkeeping back to -1, so the first access of the next
// cohort pays no stale cross-core bank-arbitration charge. The window
// hook stays subscribed (the flip model is recycled separately, not
// re-bound). The recycled device's first window starts at this port's
// clock reading; a machine recycle rebases that clock to 0 first,
// matching a fresh device's window start.
//
// Cost is O(banks + touched rows), never O(rows): exactly as on a
// window rotation, only the touched rows' counts are zeroed, because
// every other count already is. The chunks of counts stay
// materialized, so the next cohort's ACTs into them allocate nothing. The
// dram-recycle-reset bench scenario pins this — a recycle that walked
// every row would regress it by orders of magnitude on a
// large-geometry module.
//
//pthammer:noalloc
func (p *Port) Reset() {
	d := p.d
	d.windowStart = p.clock.Now()
	for i := range d.banks {
		d.endWindow(&d.banks[i])
		d.banks[i].lastCore = -1
	}
}

// Activations returns how many times the given row of the given bank
// location has been activated in the current refresh window, checking
// for rotation against this port's clock. Panics if any field of the
// location is outside the geometry: callers are simulated hardware and
// pass decoded locations, so one outside it is a simulator bug.
func (p *Port) Activations(l Location) uint64 {
	d := p.d
	c := &d.cfg
	if l.Channel < 0 || l.Channel >= c.Channels || l.Rank < 0 || l.Rank >= c.RanksPerChannel ||
		l.Bank < 0 || l.Bank >= c.BanksPerRank || l.Row >= c.Rows || l.Col >= c.RowBytes {
		panic(locationError{l, c})
	}
	d.rotateWindow(p.clock.Now(), p.core)
	return uint64(d.count(&d.banks[c.globalBank(l)], l.Row))
}

// locationError is Activations' panic value. The message is formatted
// only when printed, which keeps the formatting out of Activations, a
// pressure read cohort tenants make on every attacker step.
type locationError struct {
	l Location
	c *Config
}

func (e locationError) Error() string {
	c := e.c
	return fmt.Sprintf("dram: location %+v outside %d channels × %d ranks × %d banks × %d rows × %d-byte rows",
		e.l, c.Channels, c.RanksPerChannel, c.BanksPerRank, c.Rows, c.RowBytes)
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

// HammerStats computes which rows are hammer-eligible right now, with
// rotation checked against this port's clock; the returned Stats carry
// this port's core index. A row v is eligible when activations(v-1) +
// activations(v+1) within the current refresh window reach the
// configured threshold — double-sided hammering contributes from both
// sides, single-sided from one.
//
// The computation walks only the rows actually activated this window
// and reads each candidate victim's pressure from its neighbours'
// counts, so its cost is O(touched rows), independent of the geometry.
func (p *Port) HammerStats() Stats {
	d := p.d
	d.rotateWindow(p.clock.Now(), p.core)
	s := d.stats()
	s.Core = p.core
	return s
}

// stats computes the current window's Stats without checking for
// rotation — the shared body of Port.HammerStats and the end-of-window
// report rotateWindow hands the hook.
func (d *DRAM) stats() Stats {
	s := Stats{WindowStart: d.windowStart}
	d.scratchVictims = d.scratchVictims[:0]
	for gb := range d.banks {
		b := &d.banks[gb]
		for _, row := range b.touched {
			s.Activations += uint64(d.count(b, row))
			// Each candidate victim is visited once: row+1 always, row-1
			// only when row-2 is untouched (else row-2 visits it as +1).
			if row > 0 && (row < 2 || d.count(b, row-2) == 0) {
				d.addVictim(gb, row-1)
			}
			if row+1 < d.cfg.Rows {
				d.addVictim(gb, row+1)
			}
		}
	}
	slices.SortFunc(d.scratchVictims, victimOrder)
	// Copy out of scratch: the caller owns Stats.Victims.
	s.Victims = append([]Victim(nil), d.scratchVictims...)
	return s
}

// addVictim records row v of global bank gb as a victim when its two
// neighbours' summed counts reach the hammer threshold.
func (d *DRAM) addVictim(gb int, v uint64) {
	b := &d.banks[gb]
	var p uint64
	if v > 0 {
		p = uint64(d.count(b, v-1))
	}
	if v+1 < d.cfg.Rows {
		p += uint64(d.count(b, v+1))
	}
	if p < d.cfg.HammerThreshold {
		return
	}
	loc := d.cfg.locOfGlobalBank(gb)
	d.scratchVictims = append(d.scratchVictims, Victim{
		Channel: loc.Channel, Rank: loc.Rank, Bank: loc.Bank,
		Row: v, Pressure: p,
	})
}

// victimOrder is the total order victim lists are reported in:
// pressure descending, then location. Victims are distinct rows, so no
// two compare equal and the list is deterministic despite per-bank
// append order.
func victimOrder(a, b Victim) int {
	return cmp.Or(
		cmp.Compare(b.Pressure, a.Pressure),
		cmp.Compare(a.Channel, b.Channel),
		cmp.Compare(a.Rank, b.Rank),
		cmp.Compare(a.Bank, b.Bank),
		cmp.Compare(a.Row, b.Row),
	)
}
