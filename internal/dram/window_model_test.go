package dram

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pthammer/internal/mem"
	"pthammer/internal/perf"
	"pthammer/internal/sparse"
	"pthammer/internal/timing"
)

// The shapes the window bookkeeping is checked on. sandyBridgeShape is
// machine.SandyBridge's DRAM (its real refresh window, a threshold low
// enough for a short stream to reach), cohortMicroShape the cohort
// package's tenant machine, and oddShape a non-power-of-two geometry
// small enough that rows 0 and Rows−1 are hammered.
var (
	sandyBridgeShape = Config{
		Channels: 2, RanksPerChannel: 1, BanksPerRank: 8,
		Rows: 8192, RowBytes: 8192,
		RefreshWindow: 217_600_000, HammerThreshold: 6,
	}
	cohortMicroShape = Config{
		Channels: 1, RanksPerChannel: 1, BanksPerRank: 4,
		Rows: 1024, RowBytes: 8192,
		RefreshWindow: 60_000, HammerThreshold: 12,
	}
	oddShape = Config{
		Channels: 3, RanksPerChannel: 1, BanksPerRank: 2,
		Rows: 24, RowBytes: 12288,
		RefreshWindow: 3_000, HammerThreshold: 3,
	}
)

// bankKey names one bank.
type bankKey struct{ Channel, Rank, Bank int }

// windowModel is the reference for the device's window bookkeeping.
// It shares no code with stats(): this window's counts are a map from
// bank and row to ACTs, and victims are found by scanning every row of
// every bank. Row-buffer and arbitration state are modelled too, so the
// model predicts which accesses activate and what each one costs.
type windowModel struct {
	cfg Config
	lat timing.LatencyTable
	// acts[bank][row] is the row's count this window; a row never
	// activated in it has no entry.
	acts        map[bankKey]map[uint64]uint64
	open        map[bankKey]uint64
	lastCore    map[bankKey]int
	windowStart timing.Cycles
	// acted[core] counts the ACTs each port's counters should show.
	acted [2]uint64
}

func newWindowModel(cfg Config) *windowModel {
	m := &windowModel{cfg: cfg, lat: timing.DefaultLatencies(), lastCore: map[bankKey]int{}}
	m.refresh()
	return m
}

// refresh empties the window and precharges every bank.
func (m *windowModel) refresh() {
	m.acts = map[bankKey]map[uint64]uint64{}
	m.open = map[bankKey]uint64{}
}

// rotate ends the window when core's clock reads at least one window
// past its start, returning the ended window's report when the hook
// should fire.
func (m *windowModel) rotate(now timing.Cycles, core int) (ended *Stats) {
	w := m.cfg.RefreshWindow
	if w == 0 || now < m.windowStart || now-m.windowStart < w {
		return nil
	}
	if len(m.acts) > 0 {
		s := m.stats(core)
		ended = &s
	}
	m.windowStart += (now - m.windowStart) / w * w
	m.refresh()
	return ended
}

// lookup predicts one access's result and books its ACT.
func (m *windowModel) lookup(core int, l Location) mem.Result {
	b := bankKey{l.Channel, l.Rank, l.Bank}
	var res mem.Result
	res.Source = mem.LevelDRAM
	open, isOpen := m.open[b]
	switch {
	case isOpen && open == l.Row:
		res.Latency, res.Hit = m.lat.DRAMRowHit, true
	case !isOpen:
		res.Latency = m.lat.DRAMRowClosed
	default:
		res.Latency = m.lat.DRAMRowConflict
	}
	if !res.Hit {
		m.open[b] = l.Row
		if m.acts[b] == nil {
			m.acts[b] = map[uint64]uint64{}
		}
		m.acts[b][l.Row] = min(m.acts[b][l.Row]+1, math.MaxUint32)
		m.acted[core]++
	}
	if last, ok := m.lastCore[b]; ok && last != core {
		res.Latency += m.lat.DRAMBankArbitration
	}
	m.lastCore[b] = core
	return res
}

// stats is the window's report: every row of every bank whose two
// neighbours' counts sum to the threshold, most pressured first.
func (m *windowModel) stats(core int) Stats {
	s := Stats{WindowStart: m.windowStart, Core: core}
	for _, rows := range m.acts {
		for _, n := range rows {
			s.Activations += n
		}
	}
	for ch := 0; ch < m.cfg.Channels; ch++ {
		for rk := 0; rk < m.cfg.RanksPerChannel; rk++ {
			for bk := 0; bk < m.cfg.BanksPerRank; bk++ {
				rows := m.acts[bankKey{ch, rk, bk}]
				for v := uint64(0); v < m.cfg.Rows; v++ {
					p := rows[v+1]
					if v > 0 {
						p += rows[v-1]
					}
					if p >= m.cfg.HammerThreshold {
						s.Victims = append(s.Victims, Victim{Channel: ch, Rank: rk, Bank: bk, Row: v, Pressure: p})
					}
				}
			}
		}
	}
	sort.Slice(s.Victims, func(i, j int) bool {
		a, b := s.Victims[i], s.Victims[j]
		if a.Pressure != b.Pressure {
			return a.Pressure > b.Pressure
		}
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Row < b.Row
	})
	return s
}

// windowOpKind is one step of a window stream.
type windowOpKind int

const (
	opAccess windowOpKind = iota
	opJump
	opResetWindow
	opReset
)

// windowOp is one step: an access to loc, a clock jump of cycles, or a
// window discard or recycle, issued through port.
type windowOp struct {
	kind   windowOpKind
	port   int
	loc    Location
	cycles timing.Cycles
}

func (op windowOp) String() string {
	switch op.kind {
	case opAccess:
		return fmt.Sprintf("port %d access %d/%d/%d row %d", op.port, op.loc.Channel, op.loc.Rank, op.loc.Bank, op.loc.Row)
	case opJump:
		return fmt.Sprintf("port %d clock +%d", op.port, op.cycles)
	case opResetWindow:
		return fmt.Sprintf("port %d ResetWindow", op.port)
	default:
		return fmt.Sprintf("port %d Reset", op.port)
	}
}

// windowLockstep drives one device through two ports and the model
// side by side, collecting the hook's reports and the model's
// predictions of them.
type windowLockstep struct {
	cfg      Config
	ports    [2]*Port
	clocks   [2]*timing.Clock
	counters [2]*perf.Counters
	model    *windowModel
	// got and want are the hook's reports and the model's predictions
	// of them; the first checked of each have been compared.
	got, want []Stats
	checked   int
	// sightings counts victims in the live windows checked so far.
	sightings int
}

func newWindowLockstep(cfg Config) (*windowLockstep, error) {
	l := &windowLockstep{cfg: cfg, model: newWindowModel(cfg)}
	d, err := New(cfg, timing.DefaultLatencies())
	if err != nil {
		return nil, err
	}
	for i := range l.ports {
		l.clocks[i] = &timing.Clock{}
		l.counters[i] = &perf.Counters{}
		if l.ports[i], err = d.NewPort(i, l.clocks[i], l.counters[i]); err != nil {
			return nil, err
		}
	}
	d.SetWindowHook(func(s Stats) { l.got = append(l.got, s) })
	return l, nil
}

// rotate advances the model's window against port's clock, recording
// the report the device's hook must deliver.
func (l *windowLockstep) rotate(port int) {
	if ended := l.model.rotate(l.clocks[port].Now(), port); ended != nil {
		l.want = append(l.want, *ended)
	}
}

// step applies op to both sides and then checks every observable
// through op's port. It returns "" when they agree.
func (l *windowLockstep) step(op windowOp) string {
	p := l.ports[op.port]
	switch op.kind {
	case opAccess:
		l.rotate(op.port)
		want := l.model.lookup(op.port, op.loc)
		if got := p.Lookup(l.cfg.AddrOf(op.loc)); got != want {
			return fmt.Sprintf("%v: result %+v, model %+v", op, got, want)
		}
	case opJump:
		l.clocks[op.port].Advance(op.cycles)
	case opResetWindow:
		p.ResetWindow()
		l.model.windowStart = l.clocks[op.port].Now()
		l.model.refresh()
	case opReset:
		p.Reset()
		l.model.windowStart = l.clocks[op.port].Now()
		l.model.refresh()
		clear(l.model.lastCore)
	}
	if msg := l.check(op.port); msg != "" {
		return fmt.Sprintf("after %v: %s", op, msg)
	}
	return ""
}

// check compares, through one port, the counts of every touched row,
// of untouched rows beside them and at both ends of every bank, the
// live HammerStats, every hook report so far and both ports' ACT
// counters.
func (l *windowLockstep) check(port int) string {
	p := l.ports[port]
	l.rotate(port)
	for ch := 0; ch < l.cfg.Channels; ch++ {
		for rk := 0; rk < l.cfg.RanksPerChannel; rk++ {
			for bk := 0; bk < l.cfg.BanksPerRank; bk++ {
				counts := l.model.acts[bankKey{ch, rk, bk}]
				probe := map[uint64]bool{0: true, l.cfg.Rows - 1: true}
				for row := range counts {
					for v := max(row, 2) - 2; v <= row+2 && v < l.cfg.Rows; v++ {
						probe[v] = true
					}
				}
				for row := range probe {
					loc := Location{Channel: ch, Rank: rk, Bank: bk, Row: row}
					if got := p.Activations(loc); got != counts[row] {
						return fmt.Sprintf("Activations(%+v) = %d, model %d", loc, got, counts[row])
					}
				}
			}
		}
	}
	want := l.model.stats(port)
	if msg := sameStats("HammerStats", p.HammerStats(), want); msg != "" {
		return msg
	}
	l.sightings += len(want.Victims)
	if len(l.got) != len(l.want) {
		return fmt.Sprintf("hook fired %d times, model %d", len(l.got), len(l.want))
	}
	for ; l.checked < len(l.got); l.checked++ {
		i := l.checked
		if msg := sameStats(fmt.Sprintf("hook report %d", i), l.got[i], l.want[i]); msg != "" {
			return msg
		}
	}
	for i, c := range l.counters {
		if got := c.Read(perf.DRAMActivate); got != l.model.acted[i] {
			return fmt.Sprintf("port %d counted %d ACTs, model %d", i, got, l.model.acted[i])
		}
	}
	return ""
}

func sameStats(what string, got, want Stats) string {
	if got.WindowStart != want.WindowStart || got.Core != want.Core || got.Activations != want.Activations ||
		!slices.Equal(got.Victims, want.Victims) {
		return fmt.Sprintf("%s = %+v, model %+v", what, got, want)
	}
	return ""
}

// seededStream draws n steps on cfg. Most are accesses that hammer a
// focus pair — two rows of one bank, one or two apart: the bank's end
// rows, adjacent rows, rows sharing a victim, and on a bank of more
// than one chunk of counts the rows either side of the first chunk
// boundary, whose victim is the next chunk's first row — with strays
// to other hot rows mixed in; the rest move the focus, jump a port's
// clock within a window or across one or several boundaries, or
// discard or recycle the window. Every op goes through a randomly
// drawn port.
func seededStream(cfg Config, seed uint64, n int) []windowOp {
	rng := rand.New(rand.NewPCG(seed, cfg.Rows))
	last, mid := cfg.Rows-1, cfg.Rows/2
	pairs := [][2]uint64{{0, 2}, {1, 0}, {last, last - 2}, {last - 1, last}, {mid, mid + 2}, {mid + 1, mid + 2}, {mid + 2, mid + 4}}
	if c := uint64(sparse.ChunkLen); cfg.Rows > c+1 {
		pairs = append(pairs, [2]uint64{c - 1, c + 1})
	}
	banks := []int{0, cfg.TotalBanks() - 1, cfg.TotalBanks() / 2}
	at := func(gb int, row uint64) Location {
		l := cfg.locOfGlobalBank(gb)
		l.Row = row
		return l
	}
	focus, gb, side := pairs[0], 0, 0
	w := max(cfg.RefreshWindow, 10_000)
	ops := make([]windowOp, n)
	for i := range ops {
		op := windowOp{port: rng.IntN(2)}
		switch r := rng.IntN(100); {
		case r < 75:
			side ^= 1
			op.loc = at(gb, focus[side])
		case r < 88:
			p := pairs[rng.IntN(len(pairs))]
			op.loc = at(banks[rng.IntN(len(banks))], p[rng.IntN(2)])
		case r < 91:
			focus, gb = pairs[rng.IntN(len(pairs))], banks[rng.IntN(len(banks))]
			op.loc = at(gb, focus[side])
		case r < 95:
			op.kind, op.cycles = opJump, timing.Cycles(rng.Uint64N(uint64(w/8)))
		case r < 97:
			op.kind, op.cycles = opJump, w+timing.Cycles(rng.Uint64N(uint64(w)))
		case r < 98:
			op.kind, op.cycles = opJump, timing.Cycles(2+rng.IntN(5))*w+timing.Cycles(rng.Uint64N(uint64(w)))
		case r < 99:
			op.kind = opResetWindow
		default:
			op.kind = opReset
		}
		ops[i] = op
	}
	return ops
}

// TestWindowBookkeepingMatchesModel runs seeded two-port streams on
// three shapes in lockstep with the reference model.
func TestWindowBookkeepingMatchesModel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		steps int
	}{
		{"SandyBridge", sandyBridgeShape, 250},
		{"cohort-micro", cohortMicroShape, 1500},
		{"odd", oddShape, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				l, err := newWindowLockstep(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, op := range seededStream(tc.cfg, seed, tc.steps) {
					if msg := l.step(op); msg != "" {
						t.Fatalf("seed %d step %d: %s", seed, i, msg)
					}
				}
				// A stream that never reaches the threshold, or never
				// ends a window with activity, checks little.
				reported := 0
				for _, s := range l.want {
					reported += len(s.Victims)
				}
				if l.sightings == 0 || reported == 0 {
					t.Fatalf("seed %d: degenerate stream: %d live victim sightings, %d victims in %d hook reports",
						seed, l.sightings, reported, len(l.want))
				}
				t.Logf("seed %d: %d live victim sightings, %d victims in %d hook reports", seed, l.sightings, reported, len(l.want))
			}
		})
	}
}

// TestActivationCountSaturates: a count saturates at 2^32−1 instead of
// wrapping to zero, and a saturated row stays on touched exactly once.
func TestActivationCountSaturates(t *testing.T) {
	cfg := testConfig()
	p, _, _ := newTestDRAM(t, cfg)
	row := Location{Row: 5}
	other := cfg.AddrOf(Location{Row: 9})
	p.Lookup(cfg.AddrOf(row))
	d := p.DRAM()
	b := &d.banks[cfg.globalBank(row)]
	*d.acts.Ref(b.base + row.Row) = math.MaxUint32 - 2
	for i := 0; i < 3; i++ {
		p.Lookup(other)
		p.Lookup(cfg.AddrOf(row))
	}
	if got := p.Activations(row); got != math.MaxUint32 {
		t.Fatalf("Activations = %d, want %d", got, uint64(math.MaxUint32))
	}
	n := 0
	for _, r := range b.touched {
		if r == row.Row {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("row %d is on touched %d times, want 1 (touched %v)", row.Row, n, b.touched)
	}
	s := p.HammerStats()
	if s.Activations != math.MaxUint32+3 || len(s.Victims) == 0 || s.Victims[0].Row != 4 || s.Victims[0].Pressure != math.MaxUint32 {
		t.Fatalf("HammerStats = %+v, want %d ACTs and row 4 at %d first", s, uint64(math.MaxUint32)+3, uint64(math.MaxUint32))
	}
	p.ResetWindow()
	if got := p.Activations(row); got != 0 || len(b.touched) != 0 {
		t.Fatalf("after ResetWindow: Activations = %d, touched %v", got, b.touched)
	}
}

// TestNewFootprint pins the bookkeeping's size: on the SandyBridge
// geometry New allocates the count array's directory (4 B per
// sparse.ChunkLen bank rows), its sentinel chunk and at most 4 KiB
// beside them — nothing per bank row. TotalAlloc is process-wide, so a
// delta also holds whatever the runtime itself allocated meanwhile
// (under load, a few runtime objects of 0.4–2 KiB), which can only add
// bytes; New allocates the same bytes on every call, so the smallest
// delta of five calls is New's own.
func TestNewFootprint(t *testing.T) {
	cfg := sandyBridgeShape
	lat := timing.DefaultLatencies()
	rows := uint64(cfg.TotalBanks()) * cfg.Rows
	limit := (rows+sparse.ChunkLen-1)/sparse.ChunkLen*4 + sparse.ChunkLen*4 + 4<<10
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := New(cfg, lat)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		runtime.KeepAlive(d)
	}
	if least > limit {
		t.Errorf("New allocated %d bytes, want at most %d", least, limit)
	}
}

// FuzzDRAMWindow decodes a small geometry and a two-port op stream and
// runs it in lockstep with the reference model. Input: byte 0 picks
// channels (1 + b%3) and ranks (1 + b/3%2); byte 1 banks per rank
// (1 + b%4) and row bytes (b/4%3 into 4, 8 or 12 KiB); byte 2 rows
// (1 + b%32 + b/32 × sparse.ChunkLen/2: banks of up to 32 rows, then
// banks that reach up to three boundaries between chunks of counts, most
// ending in a partial chunk); byte 3 the threshold (1 + b%8) and the
// refresh window (b/8%4 into none, 700, 3,000 or 60,000 cycles). Then
// every three bytes are one step: the first picks the port (bit 0) and
// the op (b/2%8: 0–4 access, 5 clock jump, 6 ResetWindow, 7 Reset); an
// access takes the global bank from the next byte and the row, modulo
// the bank's rows, from the first byte's high nibble and the last
// byte (nibble×256 + b); a jump takes a×(window/8+1)+b cycles.
func FuzzDRAMWindow(f *testing.F) {
	access := func(port byte, gb, row byte) []byte { return []byte{port, gb, row} }
	seed := func(geo [4]byte, steps ...[]byte) []byte {
		data := geo[:]
		for _, s := range steps {
			data = append(data, s...)
		}
		return data
	}
	// Edge rows: one bank of 5 rows, threshold 2, no window. Rows 0 and
	// 4 alternate (victims 1 and 3, each seen from one side), then rows
	// 1 and 3 (victims 0 and 4 at the bank's ends, and 2 between).
	var edge [][]byte
	for i := 0; i < 3; i++ {
		edge = append(edge, access(0, 0, 0), access(1, 0, 4))
	}
	for i := 0; i < 3; i++ {
		edge = append(edge, access(0, 0, 1), access(1, 0, 3))
	}
	f.Add(seed([4]byte{0, 4, 4, 1}, edge...))
	// Adjacent touched rows: rows 2 and 4 share candidate 3, and row 3
	// itself is touched too, in a 2-bank shape with a 3,000-cycle
	// window, a jump across it and a recycle.
	var adj [][]byte
	for i := 0; i < 4; i++ {
		adj = append(adj, access(0, 1, 2), access(0, 1, 4), access(1, 1, 3), access(1, 0, 4))
	}
	adj = append(adj, []byte{11, 9, 0}, access(0, 1, 2), access(1, 1, 4), []byte{15, 0, 0}, access(0, 1, 3))
	f.Add(seed([4]byte{0, 5, 11, 17}, adj...))
	// Chunk boundaries: one bank of 2.75 chunks of counts (byte 2 = 5×32
	// + 31), threshold 4, no window. Rows chunk−1 and chunk+1 alternate
	// (victim: the second chunk's first row), then rows either side of
	// the second boundary, the upper one past the row byte's range.
	c := byte(sparse.ChunkLen)
	var bound [][]byte
	for i := 0; i < 4; i++ {
		bound = append(bound, access(0, 0, c-1), access(1, 0, c+1))
	}
	for i := 0; i < 4; i++ {
		bound = append(bound, access(0, 0, 2*c-1), access(1|1<<4, 0, 1))
	}
	f.Add(seed([4]byte{0, 0, 5*32 + 31, 3}, bound...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := Config{
			Channels:        1 + int(data[0]%3),
			RanksPerChannel: 1 + int(data[0]/3%2),
			BanksPerRank:    1 + int(data[1]%4),
			RowBytes:        []uint64{4096, 8192, 12288}[data[1]/4%3],
			Rows:            1 + uint64(data[2]%32) + uint64(data[2]/32)*sparse.ChunkLen/2,
			HammerThreshold: 1 + uint64(data[3]%8),
			RefreshWindow:   []timing.Cycles{0, 700, 3_000, 60_000}[data[3]/8%4],
		}
		l, err := newWindowLockstep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 4; i+2 < len(data); i += 3 {
			op := windowOp{port: int(data[i] & 1)}
			switch k := data[i] / 2 % 8; {
			case k < 5:
				op.loc = cfg.locOfGlobalBank(int(data[i+1]) % cfg.TotalBanks())
				op.loc.Row = (uint64(data[i]>>4)<<8 | uint64(data[i+2])) % cfg.Rows
			case k == 5:
				op.kind = opJump
				op.cycles = timing.Cycles(data[i+1])*(cfg.RefreshWindow/8+1) + timing.Cycles(data[i+2])
			case k == 6:
				op.kind = opResetWindow
			default:
				op.kind = opReset
			}
			if msg := l.step(op); msg != "" {
				t.Fatalf("byte %d: %s", i, msg)
			}
		}
	})
}
