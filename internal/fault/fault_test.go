package fault

import (
	"strings"
	"testing"

	"pthammer/internal/dram"
	"pthammer/internal/phys"
)

func testGeom() dram.Config {
	return dram.Config{
		Channels:        1,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		Rows:            1 << 15,
		RowBytes:        8 << 10,
		HammerThreshold: 64,
		RefreshWindow:   350_000,
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"unknown class", Config{Class: "cosmic-ray"}, false},
		{"zero class", Config{}, false},
		{"defaults valid", Config{Class: EvictionDecay}, true},
		{"suppress rate negative", Config{Class: TRRSuppress, SuppressRate: -0.1}, false},
		{"misland rate one is valid", Config{Class: FlipMisland, MislandRate: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewModel(tc.cfg)
			if tc.ok && err != nil {
				t.Fatalf("NewModel(%+v) = %v, want nil", tc.cfg, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("NewModel(%+v) succeeded, want error", tc.cfg)
			}
		})
	}
}

func TestWithDefaultsFillsEveryKnob(t *testing.T) {
	c := Config{Class: EvictionDecay, Seed: 7}.WithDefaults()
	if c.SuppressRate == 0 || c.MislandRate == 0 {
		t.Fatalf("WithDefaults left a zero knob: %+v", c)
	}
	if c.Class != EvictionDecay || c.Seed != 7 {
		t.Fatalf("WithDefaults changed identity fields: %+v", c)
	}
	if got := MustNewModel(Config{Class: EvictionDecay, Seed: 7}).Config(); got != c {
		t.Fatalf("Model.Config() = %+v, want the config with defaults applied %+v", got, c)
	}
}

func TestBindIsOneShot(t *testing.T) {
	m := MustNewModel(Config{Class: FlipMisland, Seed: 1})
	if err := m.Bind(dram.Config{}); err == nil {
		t.Fatal("Bind accepted a degenerate geometry")
	}
	if err := m.Bind(testGeom()); err != nil {
		t.Fatalf("first Bind after a rejected one: %v", err)
	}
	if err := m.Bind(testGeom()); err == nil {
		t.Fatal("second Bind succeeded, want error")
	}
}

func TestEvictionDecayStartsQuiet(t *testing.T) {
	m := MustNewModel(Config{Class: EvictionDecay, Seed: 1})
	for i := 0; i < quietPrimes; i++ {
		if off := m.PrimeStart(20); off != 0 {
			t.Fatalf("prime %d: rotation %d during quiet head, want 0", i, off)
		}
		for j := 0; j < 20; j++ {
			if m.DropMember() {
				t.Fatalf("prime %d: member dropped during quiet head", i)
			}
		}
	}
	if s := m.Stats(); s.MembersDropped != 0 || s.PrimesFaulted != 0 {
		t.Fatalf("faults counted during quiet head: %+v", s)
	}
	// The first burst prime must start faulting.
	dropped := false
	for i := 0; i < burstPrimes; i++ {
		m.PrimeStart(20)
		for j := 0; j < 20; j++ {
			dropped = m.DropMember() || dropped
		}
	}
	s := m.Stats()
	if !dropped || s.MembersDropped == 0 || s.PrimesFaulted != burstPrimes {
		t.Fatalf("burst did not fault: dropped=%v stats=%+v", dropped, s)
	}
	// Burst drop rate should track dropRate within a loose band.
	total := float64(burstPrimes * 20)
	rate := float64(s.MembersDropped) / total
	if rate < 0.2 || rate > 0.4 {
		t.Fatalf("burst drop rate %.3f far from configured %.3f", rate, dropRate)
	}
}

func TestOtherClassesLeaveMachineSeamsAlone(t *testing.T) {
	for _, class := range []Class{ThresholdDrift, TRRSuppress, FlipMisland, PairInvalidate} {
		m := MustNewModel(Config{Class: class, Seed: 1})
		for i := 0; i < 10_000; i++ {
			if m.PrimeStart(20) != 0 || m.DropMember() {
				t.Fatalf("%s perturbed the Prime stream", class)
			}
		}
		if class != ThresholdDrift {
			for i := 0; i < 10_000; i++ {
				if m.ProbeJitter() != 0 {
					t.Fatalf("%s perturbed a timed probe", class)
				}
			}
		}
	}
}

func TestThresholdDriftSpikesUpwardOnly(t *testing.T) {
	m := MustNewModel(Config{Class: ThresholdDrift, Seed: 3})
	spikes := 0
	for i := 0; i < 10_000; i++ {
		j := m.ProbeJitter()
		if j > 0 {
			spikes++
			if j > driftMax {
				t.Fatalf("spike %d exceeds driftMax %d", j, driftMax)
			}
		}
	}
	rate := float64(spikes) / 10_000
	if rate < 0.15 || rate > 0.35 {
		t.Fatalf("spike rate %.3f far from configured %.3f", rate, driftProb)
	}
	if got := m.Stats().ProbesPerturbed; got != uint64(spikes) {
		t.Fatalf("ProbesPerturbed = %d, want %d", got, spikes)
	}
}

func TestTRRSuppressSamplesAtRate(t *testing.T) {
	m := MustNewModel(Config{Class: TRRSuppress, Seed: 5})
	v := dram.Victim{Row: 100, Pressure: 96}
	suppressed := 0
	for i := 0; i < 10_000; i++ {
		if m.SuppressAttempt(v) {
			suppressed++
		}
	}
	rate := float64(suppressed) / 10_000
	if rate < 0.4 || rate > 0.6 {
		t.Fatalf("suppression rate %.3f far from configured %.3f", rate, m.Config().SuppressRate)
	}
	if got := m.Stats().AttemptsSuppressed; got != uint64(suppressed) {
		t.Fatalf("AttemptsSuppressed = %d, want %d", got, suppressed)
	}
}

func TestTRRSuppressAllIsTotal(t *testing.T) {
	m := MustNewModel(Config{Class: TRRSuppress, Seed: 5, SuppressRate: 1})
	for i := 0; i < 1000; i++ {
		if !m.SuppressAttempt(dram.Victim{Row: uint64(i)}) {
			t.Fatal("SuppressRate 1.0 let an attempt through")
		}
	}
}

func TestPairInvalidateArmsOnFirstFlipThenKillsThatRowOnly(t *testing.T) {
	m := MustNewModel(Config{Class: PairInvalidate, Seed: 9})
	flipped := dram.Victim{Channel: 0, Rank: 0, Bank: 2, Row: 500, Pressure: 96}
	other := dram.Victim{Channel: 0, Rank: 0, Bank: 2, Row: 900, Pressure: 70}

	// No flip observed yet: nothing arms, nothing suppresses.
	m.OnWindow(1)
	if m.SuppressAttempt(flipped) || m.SuppressAttempt(other) {
		t.Fatal("suppressed before any flip was observed")
	}
	// The first recorded flip arms its row at window 1.
	m.ObserveFlip(flipped)
	for w := uint64(2); w < 1+triggerWindows; w++ {
		m.OnWindow(w)
		if m.SuppressAttempt(flipped) || m.SuppressAttempt(other) {
			t.Fatalf("window %d: suppressed before trigger", w)
		}
	}
	if m.Stats().PairsInvalidated != 0 {
		t.Fatal("pair invalidated before trigger window count elapsed")
	}
	// Window armedAt(1) + triggerWindows: the flipped row dies, every
	// other row keeps flipping.
	m.OnWindow(1 + triggerWindows)
	if m.Stats().PairsInvalidated != 1 {
		t.Fatal("pair not invalidated after trigger window count")
	}
	if !m.SuppressAttempt(flipped) {
		t.Fatal("armed row not suppressed after invalidation")
	}
	if m.SuppressAttempt(other) {
		t.Fatal("unarmed row suppressed")
	}
	if m.Stats().AttemptsSuppressed != 1 {
		t.Fatalf("AttemptsSuppressed = %d, want 1", m.Stats().AttemptsSuppressed)
	}
	// Later flips elsewhere do not re-arm: the OS migrated one table.
	m.ObserveFlip(other)
	if m.SuppressAttempt(other) {
		t.Fatal("second flip re-armed the invalidation")
	}
	if !m.SuppressAttempt(flipped) {
		t.Fatal("original armed row released")
	}
}

func TestRedirectFlipMovesRowsNotBanks(t *testing.T) {
	geom := testGeom()
	m := MustNewModel(Config{Class: FlipMisland, Seed: 2, MislandRate: 1})
	if err := m.Bind(geom); err != nil {
		t.Fatal(err)
	}
	start, _ := geom.RowRange(0, 0, 3, 1000)
	for i := 0; i < 100; i++ {
		addr := start + phys.Addr(i*64)
		got, bit, ok := m.RedirectFlip(addr, 5)
		if !ok {
			t.Fatal("MislandRate 1.0 did not redirect")
		}
		if bit != 5 {
			t.Fatalf("redirect changed bit: %d", bit)
		}
		from, to := geom.Map(addr), geom.Map(got)
		if to.Channel != from.Channel || to.Rank != from.Rank || to.Bank != from.Bank {
			t.Fatalf("redirect crossed banks: %+v -> %+v", from, to)
		}
		if to.Row != from.Row+mislandRows {
			t.Fatalf("redirect row %d, want %d", to.Row, from.Row+mislandRows)
		}
	}
	if got := m.Stats().FlipsRedirected; got != 100 {
		t.Fatalf("FlipsRedirected = %d, want 100", got)
	}
}

func TestRedirectFlipReflectsAtBankTop(t *testing.T) {
	geom := testGeom()
	m := MustNewModel(Config{Class: FlipMisland, Seed: 2, MislandRate: 1})
	if err := m.Bind(geom); err != nil {
		t.Fatal(err)
	}
	topRow := geom.Rows - 1
	start, _ := geom.RowRange(0, 0, 0, topRow)
	got, _, ok := m.RedirectFlip(start, 0)
	if !ok {
		t.Fatal("MislandRate 1.0 did not redirect")
	}
	if to := geom.Map(got); to.Row != topRow-mislandRows {
		t.Fatalf("top-of-bank redirect row %d, want %d", to.Row, topRow-mislandRows)
	}
}

func TestModelDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		m := MustNewModel(Config{Class: TRRSuppress, Seed: seed})
		out := make([]bool, 500)
		for i := range out {
			out[i] = m.SuppressAttempt(dram.Victim{Row: uint64(i)})
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical suppression streams")
	}
}

func TestMatrixShape(t *testing.T) {
	mx := Matrix()
	if mx[0].Name != "none" || mx[0].Config != nil || !mx[0].Recoverable {
		t.Fatalf("matrix[0] is not the fault-free control: %+v", mx[0])
	}
	seen := map[Class]bool{}
	unrecoverable := 0
	for _, sc := range mx[1:] {
		if sc.Config == nil {
			t.Fatalf("scenario %q has nil config", sc.Name)
		}
		if _, err := NewModel(Config{Class: sc.Config.Class, Seed: 1}); err != nil {
			t.Fatalf("scenario %q: %v", sc.Name, err)
		}
		seen[sc.Config.Class] = true
		if !sc.Recoverable {
			unrecoverable++
		}
	}
	for _, class := range Classes() {
		if !seen[class] {
			t.Fatalf("class %s missing from matrix", class)
		}
	}
	if unrecoverable != 2 {
		t.Fatalf("matrix has %d unrecoverable scenarios, want 2", unrecoverable)
	}
}

// TestStatsTotalAndClass: Total sums every seam's counter and the
// model reports its configured class.
func TestStatsTotalAndClass(t *testing.T) {
	s := Stats{MembersDropped: 1, ProbesPerturbed: 2, AttemptsSuppressed: 3, FlipsRedirected: 4, PairsInvalidated: 5}
	if s.Total() != 15 {
		t.Fatalf("Total() = %d, want 15", s.Total())
	}
	m := MustNewModel(Config{Class: TRRSuppress, Seed: 1})
	if m.Class() != TRRSuppress {
		t.Fatalf("Class() = %v, want TRRSuppress", m.Class())
	}
}

// TestBindRejectsMislandOnShortBanks: a flip-misland model cannot bind
// to banks of fewer than 2 × mislandRows rows. On 12 rows, rows 4 to 7
// have neither a row eight above nor one eight below, and redirecting
// row 5 wrapped its row number below 0, to 0xffffffffffff6040. Other
// classes never move a flip and bind as before; on 16 rows every
// redirect stays in the flip's own bank.
func TestBindRejectsMislandOnShortBanks(t *testing.T) {
	geom := func(rows uint64) dram.Config {
		return dram.Config{
			Channels: 1, RanksPerChannel: 1, BanksPerRank: 2,
			Rows: rows, RowBytes: 8 << 10,
			HammerThreshold: 64,
		}
	}
	misland := Config{Class: FlipMisland, Seed: 1, MislandRate: 1}
	err := MustNewModel(misland).Bind(geom(12))
	if err == nil || !strings.Contains(err.Error(), "at least 16 rows (got 12)") {
		t.Fatalf("Bind(12 rows) = %v, want the 16-row minimum", err)
	}
	if err := MustNewModel(Config{Class: TRRSuppress, Seed: 1}).Bind(geom(12)); err != nil {
		t.Fatalf("trr-suppress Bind(12 rows): %v", err)
	}
	g := geom(16)
	m := MustNewModel(misland)
	if err := m.Bind(g); err != nil {
		t.Fatalf("Bind(16 rows): %v", err)
	}
	for row := uint64(0); row < g.Rows; row++ {
		from, _ := g.RowRange(0, 0, 1, row)
		to, _, ok := m.RedirectFlip(from+0x40, 3)
		if !ok || uint64(to) >= g.Capacity() {
			t.Fatalf("row %d redirected to %#x (ok=%v), outside the %d-byte module", row, uint64(to), ok, g.Capacity())
		}
		if l := g.Map(to); l.Bank != 1 || l.Col != 0x40 || (l.Row != row+mislandRows && l.Row+mislandRows != row) {
			t.Fatalf("row %d redirected to %+v", row, l)
		}
	}
}
