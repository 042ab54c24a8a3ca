package timing

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestClockBasics(t *testing.T) {
	c := &Clock{}
	if c.Now() != 0 {
		t.Fatal("fresh clock state wrong")
	}
	c.Advance(100)
	c.Advance(17)
	if c.Now() != 117 {
		t.Fatalf("Now = %d, want 117", c.Now())
	}
}

// TestHorizon pins the window-budget conversion: horizons that fit come
// back exact, and one whose product or sum passes the top of Cycles is
// an error naming the count, never a wrapped value. 2^60 windows of the
// escalation (350,000-cycle) and cohort (60,000-cycle) windows wrap to
// exactly 0 unchecked.
func TestHorizon(t *testing.T) {
	for _, tc := range []struct {
		start  Cycles
		n      uint64
		window Cycles
		want   Cycles
	}{
		{0, 0, 350_000, 0},
		{0, 4000, 350_000, 1_400_000_000},
		{7, 3, 60_000, 180_007},
		{0, math.MaxUint64, 1, math.MaxUint64},
		{math.MaxUint64 - 10, 1, 10, math.MaxUint64},
		{0, 1 << 60, 0, 0},
	} {
		got, err := Horizon(tc.start, tc.n, tc.window)
		if err != nil || got != tc.want {
			t.Errorf("Horizon(%d, %d, %d) = %d, %v; want %d", tc.start, tc.n, tc.window, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		start  Cycles
		n      uint64
		window Cycles
	}{
		{0, 1 << 60, 350_000},
		{0, 1 << 60, 60_000},
		{0, math.MaxUint64, 2},
		{math.MaxUint64 - 10, 1, 11},
		{1, math.MaxUint64, 1},
	} {
		got, err := Horizon(tc.start, tc.n, tc.window)
		if err == nil {
			t.Errorf("Horizon(%d, %d, %d) = %d, want an overflow error", tc.start, tc.n, tc.window, got)
			continue
		}
		if want := fmt.Sprintf("%d windows", tc.n); !strings.Contains(err.Error(), want) {
			t.Errorf("Horizon(%d, %d, %d) error %q does not name the count", tc.start, tc.n, tc.window, err)
		}
	}
}

func TestDefaultLatenciesValidate(t *testing.T) {
	if err := DefaultLatencies().Validate(); err != nil {
		t.Fatalf("default table invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*LatencyTable)
	}{
		{"zero L1", func(l *LatencyTable) { l.L1Hit = 0 }},
		{"L2 <= L1", func(l *LatencyTable) { l.L2Hit = l.L1Hit }},
		{"LLC <= L2", func(l *LatencyTable) { l.LLCHit = l.L2Hit }},
		{"DRAM hit <= LLC", func(l *LatencyTable) { l.DRAMRowHit = l.LLCHit }},
		{"conflict <= closed", func(l *LatencyTable) { l.DRAMRowConflict = l.DRAMRowClosed }},
		{"zero TLBL1Hit", func(l *LatencyTable) { l.TLBL1Hit = 0 }},
		{"zero TLBL2Hit", func(l *LatencyTable) { l.TLBL2Hit = 0 }},
		{"TLBL1 >= TLBL2", func(l *LatencyTable) { l.TLBL1Hit = l.TLBL2Hit }},
		{"zero PSCacheHit", func(l *LatencyTable) { l.PSCacheHit = 0 }},
		{"zero PageWalkStep", func(l *LatencyTable) { l.PageWalkStep = 0 }},
		{"zero CLFlushCost", func(l *LatencyTable) { l.CLFlushCost = 0 }},
		{"zero NOP", func(l *LatencyTable) { l.NOP = 0 }},
	}
	for _, tc := range cases {
		l := DefaultLatencies()
		tc.mutate(&l)
		if err := l.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid table", tc.name)
		}
	}
}

func TestNewNoiseRejections(t *testing.T) {
	if _, err := NewNoise(1, -0.1, 0, 10); err == nil {
		t.Error("negative prob accepted")
	}
	if _, err := NewNoise(1, 1.0, 0, 10); err == nil {
		t.Error("prob 1.0 accepted")
	}
	if _, err := NewNoise(1, math.NaN(), 0, 10); err == nil {
		t.Error("NaN prob accepted")
	}
	if _, err := NewNoise(1, 0.5, 10, 5); err == nil {
		t.Error("max < min accepted")
	}
	// Full-domain span used to overflow span arithmetic to zero and
	// divide by zero inside Sample.
	if _, err := NewNoise(1, 0.5, 0, Cycles(math.MaxUint64)); err == nil {
		t.Error("full uint64 spike span accepted")
	}
	// Maximal non-overflowing span is fine and must not panic.
	n, err := NewNoise(1, 0.999, 1, Cycles(math.MaxUint64))
	if err != nil {
		t.Fatalf("near-full span rejected: %v", err)
	}
	for i := 0; i < 64; i++ {
		n.Sample()
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	a, err := NewNoise(42, 0.5, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewNoise(42, 0.5, 100, 200)
	spikes := 0
	for i := 0; i < 1000; i++ {
		sa, sb := a.Sample(), b.Sample()
		if sa != sb {
			t.Fatalf("sample %d diverged: %d vs %d", i, sa, sb)
		}
		if sa != 0 {
			spikes++
			if sa < 100 || sa > 200 {
				t.Fatalf("spike %d outside [100,200]", sa)
			}
		}
	}
	if spikes == 0 || spikes == 1000 {
		t.Fatalf("spike count %d implausible for prob 0.5", spikes)
	}
}

func TestQuietNeverSpikes(t *testing.T) {
	n := Quiet()
	for i := 0; i < 100; i++ {
		if s := n.Sample(); s != 0 {
			t.Fatalf("Quiet sampled %d", s)
		}
	}
}
