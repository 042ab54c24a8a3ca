package timing

import "testing"

// TestClockReset pins the cycle-counter half of the Reset/Recycle
// contract: a recycled machine's clock rebases to 0 so every latency
// anchor (DRAM window start, refresh schedule) matches a fresh
// device's construction-time reading.
func TestClockReset(t *testing.T) {
	c := MustNewClock(1_000_000_000)
	c.Advance(12345)
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("Now after Reset = %d, want 0", c.Now())
	}
	c.Advance(7)
	if c.Now() != 7 {
		t.Errorf("Now after Reset+Advance = %d, want 7", c.Now())
	}
}

// TestNoiseResetReplays pins the jitter half: Reset reseeds the
// generator from the stored seed, so a recycled machine's noise stream
// replays the fresh machine's sample for sample — the property the
// reset-equivalence difftest relies on to compare latencies exactly.
func TestNoiseResetReplays(t *testing.T) {
	n, err := NewNoise(42, 0.5, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]Cycles, 64)
	for i := range first {
		first[i] = n.Sample()
	}
	n.Reset()
	for i := range first {
		if got := n.Sample(); got != first[i] {
			t.Fatalf("sample %d after Reset = %d, want %d", i, got, first[i])
		}
	}
}

// TestNoiseResetToReplaysFresh pins the re-stamp variant the sweep
// engine's recycled machines use: ResetTo(s) on a source built with
// another seed replays a fresh NewNoise(s, ...) sample for sample.
func TestNoiseResetToReplaysFresh(t *testing.T) {
	recycled, err := NewNoise(1, 0.5, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		recycled.Sample() // dirty the stream mid-way
	}
	recycled.ResetTo(42)
	fresh, err := NewNoise(42, 0.5, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	spikes := 0
	for i := 0; i < 64; i++ {
		want := fresh.Sample()
		if got := recycled.Sample(); got != want {
			t.Fatalf("sample %d after ResetTo = %d, want %d", i, got, want)
		}
		if want != 0 {
			spikes++
		}
	}
	if spikes == 0 {
		t.Fatal("fresh stream never spiked; the comparison would be vacuous")
	}
	// Reset rewinds to the new seed, not the construction seed.
	recycled.Reset()
	fresh.Reset()
	for i := 0; i < 64; i++ {
		if got, want := recycled.Sample(), fresh.Sample(); got != want {
			t.Fatalf("sample %d after ResetTo then Reset = %d, want %d", i, got, want)
		}
	}
}
