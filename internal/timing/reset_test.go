package timing

import (
	"math/rand"
	"testing"
)

// TestClockReset pins the cycle-counter half of the Reset/Recycle
// contract: a recycled machine's clock rebases to 0 so every latency
// anchor (DRAM window start, refresh schedule) matches a fresh
// device's construction-time reading.
func TestClockReset(t *testing.T) {
	c := &Clock{}
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

// TestQuietNoiseResetSkipsReseed: a quiet source (prob 0) never draws
// from its stream, so Reset and ResetTo leave the stream alone instead
// of paying math/rand's reseed — a recycled multi-tenant machine resets
// two such sources per tenant. It still replays a fresh quiet source
// (every sample 0) and carries the new seed.
func TestQuietNoiseResetSkipsReseed(t *testing.T) {
	quiet, err := NewNoise(1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	quiet.ResetTo(42)
	quiet.Reset()
	fresh, err := NewNoise(42, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if got, want := quiet.Sample(), fresh.Sample(); got != want || got != 0 {
			t.Fatalf("sample %d of a recycled quiet source = %d, fresh %d, want 0", i, got, want)
		}
	}
	if quiet.seed != 42 {
		t.Errorf("ResetTo kept seed %d, want 42", quiet.seed)
	}
	// The stream was never reseeded: it still continues seed 1's.
	if got, want := quiet.rng.Int63(), rand.New(rand.NewSource(1)).Int63(); got != want {
		t.Errorf("quiet stream draws %d after ResetTo, want seed 1's untouched first draw %d", got, want)
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
