// Package timing provides the simulator's cycle clock, the per-machine
// latency table, and a seeded noise model standing in for interrupts and
// other measurement disturbance. All simulated devices charge their costs
// to one shared Clock, so "how long did this phase take" is always the
// difference of two cycle readings — the analogue of rdtsc on the paper's
// test machines.
package timing

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Cycles counts CPU core cycles.
type Cycles uint64

// Horizon returns the cycle n windows of the given length after start.
// Window budgets pass through it so that a count whose horizon does not
// fit in Cycles is an error naming the count. Unchecked, start+n·window
// wraps: 2^60 windows of any length divisible by 16 come out as exactly
// 0 cycles, a budget that ends before it begins.
func Horizon(start Cycles, n uint64, window Cycles) (Cycles, error) {
	hi, span := bits.Mul64(n, uint64(window))
	end, carry := bits.Add64(uint64(start), span, 0)
	if hi != 0 || carry != 0 {
		return 0, fmt.Errorf("timing: %d windows of %d cycles overflow the cycle clock", n, window)
	}
	return Cycles(end), nil
}

// Clock is the global cycle counter for one simulated machine. Its
// zero value is a fresh clock reading cycle 0.
type Clock struct {
	now Cycles
}

// Now returns the current cycle count (the simulated rdtsc).
//
//pthammer:noalloc
func (c *Clock) Now() Cycles { return c.now }

// Advance moves the clock forward by n cycles.
//
//pthammer:noalloc
func (c *Clock) Advance(n Cycles) { c.now += n }

// Reset rebases the clock to cycle 0, the value a fresh clock starts
// at. Part of the Reset/Recycle contract: a recycled machine's phase
// timings are cycle deltas from zero, exactly as on a freshly
// constructed one.
//
//pthammer:noalloc
func (c *Clock) Reset() { c.now = 0 }

// LatencyTable holds the cost in cycles of each microarchitectural event.
// The values are per-machine and calibrated so the simulated distributions
// land in the ranges the paper reports (Figures 5 and 6).
type LatencyTable struct {
	// Cache hierarchy hit latencies.
	L1Hit  Cycles
	L2Hit  Cycles
	LLCHit Cycles

	// DRAM access latencies by row-buffer outcome.
	DRAMRowHit      Cycles // row already open
	DRAMRowClosed   Cycles // bank precharged, row must be activated
	DRAMRowConflict Cycles // different row open: precharge + activate

	// TLB lookup costs.
	TLBL1Hit Cycles // dTLB hit
	TLBL2Hit Cycles // sTLB hit (after dTLB miss)

	// Paging-structure cache hit (per level consulted).
	PSCacheHit Cycles

	// PageWalkStep is the fixed per-level overhead of the hardware walker
	// on top of the memory access that fetches the entry.
	PageWalkStep Cycles

	// Register/ALU cost of one NOP (for the Figure 5 padding sweep).
	NOP Cycles

	// CLFlushCost models the clflush instruction used by the explicit
	// baseline.
	CLFlushCost Cycles

	// LLCArbitration is the extra cost of an LLC access that has to win
	// the shared slice back from another core: it is charged only when
	// the previous LLC access came from a different core, so a
	// single-core machine never pays it. Zero disables the charge.
	LLCArbitration Cycles

	// DRAMBankArbitration is the per-bank analogue: the scheduling
	// penalty when consecutive requests to one bank come from different
	// cores. Like LLCArbitration it can never fire on a single-core
	// machine and may be zero.
	DRAMBankArbitration Cycles
}

// DefaultLatencies returns a latency table with Sandy/Ivy Bridge-class
// values. Machine presets tweak individual entries.
func DefaultLatencies() LatencyTable {
	return LatencyTable{
		L1Hit:           4,
		L2Hit:           12,
		LLCHit:          30,
		DRAMRowHit:      90,
		DRAMRowClosed:   135,
		DRAMRowConflict: 190,
		TLBL1Hit:        1,
		TLBL2Hit:        7,
		PSCacheHit:      2,
		PageWalkStep:    3,
		NOP:             1,
		CLFlushCost:     40,
		// Contention costs for the multi-core mode; a single-core
		// machine never charges either (there is no other core to have
		// touched the shared structure since the last access).
		LLCArbitration:      8,
		DRAMBankArbitration: 24,
	}
}

// Validate reports an error if any latency is zero or the ordering
// invariants (L1 < L2 < LLC < DRAM; row hit < closed < conflict) are
// violated.
func (t LatencyTable) Validate() error {
	switch {
	case t.L1Hit == 0 || t.L2Hit == 0 || t.LLCHit == 0:
		return fmt.Errorf("timing: cache latencies must be positive")
	case !(t.L1Hit < t.L2Hit && t.L2Hit < t.LLCHit):
		return fmt.Errorf("timing: cache latencies must be strictly increasing (L1 %d, L2 %d, LLC %d)", t.L1Hit, t.L2Hit, t.LLCHit)
	case !(t.LLCHit < t.DRAMRowHit):
		return fmt.Errorf("timing: DRAM row hit (%d) must exceed LLC hit (%d)", t.DRAMRowHit, t.LLCHit)
	case !(t.DRAMRowHit < t.DRAMRowClosed && t.DRAMRowClosed < t.DRAMRowConflict):
		return fmt.Errorf("timing: DRAM latencies must order hit < closed < conflict")
	case t.TLBL1Hit == 0 || t.TLBL2Hit == 0:
		return fmt.Errorf("timing: TLB latencies must be positive")
	case !(t.TLBL1Hit < t.TLBL2Hit):
		return fmt.Errorf("timing: dTLB hit (%d) must be cheaper than sTLB hit (%d)", t.TLBL1Hit, t.TLBL2Hit)
	case t.PSCacheHit == 0:
		return fmt.Errorf("timing: paging-structure cache hit cost must be positive")
	case t.PageWalkStep == 0:
		return fmt.Errorf("timing: page walk step cost must be positive")
	case t.CLFlushCost == 0:
		return fmt.Errorf("timing: clflush cost must be positive")
	case t.NOP == 0:
		return fmt.Errorf("timing: NOP cost must be positive")
	}
	return nil
}

// Noise injects occasional latency spikes into timed measurements,
// standing in for interrupts, SMIs and prefetcher interference on the real
// machines. It is what gives Algorithm 2 its (bounded) false-positive
// rate. Deterministic for a given seed.
type Noise struct {
	rng *rand.Rand
	// seed rebuilds the stream on Reset; kept so a recycled source
	// replays exactly the sequence a fresh NewNoise(seed, ...) would.
	// ResetTo replaces it.
	seed int64
	// prob is the per-measurement probability of a spike, in [0,1).
	prob float64
	// minSpike/maxSpike bound the added cycles when a spike fires.
	minSpike, maxSpike Cycles
}

// NewNoise creates a noise source. prob is the spike probability per
// sample; spikes add a uniform value in [minSpike, maxSpike].
func NewNoise(seed int64, prob float64, minSpike, maxSpike Cycles) (*Noise, error) {
	// The negated form also rejects NaN, which would otherwise pass
	// both one-sided checks and make every Sample spike.
	if !(prob >= 0 && prob < 1) {
		return nil, fmt.Errorf("timing: noise probability %v outside [0,1)", prob)
	}
	if maxSpike < minSpike {
		return nil, fmt.Errorf("timing: maxSpike %d < minSpike %d", maxSpike, minSpike)
	}
	// Sample draws from [minSpike, maxSpike] via Uint64() % (max-min+1);
	// a range spanning the full uint64 domain overflows that span to 0
	// and would divide by zero, so reject it here.
	if uint64(maxSpike-minSpike) == math.MaxUint64 {
		return nil, fmt.Errorf("timing: spike range [%d, %d] spans the full uint64 domain", minSpike, maxSpike)
	}
	return &Noise{rng: rand.New(rand.NewSource(seed)), seed: seed, prob: prob, minSpike: minSpike, maxSpike: maxSpike}, nil
}

// Reset rewinds the spike stream to its seed, so a recycled noise
// source produces the same sample sequence as a freshly constructed
// one. Part of the Reset/Recycle contract. A quiet source (prob 0,
// fixed at NewNoise) never draws from its stream, so it skips the
// reseed, which refills math/rand's 607-word state.
//
//pthammer:noalloc
func (n *Noise) Reset() {
	if n.prob != 0 {
		n.rng.Seed(n.seed)
	}
}

// ResetTo is Reset with a new seed: the recycled source replays exactly
// the sample sequence a fresh NewNoise(seed, ...) with the same spike
// parameters would. Machine recycling seeds through it, so a recycled
// machine can take a new noise seed (the sweep engine's per-shard
// seeds) without being rebuilt.
//
//pthammer:noalloc
func (n *Noise) ResetTo(seed int64) {
	n.seed = seed
	n.Reset()
}

// Quiet returns a noise source that never spikes.
func Quiet() *Noise {
	n, err := NewNoise(0, 0, 0, 0)
	if err != nil {
		panic(err)
	}
	return n
}

// Sample returns the extra cycles to add to one timed measurement.
//
//pthammer:noalloc
func (n *Noise) Sample() Cycles {
	if n.prob == 0 {
		return 0
	}
	if n.rng.Float64() >= n.prob {
		return 0
	}
	span := uint64(n.maxSpike - n.minSpike + 1)
	return n.minSpike + Cycles(n.rng.Uint64()%span)
}
