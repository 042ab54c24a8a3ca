package main

import (
	"runtime"
	"slices"
	"sort"
	"time"
)

// The benchmark reports op times at a reference host speed. On a shared
// host, neighbours slow everything for seconds to minutes at a time: a
// hammer op takes 4 ms while the host is calm and 7–9 ms while it is
// not, and ten 10-second hammer runs put their work_per_s 27% apart
// between quartiles. A fixed kernel of random loads over a table the
// size of the host core's 2 MiB L2, timed every refEvery between ops,
// slows down with them, and scaling each op by refNominal over the
// kernel's time around it brought the same ten runs to 15% (population
// from 15% to 6%, sweep from 15% to 8%). Set-up, whose spread it did
// not narrow, stays as measured.
//
// The kernel is self-contained, so no change to the repository can make
// it faster or slower. It runs after a forced collection, so the
// workload's own collector is not running beside it, and after a
// sequential pass that pulls its table into the cache, so what an op
// left in the cache matters little. What remains of the workload in
// its time — the next collection's background work, say — is the
// same for parent and change unless the change moves it.
const (
	refEvery   = 250 * time.Millisecond
	refNominal = 120 * time.Microsecond
)

// hostRef samples the reference kernel.
type hostRef struct {
	table []uint64
	start time.Time
	// at and took are the samples: when each was taken, since start,
	// and how long the kernel ran.
	at, took []time.Duration
}

func newHostRef() *hostRef {
	return &hostRef{table: make([]uint64, 2<<20/8), start: time.Now()}
}

// sample runs the kernel once and records it.
func (h *hostRef) sample() {
	runtime.GC()
	for i := range h.table {
		h.table[i]++
	}
	t := time.Now()
	x := uint64(1)
	for i := 0; i < 20_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.table[x>>46] += x
	}
	h.took = append(h.took, time.Since(t))
	h.at = append(h.at, t.Sub(h.start))
}

// due samples when refEvery has passed since the last sample.
func (h *hostRef) due() {
	if n := len(h.at); n == 0 || time.Since(h.start)-h.at[n-1] >= refEvery {
		h.sample()
	}
}

// normalize rescales op times, ops[i] having started at starts[i]
// (since h.start), by the median of the two samples before each op and
// the one after it; the caller samples once more after the last op.
func (h *hostRef) normalize(ops, starts []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ops))
	for i, d := range ops {
		j := sort.Search(len(h.at), func(k int) bool { return h.at[k] >= starts[i] })
		near := slices.Clone(h.took[max(0, j-2):min(len(h.took), j+1)])
		slices.Sort(near)
		out[i] = time.Duration(float64(d) * float64(refNominal) / float64(near[len(near)/2]))
	}
	return out
}
