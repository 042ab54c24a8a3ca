package sparse

import (
	"math"
	"math/rand/v2"
	"testing"
)

// materialized returns how many chunks the array holds, the sentinel
// not counted.
func (a *Array) materialized() int { return len(a.chunks) - 1 }

// TestArrayMatchesMap runs seeded streams of reads, writes, zeroing
// writes, Clears and Incs on an array whose length leaves its last
// chunk partial, beside a map that holds every nonzero entry. Every
// entry reads as the map's, Inc counts only in materialized chunks and
// saturates, none of Get, Clear and Inc materializes anything (a Clear
// into a range never written stores into the sentinel, which must
// still read as zeros), and the array holds exactly one chunk for each
// chunk-sized range Ref has reached.
func TestArrayMatchesMap(t *testing.T) {
	const n = 3*ChunkLen + 5
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, n))
		a := Make(n)
		want := map[uint64]uint32{}
		written := map[uint64]bool{}
		for step := 0; step < 4000; step++ {
			// Half the indices sit within two entries of a chunk boundary.
			i := rng.Uint64N(n)
			if rng.IntN(2) == 0 {
				b := rng.Uint64N(n/ChunkLen+1) * ChunkLen
				i = min(n-1, max(b, 2)-2+rng.Uint64N(4))
			}
			switch rng.IntN(6) {
			case 0, 1:
				if got := a.Get(i); got != want[i] {
					t.Fatalf("seed %d step %d: Get(%d) = %d, want %d", seed, step, i, got, want[i])
				}
			case 2:
				v := rng.Uint32()
				if rng.IntN(4) == 0 {
					v = math.MaxUint32 - uint32(rng.IntN(2))
				}
				*a.Ref(i) = v
				want[i] = v
				written[i>>chunkShift] = true
			case 3:
				*a.Ref(i) = 0
				delete(want, i)
				written[i>>chunkShift] = true
			case 4:
				a.Clear(i)
				delete(want, i)
			case 5:
				old, held := want[i], written[i>>chunkShift]
				if got, ok := a.Inc(i); got != old || ok != held {
					t.Fatalf("seed %d step %d: Inc(%d) = %d, %v, want %d, %v", seed, step, i, got, ok, old, held)
				}
				if held && old != math.MaxUint32 {
					want[i] = old + 1
				}
			}
			if a.materialized() != len(written) {
				t.Fatalf("seed %d step %d: %d chunks, want %d", seed, step, a.materialized(), len(written))
			}
		}
		for i := uint64(0); i < n; i++ {
			if got := a.Get(i); got != want[i] {
				t.Fatalf("seed %d: final Get(%d) = %d, want %d", seed, i, got, want[i])
			}
		}
	}
}

// TestArrayRoundsUpToChunks: the directory covers whole chunks, so an
// index past the length inside the last, partial chunk reads zero —
// callers that must reject it check the length themselves — and one
// past the last chunk panics.
func TestArrayRoundsUpToChunks(t *testing.T) {
	const n = ChunkLen + 1
	a := Make(n)
	*a.Ref(n - 1) = 7
	if got := a.Get(2*ChunkLen - 1); got != 0 {
		t.Errorf("Get past the length inside the last chunk = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Get past the last chunk did not panic")
		}
	}()
	a.Get(2 * ChunkLen)
}

// TestRefAllocatesOncePerChunk: writing into a chunk-sized range
// allocates only while its chunk is first materialized; zeroing what
// was written and writing the same ranges again allocates nothing.
func TestRefAllocatesOncePerChunk(t *testing.T) {
	a := Make(8 * ChunkLen)
	fill := func(v uint32) {
		for i := uint64(3); i < 8*ChunkLen; i += ChunkLen / 2 {
			*a.Ref(i) = v
		}
	}
	fill(1)
	if got := testing.AllocsPerRun(50, func() { fill(0); fill(2) }); got != 0 {
		t.Errorf("rewriting materialized chunks: %v allocs/op, want 0", got)
	}
	if a.materialized() != 8 {
		t.Errorf("%d chunks, want 8", a.materialized())
	}
}
