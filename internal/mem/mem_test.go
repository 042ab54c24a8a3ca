package mem

import (
	"math/rand"
	"strings"
	"testing"
)

func TestLevelStrings(t *testing.T) {
	want := map[Level]string{
		LevelNone:     "none",
		LevelTLB1:     "dTLB",
		LevelTLB2:     "sTLB",
		LevelPageWalk: "page-walk",
		LevelL1:       "L1",
		LevelL2:       "L2",
		LevelLLC:      "LLC",
		LevelDRAM:     "DRAM",
	}
	for l, s := range want {
		if got := l.String(); got != s {
			t.Errorf("Level %d String = %q, want %q", int(l), got, s)
		}
	}
	if got := Level(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown level String = %q", got)
	}
}

func TestSetAssocLRUAndInvalidate(t *testing.T) {
	s := NewSetAssoc(2, 2) // tags index sets by low bit

	// Fill set 0 (even tags), refresh tag 0, then overflow: LRU victim
	// must be tag 2.
	s.Insert(0)
	s.Insert(2)
	if !s.Lookup(0) {
		t.Fatal("tag 0 missing after insert")
	}
	ev, evicted := s.Insert(4)
	if !evicted || ev != 2 {
		t.Fatalf("evicted (%d, %v), want (2, true)", ev, evicted)
	}
	if !s.Contains(0) || s.Contains(2) || !s.Contains(4) {
		t.Fatal("post-eviction contents wrong")
	}

	// Re-inserting a present tag refreshes instead of evicting.
	if _, evicted := s.Insert(0); evicted {
		t.Fatal("refreshing insert evicted")
	}

	// Odd tags live in set 1, undisturbed.
	s.Insert(1)
	if !s.Contains(1) || !s.Contains(0) {
		t.Fatal("sets interfered")
	}

	if !s.Invalidate(4) || s.Contains(4) {
		t.Fatal("Invalidate failed")
	}
	if s.Invalidate(4) {
		t.Fatal("double Invalidate reported a hit")
	}
	if s.Lookup(4) {
		t.Fatal("invalidated tag still present")
	}
}

func TestNewSetAssocPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][2]int{{MaxEntries, 1}, {MaxEntries / MaxWays, MaxWays}} {
		if err := CheckShape(shape[0], shape[1]); err != nil {
			t.Errorf("CheckShape(%d, %d) at the entry cap: %v", shape[0], shape[1], err)
		}
	}
	// The last two are past MaxEntries: a 2^21-entry array, and the
	// 2^50 sets of a 2^60-byte LLC, which would panic in make instead.
	for _, shape := range [][2]int{{0, 2}, {2, 0}, {3, 2}, {-4, 2}, {1, MaxWays + 1}, {MaxEntries / 2, 4}, {1 << 50, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSetAssoc(%d, %d) did not panic", shape[0], shape[1])
				}
			}()
			NewSetAssoc(shape[0], shape[1])
		}()
	}
}

// TestLookupInsertMatchesLookupThenInsert is the fused-probe property
// test: on a random tag stream, LookupInsert must leave the array in
// exactly the state of the unfused Lookup-then-Insert pair, and report
// the same hits and evictions.
func TestLookupInsertMatchesLookupThenInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fused := NewSetAssoc(4, 3)
	plain := NewSetAssoc(4, 3)
	for i := 0; i < 20000; i++ {
		tag := rng.Uint64() % 64 // heavy set reuse so evictions are common
		hit, evTag, evicted := fused.LookupInsert(tag)
		wantHit := plain.Lookup(tag)
		wantEvTag, wantEvicted := uint64(0), false
		if !wantHit {
			wantEvTag, wantEvicted = plain.Insert(tag)
		}
		if hit != wantHit || evicted != wantEvicted || evTag != wantEvTag {
			t.Fatalf("step %d tag %d: fused (%v, %d, %v) != plain (%v, %d, %v)",
				i, tag, hit, evTag, evicted, wantHit, wantEvTag, wantEvicted)
		}
		// Occasionally invalidate to exercise the packed-prefix repair.
		if i%7 == 0 {
			victim := rng.Uint64() % 64
			if fused.Invalidate(victim) != plain.Invalidate(victim) {
				t.Fatalf("step %d: Invalidate(%d) diverged", i, victim)
			}
		}
		for tag := uint64(0); tag < 64; tag++ {
			if fused.Contains(tag) != plain.Contains(tag) {
				t.Fatalf("step %d: contents diverged at tag %d", i, tag)
			}
		}
	}
}

// TestSetAssocValues exercises the payload plumbing the TLB and
// paging-structure caches rely on: values ride along inserts, survive
// refreshes and the packed-prefix swap Invalidate performs, and die
// with eviction.
func TestSetAssocValues(t *testing.T) {
	s := NewSetAssoc(1, 3)
	s.InsertV(10, 100)
	s.InsertV(20, 200)
	s.InsertV(30, 300)

	if v, hit := s.LookupV(20); !hit || v != 200 {
		t.Fatalf("LookupV(20) = %d/%v, want 200/true", v, hit)
	}
	if v, hit := s.LookupV(99); hit || v != 0 {
		t.Fatalf("LookupV(99) = %d/%v, want miss", v, hit)
	}

	// A hit via the fused probe returns the stored value, not the
	// provided one: cached translations are not silently remapped.
	if hit, cur, _, _ := s.LookupInsertV(10, 999); !hit || cur != 100 {
		t.Fatalf("LookupInsertV(10) = %v/%d, want hit/100", hit, cur)
	}

	// Invalidate the middle entry: the packed-prefix swap must carry
	// tag 30's value along with its tag.
	s.Invalidate(20)
	if v, hit := s.LookupV(30); !hit || v != 300 {
		t.Fatalf("after Invalidate(20), LookupV(30) = %d/%v, want 300/true", v, hit)
	}

	// Refill, touch everything except 10 so it is LRU, then overflow:
	// the eviction must surface tag 10 and install 50's value.
	s.InsertV(40, 400)
	s.LookupV(30)
	s.LookupV(40)
	if _, _, evTag, evicted := s.LookupInsertV(50, 500); !evicted || evTag != 10 {
		t.Fatalf("eviction = %d/%v, want 10/true", evTag, evicted)
	}
	if v, hit := s.LookupV(50); !hit || v != 500 {
		t.Fatalf("LookupV(50) = %d/%v, want 500/true", v, hit)
	}
}

// TestLookupMissDoesNotPerturbLRU pins the tick fix: failed lookups
// must not advance replacement state, so the LRU victim is decided
// only by hits and inserts.
func TestLookupMissDoesNotPerturbLRU(t *testing.T) {
	s := NewSetAssoc(1, 2)
	s.Insert(10) // older
	s.Insert(20) // newer

	// A burst of misses between the inserts and the next eviction must
	// be invisible to replacement order.
	for i := 0; i < 100; i++ {
		if s.Lookup(30) {
			t.Fatal("absent tag reported present")
		}
	}
	ev, evicted := s.Insert(40)
	if !evicted || ev != 10 {
		t.Fatalf("evicted (%d, %v), want (10, true): miss stream perturbed LRU", ev, evicted)
	}

	// Hits do reorder: touch 20 (older than 40 now), then overflow —
	// the victim must be 40.
	if !s.Lookup(20) {
		t.Fatal("tag 20 missing")
	}
	ev, evicted = s.Insert(50)
	if !evicted || ev != 40 {
		t.Fatalf("evicted (%d, %v), want (40, true)", ev, evicted)
	}
}

// TestInvalidateKeepsLRUOrder exercises eviction order after the
// packed-prefix swap that Invalidate performs.
func TestInvalidateKeepsLRUOrder(t *testing.T) {
	s := NewSetAssoc(1, 4)
	for _, tag := range []uint64{1, 2, 3, 4} {
		s.Insert(tag)
	}
	s.Invalidate(1) // oldest goes away; 2 is now LRU
	s.Insert(5)     // fills the freed slot, no eviction
	if ev, evicted := s.Insert(6); !evicted || ev != 2 {
		t.Fatalf("evicted (%d, %v), want (2, true)", ev, evicted)
	}
}

// TestNoFalseHitOnTagZero pins the dead-lane SWAR regression: zeroBytes'
// borrow propagation can flag dead lanes above a true fingerprint match,
// and a dead slot's zeroed tag plane must never verify against a probed
// tag of 0. Tag 0 is reachable — line 0 for the caches, VPN 0 for the
// TLBs — so a false hit here let Invalidate(0) delete a live tag and
// corrupt the recency permutation.
func TestNoFalseHitOnTagZero(t *testing.T) {
	// A nonzero tag whose stored fingerprint byte is 1 — the byte
	// fpBroadcast(0) probes with — so its fingerprint match seeds the
	// borrow that flags the dead lanes above it.
	tag := uint64(1)
	for (tag*fpMul)>>56 > 1 {
		tag++
	}

	s := NewSetAssoc(1, 16)
	s.Insert(tag)

	if s.Lookup(0) {
		t.Fatal("Lookup(0) hit a set that never held tag 0")
	}
	if s.Invalidate(0) {
		t.Fatal("Invalidate(0) deleted from a set that never held tag 0")
	}
	if !s.Lookup(tag) || !s.Contains(tag) {
		t.Fatalf("live tag %#x lost after Invalidate(0)", tag)
	}

	// Tag 0 itself stays a first-class tag: insertable, findable,
	// removable.
	if hit, _, _ := s.LookupInsert(0); hit {
		t.Fatal("LookupInsert(0) hit before tag 0 was inserted")
	}
	if !s.Lookup(0) {
		t.Fatal("tag 0 missing after insert")
	}
	if !s.Invalidate(0) || s.Lookup(0) {
		t.Fatal("tag 0 did not invalidate cleanly")
	}
	if !s.Lookup(tag) {
		t.Fatalf("live tag %#x lost after removing tag 0", tag)
	}
}

// TestProbeBeyondWaysLanes pins the beyond-ways companion bug: with
// fewer than 8 ways the fingerprint words cover lanes the tag plane
// does not, so a candidate flag on such a lane sent verify into the
// next set's tags — and past the end of the array on the last set. A
// probed tag whose fingerprint equals the dead-lane byte makes every
// beyond-ways lane a candidate, so without candMask this panics.
func TestProbeBeyondWaysLanes(t *testing.T) {
	const sets, ways = 16, 4 // the dTLB shape
	// A tag in the last set whose fingerprint is the dead-lane byte.
	tag := uint64(sets - 1)
	for (tag*fpMul)>>56 != deadFP {
		tag += sets
	}

	s := NewSetAssoc(sets, ways)
	if s.Lookup(tag) || s.Invalidate(tag) {
		t.Fatal("empty structure reported a hit")
	}
	if _, ok := s.LookupV(tag); ok {
		t.Fatal("empty structure returned a value")
	}
	if hit, _, _ := s.LookupInsert(tag); hit {
		t.Fatal("LookupInsert hit on first insert")
	}
	if !s.Lookup(tag) {
		t.Fatal("tag missing after insert")
	}
}

// BenchmarkLookupInsertMiss measures the fused probe on a miss-heavy
// stream against a full 16-way set (the LLC shape).
func BenchmarkLookupInsertMiss(b *testing.B) {
	s := NewSetAssoc(1, 16)
	for tag := uint64(0); tag < 16; tag++ {
		s.Insert(tag)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LookupInsert(uint64(i))
	}
}

// BenchmarkLookupThenInsertMiss is the unfused baseline for comparison.
func BenchmarkLookupThenInsertMiss(b *testing.B) {
	s := NewSetAssoc(1, 16)
	for tag := uint64(0); tag < 16; tag++ {
		s.Insert(tag)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Lookup(uint64(i)) {
			s.Insert(uint64(i))
		}
	}
}
