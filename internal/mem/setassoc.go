// Set-associative LRU array shared by the cache levels (tagged by line
// number) and the TLB levels (tagged by virtual page number). Keeping
// one implementation means replacement-policy fixes apply to both — an
// eviction-set algorithm tuned against the cache sees the same LRU the
// TLB uses.
package mem

import (
	"fmt"
	"math/bits"
)

// MaxWays is the largest associativity SetAssoc supports. The limit
// exists because replacement state is a packed permutation of 4-bit way
// indices in one uint64 per set; every structure the simulator models
// (16-way LLC, 8-way L1/L2, 4-way TLBs and paging-structure caches)
// fits with room to spare.
const MaxWays = 16

// setHdr is the per-set metadata, sized so the fingerprints, recency
// permutation and live count a probe needs all arrive on one host
// cache line with a single bounds check.
type setHdr struct {
	// fp holds the 8-bit fingerprint of each slot's tag, slot i in
	// byte i&7 of word i>>3. Dead and beyond-ways lanes hold deadFP.
	fp [2]uint64
	// order is the recency permutation: 16 nibbles, each a slot index,
	// most-recently-used at nibble 0. Invariant: always a full
	// permutation of 0..15, with every unused slot index i (i >= live)
	// parked at nibble position i, so inserting into slot `live` is a
	// move-to-front of a nibble at a known position.
	order uint64
	// live is the number of valid entries packed at the front of the
	// set.
	live uint64
}

// SetAssoc is a set-associative array of uint64 tags with true-LRU
// replacement. The set index is the tag's low bits, so callers index
// by line number or page number directly.
//
// Within a set, slot position carries no meaning — replacement order is
// decided purely by the recency permutation — so live entries are kept
// packed at the front of the set and every probe considers only the
// live prefix.
//
// The representation is built for the hammer hot path, where the target
// set is full and almost every probe misses:
//
//   - Presence is tested against 8-bit fingerprints with a SWAR
//     zero-byte scan: two 64-bit loads and a handful of ALU ops decide
//     "no way can match" without ever touching the tag plane, instead
//     of a data-dependent compare-and-branch loop over every way.
//     Fingerprint candidates (~1/256 per way) are verified against the
//     full tag.
//
//   - Recency is a packed permutation of 4-bit slot indices in one
//     uint64 per set, most-recent in the low nibble. A hit moves its
//     slot's nibble to the front with shift/mask arithmetic; a full-set
//     miss reads the LRU victim straight out of the top live nibble and
//     rotates it to the front. This is exactly the classic true-LRU
//     stack, so victims are bit-identical to the stamp-scan
//     implementation this replaced — only the O(ways) victim search is
//     gone.
type SetAssoc struct {
	ways    uint64
	setMask uint64
	// topShift extracts the LRU nibble of a full set: 4*ways - 4.
	topShift uint64
	// winMask covers the low 4*ways bits of the permutation — the
	// window that rotates when a full set evicts.
	winMask uint64
	// candMask keeps the SWAR candidate flags to lanes < ways. Lanes
	// beyond the associativity share the fingerprint words but have no
	// tag-plane slots, so an unmasked flag there would send verify into
	// the next set's tags — or past the end of the array on the last
	// set. The mask depends only on the shape, so it is one AND per
	// word on the probe path.
	candMask [2]uint64
	hdr      []setHdr
	// tags[set*ways ... set*ways+hdr[set].live) are the live tags.
	tags []uint64
	// vals[i] is the payload stored alongside tags[i]. Nil for tag-only
	// users; the TLB stores the physical frame a page maps to, the
	// paging-structure caches the next-level table frame.
	vals []uint64
}

const (
	fpMul = 0x9E3779B97F4A7C15 // Fibonacci hashing: fingerprint = top byte of tag*fpMul
	lo8   = 0x0101010101010101
	hi8   = 0x8080808080808080
	lo4   = 0x1111111111111111
	hi4   = 0x8888888888888888
	// orderInit parks slot index i at nibble position i.
	orderInit = 0xFEDCBA9876543210
	// deadFP is the fingerprint of a dead (or beyond-ways) lane. The
	// choice is load-bearing: the zeroBytes scan can only flag a lane
	// whose XOR byte is 0x00, or 0x01 with a borrow propagating in, so
	// a flagged lane's fingerprint is within 1 of the probed one. The
	// only probed tag that could falsely verify against a dead slot's
	// zeroed tag plane is tag 0 — reachable as line 0 or VPN 0 — and
	// tag 0 always probes with fingerprint 1 (fpBroadcast maps a
	// computed 0 to 1), XOR 0x81 against deadFP: high bit set, never
	// flagged, not even spuriously. Dead lanes within the
	// associativity therefore need no live masking on the probe fast
	// path; lanes beyond it are excluded by candMask.
	deadFP = 0x80
)

// MaxEntries caps an array's sets × ways. An array costs the host a
// 32-byte header per set and 8 bytes of tag (plus 8 of payload) per
// entry, so one at the cap asks for at most 48 MiB. The largest array
// a preset builds is SandyBridge's 8 MiB LLC, 2^17 entries; the cap is
// a 64 MiB LLC.
const MaxEntries = 1 << 20

// CheckShape reports why sets × ways is not a shape NewSetAssoc builds,
// or nil if it is: ways must be 1..MaxWays, the set count a positive
// power of two, and sets × ways at most MaxEntries. Config validators
// call it, so a config they accept never reaches NewSetAssoc's panic.
func CheckShape(sets, ways int) error {
	if ways < 1 || ways > MaxWays {
		return fmt.Errorf("ways %d outside 1..%d", ways, MaxWays)
	}
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("set count %d must be a positive power of two", sets)
	}
	if sets > MaxEntries/ways {
		return fmt.Errorf("%d sets × %d ways exceed the %d-entry cap", sets, ways, MaxEntries)
	}
	return nil
}

// NewSetAssoc builds an array of sets × ways slots with a payload plane
// (InsertV/LookupV users: the TLB and paging-structure caches). Panics
// on a shape CheckShape rejects (callers validate their configs first;
// a bad shape here is a simulator bug).
func NewSetAssoc(sets, ways int) *SetAssoc {
	s := NewSetAssocTags(sets, ways)
	s.vals = make([]uint64, uint64(sets)*uint64(ways))
	return s
}

// NewSetAssocTags builds a tag-only array (no payload plane): the data
// caches track line presence and never store a value, so skipping the
// plane removes one host cache line write per fill and a large part of
// the array footprint.
func NewSetAssocTags(sets, ways int) *SetAssoc {
	if err := CheckShape(sets, ways); err != nil {
		panic(fmt.Sprintf("mem: bad set-assoc shape %d sets × %d ways: %v", sets, ways, err))
	}
	s := &SetAssoc{
		ways:     uint64(ways),
		setMask:  uint64(sets) - 1,
		topShift: uint64(4*ways - 4),
		winMask:  uint64(1)<<(4*uint(ways)) - 1, // all ones for 16 ways (1<<64 == 0)
		hdr:      make([]setHdr, sets),
		tags:     make([]uint64, uint64(sets)*uint64(ways)),
	}
	for w := 0; w < ways; w++ {
		s.candMask[w>>3] |= uint64(0x80) << ((w & 7) * 8)
	}
	for i := range s.hdr {
		s.hdr[i].order = orderInit
		s.hdr[i].fp = [2]uint64{deadFP * lo8, deadFP * lo8}
	}
	return s
}

// Reset restores the array to the state NewSetAssoc(Tags) leaves it
// in: every set's LRU order, fingerprint lanes and live mask back to
// the fresh values, tag (and payload) planes zeroed. Part of the
// Reset/Recycle contract (CONTRIBUTING.md): a recycled array must be
// indistinguishable from a freshly constructed one, so machine
// recycling cannot leak one cohort's cache contents into the next.
//
//pthammer:noalloc
func (s *SetAssoc) Reset() {
	for i := range s.hdr {
		s.hdr[i].order = orderInit
		s.hdr[i].fp = [2]uint64{deadFP * lo8, deadFP * lo8}
		s.hdr[i].live = 0
	}
	clear(s.tags)
	clear(s.vals)
}

// fpBroadcast returns the tag's 8-bit fingerprint replicated into every
// byte lane, ready for the SWAR match. A computed fingerprint of 0 maps
// to 1, pinning tag 0's probe byte to 1 — the deadFP invariant relies
// on it — and keeping dead lanes (deadFP) out of the common probes.
//
//pthammer:noalloc
func fpBroadcast(tag uint64) uint64 {
	fp := (tag * fpMul) >> 56
	if fp == 0 {
		fp = 1
	}
	return fp * lo8
}

// zeroBytes flags (bit 8i+7) every zero byte of x. Borrow propagation
// can set spurious flags above the lowest zero byte, so callers verify
// each candidate against the tag plane.
//
//pthammer:noalloc
func zeroBytes(x uint64) uint64 { return (x - lo8) & ^x & hi8 }

// posOf returns the nibble position of slot index w in the recency
// permutation. Exactly one nibble matches (order is a permutation), and
// the SWAR zero-nibble artifact only flags positions above the true
// match, so the lowest flag is always it.
//
//pthammer:noalloc
func posOf(order, w uint64) uint64 {
	x := order ^ (w * lo4)
	return uint64(bits.TrailingZeros64((x-lo4)&^x&hi4)) >> 2
}

// moveToFront lifts the nibble at position p (which holds slot index w)
// to position 0, sliding positions 0..p-1 up one nibble. Positions
// above p are untouched.
//
//pthammer:noalloc
func moveToFront(order, p, w uint64) uint64 {
	low := order & (uint64(1)<<(4*p) - 1)
	keep := order &^ (uint64(1)<<(4*p+4) - 1)
	return keep | low<<4 | w
}

// setFP stores fingerprint byte fp for slot.
//
//pthammer:noalloc
func (h *setHdr) setFP(slot, fp uint64) {
	w := &h.fp[slot>>3&1]
	sh := (slot & 7) * 8
	*w = *w&^(uint64(0xFF)<<sh) | fp<<sh
}

// touch refreshes slot's recency unless it is already the MRU
// (repeated hits on one entry — the hot case for the paging-structure
// caches — then cost one compare).
//
//pthammer:noalloc
func (h *setHdr) touch(slot uint64) {
	if ord := h.order; ord&0xF != slot {
		h.order = moveToFront(ord, posOf(ord, slot), slot)
	}
}

// verify walks the candidate lane masks and confirms each against the
// tag plane. It is the out-of-line half of the probe: callers run the
// SWAR match inline (the overwhelmingly common zero-candidate miss
// stays branch-predictable straight-line code with no call) and only
// pay this call when some lane's fingerprint matched.
//
// Dead lanes need no masking here even though borrow propagation can
// flag one above a true fingerprint match: a dead slot's tag plane is
// zeroed, so it could only "verify" against a probed tag of 0, and tag
// 0's probe byte (1) XOR deadFP has the high bit set — zeroBytes can
// never flag a dead lane for it (see deadFP). Keeping that invariant in
// the fingerprint plane rather than as a live-count check here keeps
// this function within the inlining budget; the hit path pays no call.
//
//pthammer:noalloc
func (s *SetAssoc) verify(base, cand0, cand1, tag uint64) (slot uint64, ok bool) {
	for cand0 != 0 {
		i := uint64(bits.TrailingZeros64(cand0)) >> 3
		if s.tags[base+i] == tag {
			return i, true
		}
		cand0 &= cand0 - 1
	}
	for cand1 != 0 {
		i := 8 + uint64(bits.TrailingZeros64(cand1))>>3
		if s.tags[base+i] == tag {
			return i, true
		}
		cand1 &= cand1 - 1
	}
	return 0, false
}

// Lookup reports whether the tag is present, refreshing its recency on
// a hit. Misses leave replacement state untouched, so a stream of
// misses cannot perturb replacement order.
//
//pthammer:noalloc
func (s *SetAssoc) Lookup(tag uint64) bool {
	idx := tag & s.setMask
	h := &s.hdr[idx]
	b := fpBroadcast(tag)
	cand0 := zeroBytes(h.fp[0]^b) & s.candMask[0]
	cand1 := zeroBytes(h.fp[1]^b) & s.candMask[1]
	if cand0|cand1 != 0 {
		if slot, ok := s.verify(idx*s.ways, cand0, cand1, tag); ok {
			h.touch(slot)
			return true
		}
	}
	return false
}

// LookupV is Lookup for value-carrying users: a hit refreshes the
// tag's recency and returns the stored payload.
//
//pthammer:noalloc
func (s *SetAssoc) LookupV(tag uint64) (val uint64, hit bool) {
	idx := tag & s.setMask
	h := &s.hdr[idx]
	base := idx * s.ways
	b := fpBroadcast(tag)
	cand0 := zeroBytes(h.fp[0]^b) & s.candMask[0]
	cand1 := zeroBytes(h.fp[1]^b) & s.candMask[1]
	if cand0|cand1 != 0 {
		if slot, ok := s.verify(base, cand0, cand1, tag); ok {
			h.touch(slot)
			return s.vals[base+slot], true
		}
	}
	return 0, false
}

// Insert places the tag, evicting the LRU way if the set is full. It
// returns the evicted tag (valid only when evicted is true); inserting
// an already-present tag just refreshes it.
//
//pthammer:noalloc
func (s *SetAssoc) Insert(tag uint64) (evictedTag uint64, evicted bool) {
	return s.InsertV(tag, 0)
}

// InsertV is Insert with a payload attached to the tag.
//
//pthammer:noalloc
func (s *SetAssoc) InsertV(tag, val uint64) (evictedTag uint64, evicted bool) {
	_, _, evictedTag, evicted = s.LookupInsertV(tag, val)
	return evictedTag, evicted
}

// LookupInsert probes the set exactly once: on a hit it refreshes the
// tag's recency; on a miss it inserts the tag, evicting the LRU way if
// the set is full. It fuses the Lookup-then-Insert pair every
// cache/TLB miss path used to pay as two scans of the same set.
//
//pthammer:noalloc
func (s *SetAssoc) LookupInsert(tag uint64) (hit bool, evictedTag uint64, evicted bool) {
	hit, _, evictedTag, evicted = s.LookupInsertV(tag, 0)
	return hit, evictedTag, evicted
}

// LookupInsertV is the value-carrying fused probe. On a hit it
// refreshes the tag's recency and returns the payload already stored
// (the provided val is ignored: a cached translation is never silently
// remapped — invalidate first). On a miss it inserts the tag with val,
// evicting the LRU way if the set is full.
//
//pthammer:noalloc
func (s *SetAssoc) LookupInsertV(tag, val uint64) (hit bool, cur uint64, evictedTag uint64, evicted bool) {
	idx := tag & s.setMask
	h := &s.hdr[idx]
	base := idx * s.ways
	b := fpBroadcast(tag)
	cand0 := zeroBytes(h.fp[0]^b) & s.candMask[0]
	cand1 := zeroBytes(h.fp[1]^b) & s.candMask[1]
	if cand0|cand1 != 0 {
		if slot, ok := s.verify(base, cand0, cand1, tag); ok {
			h.touch(slot)
			if s.vals != nil {
				cur = s.vals[base+slot]
			}
			return true, cur, 0, false
		}
	}
	fp := b & 0xFF
	n := h.live
	if n < s.ways {
		// Room left: grow the live prefix instead of evicting. Slot
		// index n's nibble is parked at position n by invariant.
		slot := base + n
		s.tags[slot] = tag
		h.setFP(n, fp)
		h.order = moveToFront(h.order, n, n)
		if s.vals != nil {
			s.vals[slot] = val
		}
		h.live = n + 1
		return false, 0, 0, false
	}
	// Full set: the LRU victim is the top live nibble; refreshing it is
	// a rotate of the live window.
	ord := h.order
	win := ord & s.winMask
	v := win >> s.topShift
	evictedTag = s.tags[base+v]
	s.tags[base+v] = tag
	h.setFP(v, fp)
	h.order = ord&^s.winMask | (win<<4|v)&s.winMask
	if s.vals != nil {
		s.vals[base+v] = val
	}
	return false, 0, evictedTag, true
}

// removeNibble deletes the nibble at position p, sliding higher
// positions down; the vacated top nibble is left zero for the caller
// to repair with insertNibble.
//
//pthammer:noalloc
func removeNibble(order, p uint64) uint64 {
	low := order & (uint64(1)<<(4*p) - 1)
	return order>>(4*p+4)<<(4*p) | low
}

// insertNibble places value w at position p, sliding positions >= p up
// one nibble (the top nibble falls off).
//
//pthammer:noalloc
func insertNibble(order, p, w uint64) uint64 {
	low := order & (uint64(1)<<(4*p) - 1)
	return order>>(4*p)<<(4*p+4) | w<<(4*p) | low
}

// Invalidate drops the tag if present, reporting whether it was. The
// last live entry moves into the vacated slot to keep the prefix
// packed (slot order is meaningless; LRU lives in the permutation),
// and its nibble is renamed accordingly so relative recency of the
// survivors is untouched — exactly the behaviour of the stamp-plane
// implementation this replaced.
//
//pthammer:noalloc
func (s *SetAssoc) Invalidate(tag uint64) bool {
	idx := tag & s.setMask
	h := &s.hdr[idx]
	base := idx * s.ways
	n := h.live
	b := fpBroadcast(tag)
	cand0 := zeroBytes(h.fp[0]^b) & s.candMask[0]
	cand1 := zeroBytes(h.fp[1]^b) & s.candMask[1]
	if cand0|cand1 == 0 {
		return false
	}
	slot, ok := s.verify(base, cand0, cand1, tag)
	if !ok {
		return false
	}
	last := n - 1
	ord := removeNibble(h.order, posOf(h.order, slot))
	if slot != last {
		// Move the last live entry into the vacated slot and rename its
		// nibble. posOf is safe on the 15-nibble intermediate: last >= 1
		// here, and the spurious top nibble removeNibble leaves is 0.
		pl := posOf(ord, last)
		ord = ord&^(0xF<<(4*pl)) | slot<<(4*pl)
		s.tags[base+slot] = s.tags[base+last]
		h.setFP(slot, h.fp[last>>3&1]>>((last&7)*8)&0xFF)
		if s.vals != nil {
			s.vals[base+slot] = s.vals[base+last]
		}
	}
	// Park the now-unused slot index at its canonical position.
	h.order = insertNibble(ord, last, last)
	s.tags[base+last] = 0
	h.setFP(last, deadFP)
	if s.vals != nil {
		s.vals[base+last] = 0
	}
	h.live = last
	return true
}

// Contains reports presence without disturbing LRU state, for tests
// and introspection.
//
//pthammer:noalloc
func (s *SetAssoc) Contains(tag uint64) bool {
	base := (tag & s.setMask) * s.ways
	tags := s.tags[base : base+s.hdr[tag&s.setMask].live]
	for i := range tags {
		if tags[i] == tag {
			return true
		}
	}
	return false
}
