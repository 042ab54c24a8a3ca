package mem

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// lruModel is the reference SetAssoc is checked against: per set, the
// live entries in recency order, most recent first, found by linear
// scan. It is true LRU by construction and shares no code or
// representation with the fingerprint/permutation core, so a bug in
// that core's SWAR scan or nibble arithmetic cannot hide in both arms.
type lruModel struct {
	mask uint64
	ways int
	sets [][]lruEntry
}

type lruEntry struct{ tag, val uint64 }

func newLRUModel(sets, ways int) *lruModel {
	return &lruModel{mask: uint64(sets - 1), ways: ways, sets: make([][]lruEntry, sets)}
}

// find returns tag's position in its set, -1 when absent.
func (m *lruModel) find(tag uint64) int {
	for i, e := range m.sets[tag&m.mask] {
		if e.tag == tag {
			return i
		}
	}
	return -1
}

// lookup refreshes tag's recency on a hit and returns its payload.
func (m *lruModel) lookup(tag uint64) (val uint64, hit bool) {
	i := m.find(tag)
	if i < 0 {
		return 0, false
	}
	set := m.sets[tag&m.mask]
	e := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = e
	return e.val, true
}

// lookupInsert is lookup, inserting tag as most recent on a miss and
// evicting the least recent entry of a full set.
func (m *lruModel) lookupInsert(tag, val uint64) (hit bool, cur, evictedTag uint64, evicted bool) {
	if cur, hit = m.lookup(tag); hit {
		return true, cur, 0, false
	}
	set := m.sets[tag&m.mask]
	if len(set) == m.ways {
		evictedTag, evicted = set[len(set)-1].tag, true
		set = set[:len(set)-1]
	}
	m.sets[tag&m.mask] = append([]lruEntry{{tag, val}}, set...)
	return false, 0, evictedTag, evicted
}

func (m *lruModel) invalidate(tag uint64) bool {
	i := m.find(tag)
	if i < 0 {
		return false
	}
	set := m.sets[tag&m.mask]
	m.sets[tag&m.mask] = append(set[:i], set[i+1:]...)
	return true
}

func (m *lruModel) reset() { clear(m.sets) }

// setOp names one SetAssoc method a lockstep step calls.
type setOp string

const (
	opLookupInsertV setOp = "LookupInsertV"
	opInsertV       setOp = "InsertV"
	opLookupInsert  setOp = "LookupInsert"
	opInsert        setOp = "Insert"
	opLookupV       setOp = "LookupV"
	opLookup        setOp = "Lookup"
	opInvalidate    setOp = "Invalidate"
	opContains      setOp = "Contains"
	opReset         setOp = "Reset"
)

// tagOps are the methods a tag-only array supports; payloadOps add the
// value-carrying ones (LookupV on a tag-only array would index its nil
// payload plane, and no caller does that).
var (
	tagOps     = []setOp{opLookupInsert, opInsert, opLookup, opInvalidate, opContains, opReset}
	payloadOps = []setOp{opLookupInsertV, opInsertV, opLookupInsert, opInsert, opLookupV, opLookup, opInvalidate, opContains, opReset}
)

// adversarialFPs are fingerprint bytes, (tag*fpMul)>>56, at the edges
// of the SWAR scan: 0 and 1 (the byte tag 0 probes with), and the
// dead-lane byte 0x80 with its neighbours.
var adversarialFPs = []uint64{0, 1, 0x7F, 0x80, 0x81}

// setsChoices are the set counts the lockstep covers and FuzzSetAssoc
// decodes a shape into.
var setsChoices = []int{1, 2, 4, 16}

// tagUniverse is the tag stream one set draws from: a small range
// (k·sets + set for k < ways+2, tag 0 among them in set 0) that fills
// the set, hits and evicts, then two tags of each adversarial
// fingerprint.
func tagUniverse(sets, ways, set int) []uint64 {
	var tags []uint64
	for k := 0; k < ways+2; k++ {
		tags = append(tags, uint64(k*sets+set))
	}
	for _, fp := range adversarialFPs {
		for tag, n := uint64(set), 0; n < 2; tag += uint64(sets) {
			if (tag*fpMul)>>56 == fp {
				tags = append(tags, tag)
				n++
			}
		}
	}
	return tags
}

// lockstep drives one SetAssoc and one lruModel of the same shape.
type lockstep struct {
	s     *SetAssoc
	m     *lruModel
	ops   []setOp
	tags  [][]uint64 // per set, its tagUniverse
	shape string
}

func newLockstep(sets, ways int, payload bool) *lockstep {
	l := &lockstep{m: newLRUModel(sets, ways), ops: tagOps, shape: fmt.Sprintf("%d sets × %d ways, tags only", sets, ways)}
	l.s = NewSetAssocTags(sets, ways)
	if payload {
		l.s, l.ops = NewSetAssoc(sets, ways), payloadOps
		l.shape = fmt.Sprintf("%d sets × %d ways, payload", sets, ways)
	}
	for set := 0; set < sets; set++ {
		l.tags = append(l.tags, tagUniverse(sets, ways, set))
	}
	return l
}

// step applies op to both arms and describes the first disagreement in
// their return values, "" when they agree.
func (l *lockstep) step(op setOp, tag, val uint64) string {
	s, m := l.s, l.m
	var got, want string
	switch op {
	case opLookupInsertV:
		got, want = fmt.Sprint(s.LookupInsertV(tag, val)), fmt.Sprint(m.lookupInsert(tag, val))
	case opInsertV:
		_, _, ev, evicted := m.lookupInsert(tag, val)
		got, want = fmt.Sprint(s.InsertV(tag, val)), fmt.Sprint(ev, evicted)
	case opLookupInsert:
		hit, _, ev, evicted := m.lookupInsert(tag, 0)
		got, want = fmt.Sprint(s.LookupInsert(tag)), fmt.Sprint(hit, ev, evicted)
	case opInsert:
		_, _, ev, evicted := m.lookupInsert(tag, 0)
		got, want = fmt.Sprint(s.Insert(tag)), fmt.Sprint(ev, evicted)
	case opLookupV:
		got, want = fmt.Sprint(s.LookupV(tag)), fmt.Sprint(m.lookup(tag))
	case opLookup:
		_, hit := m.lookup(tag)
		got, want = fmt.Sprint(s.Lookup(tag)), fmt.Sprint(hit)
	case opInvalidate:
		got, want = fmt.Sprint(s.Invalidate(tag)), fmt.Sprint(m.invalidate(tag))
	case opContains:
		got, want = fmt.Sprint(s.Contains(tag)), fmt.Sprint(m.find(tag) >= 0)
	case opReset:
		s.Reset()
		m.reset()
	}
	if got != want {
		return fmt.Sprintf("%s(%d) = %s, model %s", op, tag, got, want)
	}
	return ""
}

// agree checks presence of every tag either arm could hold.
func (l *lockstep) agree() string {
	for _, tags := range l.tags {
		for _, tag := range tags {
			if got, want := l.s.Contains(tag), l.m.find(tag) >= 0; got != want {
				return fmt.Sprintf("final Contains(%d) = %v, model %v", tag, got, want)
			}
		}
	}
	return ""
}

// TestSetAssocMatchesLRUModel drives every shape from 1 to 16 ways over
// 1, 2, 4 and 16 sets, with and without a payload plane, through seeded
// op streams in lockstep with the reference model, comparing every
// return value: hits, payloads, evicted tags. Each set's tags mix a
// small range with tags of adversarial fingerprints, which is what
// reaches the tag-0 false hit (deadFP) and the beyond-ways lanes
// (candMask); a plain small range reaches neither.
func TestSetAssocMatchesLRUModel(t *testing.T) {
	for _, sets := range setsChoices {
		for ways := 1; ways <= MaxWays; ways++ {
			for _, payload := range []bool{false, true} {
				l := newLockstep(sets, ways, payload)
				rng := rand.New(rand.NewPCG(uint64(sets), uint64(ways)))
				for i := 0; i < 3000; i++ {
					// Both op lists end in Reset: draw it rarely, so sets
					// spend most of the stream full.
					op := l.ops[rng.IntN(len(l.ops)-1)]
					if rng.IntN(500) == 0 {
						op = opReset
					}
					tags := l.tags[rng.IntN(sets)]
					if msg := l.step(op, tags[rng.IntN(len(tags))], rng.Uint64()); msg != "" {
						t.Fatalf("%s: op %d: %s", l.shape, i, msg)
					}
				}
				if msg := l.agree(); msg != "" {
					t.Fatalf("%s: %s", l.shape, msg)
				}
			}
		}
	}
}

// FuzzSetAssoc decodes a shape and an op stream and runs it in
// lockstep with the reference model. Input: byte 0 picks the ways
// (1 + b%16), byte 1 the set count (b%4 into setsChoices) and, with bit
// 2, the payload plane; then every three bytes are one step: the op
// (into the shape's op list), the set, and the tag (into that set's
// tagUniverse). The seeds replay the two SWAR-core regressions.
func FuzzSetAssoc(f *testing.F) {
	// seed encodes steps (op, set, tag) on a shape.
	seed := func(ways, setsIdx int, payload bool, steps ...[3]int) []byte {
		b1 := byte(setsIdx)
		if payload {
			b1 |= 4
		}
		data := []byte{byte(ways - 1), b1}
		for _, s := range steps {
			data = append(data, byte(s[0]), byte(s[1]), byte(s[2]))
		}
		return data
	}
	indexOf := func(list []setOp, op setOp) int {
		for i, o := range list {
			if o == op {
				return i
			}
		}
		panic(op)
	}
	tagWithFP := func(tags []uint64, fp uint64) int {
		for i, tag := range tags {
			if (tag*fpMul)>>56 == fp {
				return i
			}
		}
		panic(fp)
	}
	// The tag-0 false hit: one live tag with fingerprint byte 1 below
	// dead lanes, then Invalidate(0) on the 1 × 16 tag-only array. With
	// deadFP back at 0x00 the dead lane above verifies against tag 0.
	u := tagUniverse(1, 16, 0)
	f.Add(seed(16, 0, false,
		[3]int{indexOf(tagOps, opLookupInsert), 0, tagWithFP(u, 1)},
		[3]int{indexOf(tagOps, opInvalidate), 0, 0}))
	// The beyond-ways lanes: a dead-lane fingerprint probed in the last
	// set of the 16 × 4 dTLB shape. Without candMask verify indexes past
	// the tag plane.
	u = tagUniverse(16, 4, 15)
	f.Add(seed(4, 3, true,
		[3]int{indexOf(payloadOps, opLookup), 15, tagWithFP(u, deadFP)}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sets := setsChoices[data[1]%4]
		l := newLockstep(sets, 1+int(data[0]%16), data[1]&4 != 0)
		for i := 2; i+2 < len(data); i += 3 {
			tags := l.tags[int(data[i+1])%sets]
			op, tag := l.ops[int(data[i])%len(l.ops)], tags[int(data[i+2])%len(tags)]
			if msg := l.step(op, tag, uint64(i)*0x9E3779B97F4A7C15); msg != "" {
				t.Fatalf("%s: byte %d: %s", l.shape, i, msg)
			}
		}
		if msg := l.agree(); msg != "" {
			t.Fatalf("%s: %s", l.shape, msg)
		}
	})
}
