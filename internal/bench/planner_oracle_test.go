package bench

import (
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"pthammer/internal/dram"
	"pthammer/internal/flip"
	"pthammer/internal/machine"
	"pthammer/internal/pagetable"
	"pthammer/internal/phys"
)

// bruteForcePairs is the escalation planner's ranking computed the
// slow, obvious way, sharing no code with NewEscalationPlanner: it
// re-derives the candidate regions and the leaf-PT map from PTEAddr,
// decodes both PTEs with geom.Map for every pair it considers, and
// counts each victim table's jackpot surface by probing every (page,
// bit) of its region against the map. Run it after the planner has
// touched its regions, and before Next sprays anything.
func bruteForcePairs(m *machine.Machine) []pairCand {
	span := pagetable.Span(2)
	geom := m.Config().DRAM
	poolBase, _ := m.PageTables().Region()
	limit := poolBase.Addr()

	var cands []regionCand
	ptOf := make(map[phys.Frame]phys.Addr)
	for va := phys.Addr(0); va < limit; va += phys.Addr(span) {
		pte, ok := m.PTEAddr(va, 1)
		if !ok {
			continue
		}
		ptOf[phys.FrameOf(pte)] = va
		if uint64(va)/span < escalationSeedRegions {
			cands = append(cands, regionCand{va: va, pte: pte})
		}
	}
	frameBits := bits.Len64(m.Memory().Frames() - 1)
	sprayableIn := func(base phys.Addr) int {
		n := 0
		first := phys.FrameOf(base)
		for p := uint64(0); p < span/phys.FrameSize; p++ {
			f := first + phys.Frame(p)
			for j := 0; j < frameBits; j++ {
				if _, ok := ptOf[f^phys.Frame(1)<<j]; ok {
					n++
				}
			}
		}
		return n
	}

	var pairs []pairCand
	seen := make(map[string]bool)
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			lo, hi := cands[i], cands[j]
			lo.loc, hi.loc = geom.Map(lo.pte), geom.Map(hi.pte)
			if lo.loc.Channel != hi.loc.Channel || lo.loc.Rank != hi.loc.Rank || lo.loc.Bank != hi.loc.Bank {
				continue
			}
			if lo.loc.Row > hi.loc.Row {
				lo, hi = hi, lo
			}
			if hi.loc.Row != lo.loc.Row+2 {
				continue
			}
			victimRow := lo.loc.Row + 1
			key := fmt.Sprint(lo.loc.Channel, lo.loc.Rank, lo.loc.Bank, victimRow)
			if seen[key] {
				continue
			}
			start := geom.AddrOf(dram.Location{Channel: lo.loc.Channel, Rank: lo.loc.Rank, Bank: lo.loc.Bank, Row: victimRow})
			var victims []phys.Addr
			sprayable := 0
			for off := uint64(0); off < geom.RowBytes; off += phys.FrameSize {
				if base, ok := ptOf[phys.FrameOf(start+phys.Addr(off))]; ok {
					victims = append(victims, base)
					sprayable += sprayableIn(base)
				}
			}
			if sprayable == 0 {
				continue
			}
			seen[key] = true
			pairs = append(pairs, pairCand{lo: lo, hi: hi, victimRow: victimRow, victims: victims, sprayable: sprayable})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].sprayable > pairs[j].sprayable })
	return pairs
}

// TestPlannerMatchesBruteForce pins the planner's jackpot index and
// decode-once pair scan to the per-page brute-force count: the full
// ranked pair list — both regions with their PTEs and decoded
// locations, the victim row, the victim regions and the sprayable
// count, in rank order — must be identical. Covered: the demo machine
// on several flip seeds, a smaller module with fewer regions below the
// table pool than the planner's seed budget, and two non-power-of-two
// DRAM shapes (where frame-bit flips can point past the end of memory
// and the decoder takes its div/mod path).
func TestPlannerMatchesBruteForce(t *testing.T) {
	type geometry struct {
		name string
		cfg  func(*flip.Model) machine.Config
	}
	resized := func(mutate func(*machine.Config)) func(*flip.Model) machine.Config {
		return func(model *flip.Model) machine.Config {
			cfg := EscalationConfig(model)
			mutate(&cfg)
			return cfg
		}
	}
	var cases []geometry
	for seed := 1; seed <= 4; seed++ {
		cases = append(cases, geometry{fmt.Sprintf("escalation-seed%d", seed), EscalationConfig})
	}
	cases = append(cases,
		geometry{"256MiB", resized(func(c *machine.Config) { c.DRAM.Rows = 2048 })},
		geometry{"three-ranks", resized(func(c *machine.Config) { c.DRAM.RanksPerChannel = 3; c.DRAM.Rows = 2048 })},
		geometry{"12KiB-rows", resized(func(c *machine.Config) { c.DRAM.RowBytes = 12288; c.DRAM.Rows = 4096 })},
	)
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model := flip.MustNewModel(flip.ClassA(), int64(i+1))
			cfg := tc.cfg(model)
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			poolBase, _ := m.PageTables().Region()
			regions := uint64(poolBase.Addr()) / pagetable.Span(2)
			planner, err := NewEscalationPlanner(m)
			if err != nil {
				t.Fatalf("%d regions below the pool: %v", regions, err)
			}
			want := bruteForcePairs(m)
			if len(want) == 0 {
				t.Fatal("brute force found no sprayable pair; the geometry proves nothing")
			}
			if len(planner.pairs) != len(want) {
				t.Fatalf("planner ranked %d pairs, brute force %d", len(planner.pairs), len(want))
			}
			for k := range want {
				if !reflect.DeepEqual(planner.pairs[k], want[k]) {
					t.Fatalf("rank %d differs:\nplanner     %+v\nbrute force %+v", k, planner.pairs[k], want[k])
				}
			}
			t.Logf("%d regions below the pool, %d ranked pairs, top sprayable %d", regions, len(want), want[0].sprayable)
		})
	}
}
