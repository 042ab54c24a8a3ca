package pagetable

import (
	"slices"
	"testing"

	"pthammer/internal/phys"
)

// contiguous returns the frame list [base, base+frames), the shape of
// pool the single-core machine hands NewWithFrames.
func contiguous(base phys.Frame, frames uint64) []phys.Frame {
	pool := make([]phys.Frame, frames)
	for i := range pool {
		pool[i] = base + phys.Frame(i)
	}
	return pool
}

// topPool is the contiguous pool of the top frames of a size-byte
// memory, the placement the machine facade uses.
func topPool(size, frames uint64) []phys.Frame {
	return contiguous(phys.Frame(size/phys.FrameSize-frames), frames)
}

// newTables builds a 16 MiB memory with a 64-frame table pool at the
// top.
func newTables(t *testing.T) (*Tables, *phys.Memory) {
	t.Helper()
	const size = 16 << 20
	m := phys.MustNew(size)
	tb, err := NewWithFrames(m, topPool(size, 64))
	if err != nil {
		t.Fatalf("NewWithFrames: %v", err)
	}
	return tb, m
}

func TestEntryRoundTrip(t *testing.T) {
	e := NewEntry(phys.Frame(0x1234))
	if !e.Present() {
		t.Fatal("new entry not present")
	}
	if got := e.Frame(); got != 0x1234 {
		t.Fatalf("frame = %#x, want 0x1234", uint64(got))
	}
	if Entry(0).Present() {
		t.Fatal("zero entry present")
	}
}

func TestIndexAndSpan(t *testing.T) {
	// va = PML4 idx 1, PDPT idx 2, PD idx 3, PT idx 4.
	va := phys.Addr(1<<39 | 2<<30 | 3<<21 | 4<<12)
	for level, want := range map[int]uint64{4: 1, 3: 2, 2: 3, 1: 4} {
		if got := Index(va, level); got != want {
			t.Errorf("Index(level %d) = %d, want %d", level, got, want)
		}
	}
	if Span(1) != 4096 || Span(2) != 2<<20 || Span(3) != 1<<30 {
		t.Fatalf("spans = %d %d %d", Span(1), Span(2), Span(3))
	}
	// Levels outside 1..Levels are wiring bugs: both panic.
	for _, level := range []int{0, Levels + 1} {
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"Index", func() { Index(va, level) }},
			{"Span", func() { Span(level) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(level %d) did not panic", c.name, level)
					}
				}()
				c.f()
			}()
		}
	}
}

func TestFramesToMap(t *testing.T) {
	// 1 GiB: 262144 pages → 512 PTs + 1 PD + 1 PDPT + 1 PML4.
	if got := FramesToMap(1 << 30); got != 515 {
		t.Fatalf("FramesToMap(1 GiB) = %d, want 515", got)
	}
	// 2 MiB: 512 pages → 1 PT + 1 PD + 1 PDPT + 1 PML4.
	if got := FramesToMap(2 << 20); got != 4 {
		t.Fatalf("FramesToMap(2 MiB) = %d, want 4", got)
	}
}

func TestMapResolveAndEntryAddr(t *testing.T) {
	tb, m := newTables(t)
	va := phys.Addr(0x42000)
	if _, ok := tb.Resolve(va); ok {
		t.Fatal("unmapped va resolved")
	}
	if _, ok := tb.EntryAddr(va, 1); ok {
		t.Fatal("EntryAddr found a PT on an unmapped path")
	}
	// The PML4 level never fails: its table is the root.
	if ea, ok := tb.EntryAddr(va, Levels); !ok || phys.FrameOf(ea) != tb.Root() {
		t.Fatalf("PML4 EntryAddr = %#x/%v, want inside root", uint64(ea), ok)
	}

	tb.Map(va, phys.Frame(7))
	frame, ok := tb.Resolve(va)
	if !ok || frame != 7 {
		t.Fatalf("Resolve = %d/%v, want 7", frame, ok)
	}
	// Root + PDPT + PD + PT.
	if got := tb.Allocated(); got != 4 {
		t.Fatalf("allocated %d table frames, want 4", got)
	}

	// The PTE really lives at EntryAddr(va, 1): rewriting those bytes
	// changes what Resolve returns.
	pte, ok := tb.EntryAddr(va, 1)
	if !ok {
		t.Fatal("EntryAddr(va, 1) not found after Map")
	}
	m.Write64(pte, uint64(NewEntry(phys.Frame(9))))
	if frame, _ := tb.Resolve(va); frame != 9 {
		t.Fatalf("Resolve after direct PTE rewrite = %d, want 9", frame)
	}

	// Remapping overwrites.
	tb.Map(va, phys.Frame(11))
	if frame, _ := tb.Resolve(va); frame != 11 {
		t.Fatalf("Resolve after remap = %d, want 11", frame)
	}

	// A second page in the same 2 MiB region reuses the whole path.
	tb.Map(va+phys.FrameSize, phys.Frame(8))
	if got := tb.Allocated(); got != 4 {
		t.Fatalf("same-region map allocated new tables: %d", got)
	}
}

func TestMapRangeIdentity(t *testing.T) {
	tb, _ := newTables(t)
	tb.MapRange(0, 4<<20) // 1024 pages across two PTs
	for _, va := range []phys.Addr{0, 0x1000, 0x200000, 0x3ff000} {
		frame, ok := tb.Resolve(va)
		if !ok || frame != phys.FrameOf(va) {
			t.Fatalf("Resolve(%#x) = %d/%v, want identity %d", uint64(va), frame, ok, phys.FrameOf(va))
		}
	}
	// Root, PDPT, PD, 2 PTs.
	if got := tb.Allocated(); got != 5 {
		t.Fatalf("allocated %d, want 5", got)
	}

	// MapRange walks to each PT once and fills it in one pass; a
	// per-page Map loop on a second address space must come out the
	// same: the same table frames in the same allocation order, the
	// same bytes in every one of them, and the same write count. Each
	// range is mapped twice, so the second pass overwrites through
	// tables that are all present.
	for _, c := range []struct {
		name  string
		start phys.Addr
		bytes uint64
	}{
		{"3 pages below a 2 MiB boundary", 2<<20 - 3*phys.FrameSize, 10 * phys.FrameSize},
		{"across a 1 GiB boundary", 1<<30 - 2*phys.FrameSize, 1<<21 + 4*phys.FrameSize},
		{"ending 5 bytes into a page", 0x5000, 7*phys.FrameSize + 5},
		{"zero bytes", 0x7000, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, gm := newTables(t)
			want, wm := newTables(t)
			for pass := 0; pass < 2; pass++ {
				got.MapRange(c.start, c.bytes)
				for off := uint64(0); off < c.bytes; off += phys.FrameSize {
					va := c.start + phys.Addr(off)
					want.Map(va, phys.FrameOf(va))
				}
			}
			gf, wf := got.Frames(), want.Frames()
			if !slices.Equal(gf, wf) {
				t.Fatalf("table frames = %v, per-page Map allocated %v", gf, wf)
			}
			var gb, wb [phys.FrameSize]byte
			for _, f := range gf {
				gm.ReadFrame(f, gb[:])
				wm.ReadFrame(f, wb[:])
				if gb != wb {
					t.Errorf("table frame %#x differs from the per-page Map's", uint64(f))
				}
			}
			if g, w := gm.WriteCount(), wm.WriteCount(); g != w {
				t.Errorf("WriteCount = %d, per-page Map wrote %d", g, w)
			}
		})
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	const size = 16 << 20
	m := phys.MustNew(size)
	// Room for root + PDPT + PD only: the first Map must blow up on the
	// PT allocation.
	tb, err := NewWithFrames(m, topPool(size, 3))
	if err != nil {
		t.Fatalf("NewWithFrames: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted pool did not panic")
		}
	}()
	tb.Map(0, 0)
}

func TestNewRejectsBadRegions(t *testing.T) {
	m := phys.MustNew(1 << 20)
	if _, err := NewWithFrames(nil, contiguous(0, 1)); err == nil {
		t.Error("nil memory accepted")
	}
	if _, err := NewWithFrames(m, contiguous(0, 0)); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := NewWithFrames(m, contiguous(250, 10)); err == nil {
		t.Error("region past end of memory accepted")
	}
}

// TestFramesAndRegion: the allocated-frame listing starts with the
// root, and Region bounds the whole pool.
func TestFramesAndRegion(t *testing.T) {
	const size, frames = 1 << 22, 64
	m := phys.MustNew(size)
	base := phys.Frame(size/phys.FrameSize - frames)
	tb, err := NewWithFrames(m, contiguous(base, frames))
	if err != nil {
		t.Fatal(err)
	}
	fs := tb.Frames()
	if len(fs) == 0 || fs[0] != base {
		t.Fatalf("Frames() = %v..., want the root %v first", fs[:1], base)
	}
	rbase, rframes := tb.Region()
	if rbase != base || rframes != frames {
		t.Fatalf("Region() = (%v, %d), want (%v, %d)", rbase, rframes, base, frames)
	}
}
