package phys

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pthammer/internal/sparse"
)

func TestNewRejectsBadSizes(t *testing.T) {
	for _, size := range []uint64{0, 1, FrameSize - 1, FrameSize + 1} {
		if _, err := New(size); err == nil {
			t.Errorf("New(%d) = nil error, want error", size)
		}
	}
	if _, err := New(4 * FrameSize); err != nil {
		t.Fatalf("New(4 frames) failed: %v", err)
	}
}

// TestNewRejectsTooManyFrames pins the slot table's limit: one frame
// past math.MaxUint32 is an error, raised before the 16 GiB table would
// be allocated.
func TestNewRejectsTooManyFrames(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(uint64(math.MaxUint32+1) * FrameSize)
	runtime.ReadMemStats(&after)
	if err == nil || m != nil {
		t.Fatalf("New(MaxUint32+1 frames) = %v, %v; want nil and an error", m, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejected New allocated %d bytes", grew)
	}
}

func TestLazyMaterialization(t *testing.T) {
	m := MustNew(16 * FrameSize)
	if got := m.Materialized(); got != 0 {
		t.Fatalf("fresh memory materialized %d frames, want 0", got)
	}
	m.Write8(0, 1)
	m.Write8(FrameSize, 2) // second frame
	// Reads of untouched frames return zeros without materializing.
	if got := m.Read8(FrameSize * 2); got != 0 {
		t.Fatalf("unwritten byte = %d, want 0", got)
	}
	if got := m.Read64(FrameSize * 3); got != 0 {
		t.Fatalf("unwritten word = %d, want 0", got)
	}
	if got := m.Bit(FrameSize*2, 5); got != 0 {
		t.Fatalf("unwritten bit = %d, want 0", got)
	}
	dst := []byte{0xff, 0xff}
	if n := m.ReadFrame(3, dst); n != 2 || dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("unwritten ReadFrame = %d %v, want zeros", n, dst)
	}
	if got := m.Materialized(); got != 2 {
		t.Fatalf("materialized %d frames, want 2", got)
	}
	if m.Frames() != 16 || m.Size() != 16*FrameSize {
		t.Fatalf("Frames/Size = %d/%d, want 16/%d", m.Frames(), m.Size(), 16*FrameSize)
	}
}

func TestFlipBitRoundTrip(t *testing.T) {
	m := MustNew(FrameSize)
	a := Addr(100)
	m.Write8(a, 0b0000_1000)
	if got := m.Bit(a, 3); got != 1 {
		t.Fatalf("Bit(3) = %d, want 1", got)
	}
	if got, ok := m.FlipBit(a, 3); got != 0 || !ok {
		t.Fatalf("FlipBit returned (%d, %v), want (0, true)", got, ok)
	}
	if got := m.Read8(a); got != 0 {
		t.Fatalf("byte after flip = %#x, want 0", got)
	}
	if got, ok := m.FlipBit(a, 3); got != 1 || !ok {
		t.Fatalf("second FlipBit returned (%d, %v), want (1, true)", got, ok)
	}
	if got := m.Read8(a); got != 0b0000_1000 {
		t.Fatalf("byte after double flip = %#x, want original", got)
	}
}

// TestFlipBitHoleIsNoOp pins the hole semantics: a flip aimed at a
// never-written frame reports a miss and leaves the memory untouched —
// no materialization, no write counted — matching Bit's read-side view
// of the same hole.
func TestFlipBitHoleIsNoOp(t *testing.T) {
	m := MustNew(4 * FrameSize)
	a := Addr(2*FrameSize + 17)
	if got, ok := m.FlipBit(a, 6); got != 0 || ok {
		t.Fatalf("hole FlipBit returned (%d, %v), want (0, false)", got, ok)
	}
	if got := m.Materialized(); got != 0 {
		t.Fatalf("hole FlipBit materialized %d frames, want 0", got)
	}
	if got := m.WriteCount(); got != 0 {
		t.Fatalf("hole FlipBit counted %d writes, want 0", got)
	}
	if got := m.Bit(a, 6); got != 0 {
		t.Fatalf("Bit after hole flip = %d, want 0", got)
	}
	// Once the frame is materialized by a real store, the same flip
	// applies normally.
	m.Write8(a, 0)
	if got, ok := m.FlipBit(a, 6); got != 1 || !ok {
		t.Fatalf("materialized FlipBit returned (%d, %v), want (1, true)", got, ok)
	}
	if got := m.Bit(a, 6); got != 1 {
		t.Fatalf("Bit after materialized flip = %d, want 1", got)
	}
}

func TestRead64Write64RoundTrip(t *testing.T) {
	m := MustNew(FrameSize)
	const v = 0x0123_4567_89ab_cdef
	m.Write64(8, v)
	if got := m.Read64(8); got != v {
		t.Fatalf("Read64 = %#x, want %#x", got, uint64(v))
	}
	// Little-endian byte order.
	if got := m.Read8(8); got != 0xef {
		t.Fatalf("low byte = %#x, want 0xef", got)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestPanics(t *testing.T) {
	m := MustNew(2 * FrameSize)
	mustPanic(t, "unaligned Read64", func() { m.Read64(1) })
	mustPanic(t, "unaligned Write64", func() { m.Write64(4, 0) })
	mustPanic(t, "out-of-range read", func() { m.Read8(2 * FrameSize) })
	mustPanic(t, "out-of-range frame", func() { m.ZeroFrame(2) })
	mustPanic(t, "bad bit index", func() { m.FlipBit(0, 8) })
	mustPanic(t, "bad bit index Bit", func() { m.Bit(0, 9) })
}

func TestFrameHelpersAndFrameIO(t *testing.T) {
	if FrameOf(Addr(FrameSize+5)) != 1 || Offset(Addr(FrameSize+5)) != 5 {
		t.Fatal("FrameOf/Offset decompose wrong")
	}
	if Frame(3).Addr() != Addr(3*FrameSize) {
		t.Fatal("Frame.Addr wrong")
	}

	m := MustNew(4 * FrameSize)
	if !m.Contains(0) || !m.Contains(4*FrameSize-1) || m.Contains(4*FrameSize) {
		t.Fatal("Contains disagrees with the 4-frame bound")
	}
	src := make([]byte, FrameSize)
	for i := range src {
		src[i] = byte(i)
	}
	if n := m.WriteFrame(1, src); n != FrameSize {
		t.Fatalf("WriteFrame copied %d bytes", n)
	}
	dst := make([]byte, FrameSize)
	if n := m.ReadFrame(1, dst); n != FrameSize {
		t.Fatalf("ReadFrame copied %d bytes", n)
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("frame byte %d = %d, want %d", i, dst[i], src[i])
		}
	}
	m.ZeroFrame(1)
	if m.Read8(FrameSize) != 0 {
		t.Fatal("ZeroFrame left data behind")
	}
}

func TestWriteCount(t *testing.T) {
	m := MustNew(FrameSize)
	if m.WriteCount() != 0 {
		t.Fatal("fresh memory has nonzero write count")
	}
	m.Write8(0, 1)                    // +1
	m.Write64(8, 1)                   // +8
	m.FlipBit(0, 0)                   // +1
	m.ZeroFrame(0)                    // +FrameSize
	m.WriteFrame(0, make([]byte, 16)) // +16
	want := uint64(1 + 8 + 1 + FrameSize + 16)
	if got := m.WriteCount(); got != want {
		t.Fatalf("WriteCount = %d, want %d", got, want)
	}
}

// TestFramePastEndPanics: the frame directory rounds up to whole
// chunks of slots, so a memory whose frame count is not a multiple of
// sparse.ChunkLen has directory room for frames past its end. Every
// access to such a frame must still panic with a message naming the
// frame and the frame count, not read a hole or materialize a frame —
// even once the partial last chunk has been materialized.
func TestFramePastEndPanics(t *testing.T) {
	const frames = sparse.ChunkLen + 3
	m := MustNew(frames * FrameSize)
	m.Write64(Frame(frames-1).Addr(), 1)
	past := Frame(frames)
	a := past.Addr() + 64
	want := fmt.Sprintf("phys: frame %#x out of range (%d frames)", uint64(past), frames)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Read8", func() { m.Read8(a) }},
		{"Read64", func() { m.Read64(a) }},
		{"Bit", func() { m.Bit(a, 1) }},
		{"FlipBit", func() { m.FlipBit(a, 1) }},
		{"ReadFrame", func() { m.ReadFrame(past, make([]byte, FrameSize)) }},
		{"Write8", func() { m.Write8(a, 1) }},
		{"ZeroFrame", func() { m.ZeroFrame(past) }},
	} {
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != want {
					t.Errorf("%s of frame %d panicked with %v, want %q", tc.name, past, r, want)
				}
			}()
			tc.f()
		}()
	}
	if m.Materialized() != 1 {
		t.Errorf("Materialized = %d after the rejected accesses, want 1", m.Materialized())
	}
}
