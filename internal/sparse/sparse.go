// Package sparse holds Array, a fixed-length uint32 array that costs
// host memory only for the ranges written into it. phys maps each frame
// to its line table with one and dram counts each bank row's
// activations with another, so neither pays host memory per modelled
// frame or row: what grows with modelled capacity is the directory,
// 4 B per ChunkLen entries.
package sparse

import "math"

// chunkShift is log2(ChunkLen).
const chunkShift = 7

// ChunkLen is how many consecutive entries one chunk holds. A chunk
// materializes whole, on the first write into its range: 512 B for 128
// frames (512 KiB of physical memory) or 128 rows of one bank.
const ChunkLen = 1 << chunkShift

// Array is a two-level array of uint32 entries, all zero until written.
// The zero value is an empty array; create one with Make.
//
// The directory holds one entry per ChunkLen consecutive indices: the
// index of that range's chunk in a slab of chunks. Chunk 0 of the slab
// is a sentinel that only ever holds zeros, and a range never written
// names it, so a read is two dependent loads and no branch. The slab is
// pointer-free and the GC never scans it.
//
// A chunk, once materialized, stays for the array's lifetime: the
// array has no Reset. Its users zero exactly the entries they wrote
// (phys through its owner list, dram through each bank's touched
// list), which leaves every chunk all-zero and the array reading as
// freshly made, and writing the same ranges again allocates nothing.
type Array struct {
	dir    []uint32
	chunks [][ChunkLen]uint32
}

// Make returns an array of n zero entries: a directory of n/ChunkLen
// entries, rounded up, and the sentinel chunk. The rounding leaves the
// last chunk partial when n is not a multiple of ChunkLen; indices
// past n inside it read as zero instead of panicking, so callers that
// must reject them check against n themselves.
func Make(n uint64) Array {
	return Array{
		dir:    make([]uint32, (n+ChunkLen-1)>>chunkShift),
		chunks: make([][ChunkLen]uint32, 1),
	}
}

// Get returns entry i. It never materializes anything.
//
//pthammer:noalloc
func (a *Array) Get(i uint64) uint32 {
	return a.chunks[a.dir[i>>chunkShift]][i&(ChunkLen-1)]
}

// Ref returns entry i for writing, materializing its chunk (zeroed) on
// the first write into the chunk's range, so it never points into the
// sentinel. The pointer is valid only until the next materialization,
// which may move the slab.
//
//pthammer:noalloc
func (a *Array) Ref(i uint64) *uint32 {
	d := i >> chunkShift
	if a.dir[d] == 0 {
		a.dir[d] = uint32(len(a.chunks))
		a.chunks = append(a.chunks, [ChunkLen]uint32{}) //pthammer:alloc-ok amortized slab growth, chunks are never released
	}
	return &a.chunks[a.dir[d]][i&(ChunkLen-1)]
}

// Inc adds one to entry i, saturating at math.MaxUint32, and returns
// the entry's old value and true, when the chunk that holds entry i has
// been materialized. Otherwise it leaves the array as it is and returns
// 0 and false: a range never written has no chunk to count in, and the
// caller writes its first count with Ref. Inc thus never materializes
// anything nor writes into the sentinel.
//
//pthammer:noalloc
func (a *Array) Inc(i uint64) (uint32, bool) {
	c := a.dir[i>>chunkShift]
	if c == 0 {
		return 0, false
	}
	p := &a.chunks[c][i&(ChunkLen-1)]
	n := *p
	if n != math.MaxUint32 {
		*p = n + 1
	}
	return n, true
}

// Clear zeroes entry i without materializing anything. An entry in a
// range never written is zero already, and storing zero into the
// sentinel leaves it all-zero, so Clear needs no branch.
//
//pthammer:noalloc
func (a *Array) Clear(i uint64) {
	a.chunks[a.dir[i>>chunkShift]][i&(ChunkLen-1)] = 0
}
