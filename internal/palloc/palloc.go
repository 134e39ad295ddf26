// Package palloc is the object allocator used by every persistence engine
// in this repository. It fills the role that the ssmem object allocator
// (David et al.) plays in the paper (§4.3): size-class allocation with
// per-thread caches, epoch-based safe memory reclamation for lock-free
// structures, and — crucially for persistence — *volatile-only metadata*
// that a trace-driven recovery can rebuild from the persistent roots after
// a crash.
//
// The allocator manages word offsets within a device region; it never
// touches device memory itself. Offsets are multiples of 4 words (32
// bytes), so stored references have two low bits free for mark/flag/tag
// bits and every cell is legal for DWCAS (16-byte alignment).
package palloc

import (
	"fmt"
	"sync"
	"sync/atomic"
)

const (
	// ChunkWords is the size of one allocation chunk. Each chunk serves
	// exactly one size class at a time, which is what lets recovery
	// infer chunk structure from reachable-object extents alone.
	ChunkWords = 4096

	// AlignWords is the minimum object alignment in words.
	AlignWords = 4
)

// classSizes are the object sizes (in words) served from chunks. Larger
// allocations get whole chunks. All sizes divide or pack evenly enough into
// ChunkWords and are multiples of AlignWords.
var classSizes = []int{4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024, 2048, 4096}

// classOf returns the class index serving a request of n words.
func classOf(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1 // large allocation
}

// ClassSize returns the rounded allocation size for a request of n words,
// i.e. the real footprint of the object. Recovery traces must report this
// size (or the raw requested size; both round identically).
func ClassSize(n int) int {
	if c := classOf(n); c >= 0 {
		return classSizes[c]
	}
	chunks := (n + ChunkWords - 1) / ChunkWords
	return chunks * ChunkWords
}

// Extent describes one reachable object for recovery: its offset and its
// requested size in words. Rebuilt is how many of those words, at its end,
// recovery rebuilds instead of copying; the allocator ignores it.
type Extent struct {
	Off     uint64
	Words   int
	Rebuilt int
}

// Config describes the managed region.
type Config struct {
	Base uint64 // first managed word offset; must be chunk-aligned relative to itself
	End  uint64 // one past the last managed word
}

// Allocator manages a region of device offsets. All metadata is volatile by
// design; Rebuild reconstructs it after a crash.
type Allocator struct {
	base      uint64
	end       uint64
	numChunks int

	mu         sync.Mutex
	chunkClass []int8         // -1 unassigned, -2 large-run interior/head, else class
	chunkBump  []int32        // next free word within chunk (class chunks only)
	free       [][]uint64     // central free lists per class
	partial    [][]int        // chunks with bump room per class
	freeChunks []int          // fully free chunk indexes
	nextChunk  int            // bump frontier in chunks
	largeRuns  map[uint64]int // head offset -> run length in chunks

	allocated atomic.Uint64 // live words (class-rounded)
}

// New creates an allocator over [cfg.Base, cfg.End). Base is rounded up to
// the next multiple of AlignWords; the usable space is split into chunks.
func New(cfg Config) *Allocator {
	base := (cfg.Base + AlignWords - 1) &^ (AlignWords - 1)
	if cfg.End <= base {
		panic("palloc: empty region")
	}
	n := int((cfg.End - base) / ChunkWords)
	if n == 0 {
		panic(fmt.Sprintf("palloc: region of %d words smaller than one chunk (%d)", cfg.End-base, ChunkWords))
	}
	a := &Allocator{
		base:       base,
		end:        base + uint64(n)*ChunkWords,
		numChunks:  n,
		chunkClass: make([]int8, n),
		chunkBump:  make([]int32, n),
		free:       make([][]uint64, len(classSizes)),
		partial:    make([][]int, len(classSizes)),
		largeRuns:  make(map[uint64]int),
	}
	for i := range a.chunkClass {
		a.chunkClass[i] = -1
	}
	return a
}

// Base returns the first managed offset.
func (a *Allocator) Base() uint64 { return a.base }

// End returns one past the last managed offset.
func (a *Allocator) End() uint64 { return a.end }

// LiveWords returns the number of allocated words (class-rounded).
func (a *Allocator) LiveWords() uint64 { return a.allocated.Load() }

// Frontier returns one past the highest offset ever handed out. Heap scans
// (the Link-Free/SOFT recovery procedure) bound their sweep with it.
func (a *Allocator) Frontier() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.chunkBase(a.nextChunk)
}

func (a *Allocator) chunkOf(off uint64) int {
	return int((off - a.base) / ChunkWords)
}

func (a *Allocator) chunkBase(idx int) uint64 {
	return a.base + uint64(idx)*ChunkWords
}

// grabChunkLocked takes a free chunk for the given class (-2 marks large
// runs). Returns -1 when the region is exhausted.
func (a *Allocator) grabChunkLocked(class int8) int {
	if n := len(a.freeChunks); n > 0 {
		idx := a.freeChunks[n-1]
		a.freeChunks = a.freeChunks[:n-1]
		a.chunkClass[idx] = class
		a.chunkBump[idx] = 0
		return idx
	}
	if a.nextChunk < a.numChunks {
		idx := a.nextChunk
		a.nextChunk++
		a.chunkClass[idx] = class
		a.chunkBump[idx] = 0
		return idx
	}
	return -1
}

// refill moves up to want objects of class cls into dst, creating chunks as
// needed. Returns the filled slice.
func (a *Allocator) refill(cls int, dst []uint64, want int) []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	size := classSizes[cls]
	// 1. Central free list.
	if n := len(a.free[cls]); n > 0 {
		take := want
		if take > n {
			take = n
		}
		dst = append(dst, a.free[cls][n-take:]...)
		a.free[cls] = a.free[cls][:n-take]
		want -= take
	}
	// 2. Partial chunks, then fresh chunks.
	for want > 0 {
		var idx int
		if n := len(a.partial[cls]); n > 0 {
			idx = a.partial[cls][n-1]
			a.partial[cls] = a.partial[cls][:n-1]
		} else {
			idx = a.grabChunkLocked(int8(cls))
			if idx < 0 {
				break
			}
		}
		bump := int(a.chunkBump[idx])
		for want > 0 && bump+size <= ChunkWords {
			dst = append(dst, a.chunkBase(idx)+uint64(bump))
			bump += size
			want--
		}
		a.chunkBump[idx] = int32(bump)
		if bump+size <= ChunkWords {
			a.partial[cls] = append(a.partial[cls], idx)
		}
	}
	return dst
}

func (a *Allocator) allocLarge(words int) uint64 {
	chunks := (words + ChunkWords - 1) / ChunkWords
	a.mu.Lock()
	defer a.mu.Unlock()
	// Large runs come only from the bump frontier; freed runs return to
	// freeChunks individually and are reused by class chunks. This keeps
	// the simulator simple; large allocations (bucket arrays) are
	// long-lived in every workload we model.
	if a.nextChunk+chunks > a.numChunks {
		panic(fmt.Sprintf("palloc: out of memory for large alloc of %d words", words))
	}
	idx := a.nextChunk
	a.nextChunk += chunks
	for i := 0; i < chunks; i++ {
		a.chunkClass[idx+i] = -2
	}
	off := a.chunkBase(idx)
	a.largeRuns[off] = chunks
	a.allocated.Add(uint64(chunks * ChunkWords))
	return off
}

func (a *Allocator) freeLarge(off uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	chunks, ok := a.largeRuns[off]
	if !ok {
		panic(fmt.Sprintf("palloc: freeLarge of unknown run at %d", off))
	}
	delete(a.largeRuns, off)
	idx := a.chunkOf(off)
	for i := 0; i < chunks; i++ {
		a.chunkClass[idx+i] = -1
		a.freeChunks = append(a.freeChunks, idx+i)
	}
	a.allocated.Add(^uint64(chunks*ChunkWords - 1))
}

// release returns objects from a thread cache to the central free list.
func (a *Allocator) release(cls int, objs []uint64) {
	a.mu.Lock()
	a.free[cls] = append(a.free[cls], objs...)
	a.mu.Unlock()
}

// Rebuild resets every piece of allocator metadata and reconstructs it from
// the reachable-object extents produced by a recovery trace (§4.3.3). After
// Rebuild, exactly the traced objects are allocated; all other space is
// free. Extents must not overlap. It is one Scan over extents, installed by
// RebuildFrom; the recovery pipeline streams its trace through scans of its
// own instead.
func (a *Allocator) Rebuild(extents []Extent) {
	s := a.NewScan()
	s.Add(extents)
	a.RebuildFrom(s)
}

// occWords is the per-chunk occupancy bitset length: one bit per
// AlignWords-aligned slot start (every class size is a multiple of
// AlignWords, so slot starts land on these positions).
const occWords = ChunkWords / AlignWords / 64

// chunkOcc accumulates the occupancy of one chunk during a rebuild scan.
type chunkOcc struct {
	idx  int32 // the chunk
	cls  int32 // class index serving this chunk
	high int32 // highest used slot end (sets the bump pointer)
	bits [occWords]uint64
}

// Scan is one recovery sink's private fold of traced extents: the
// occupancy of every chunk with a survivor, found through a dense array
// indexed by chunk, and the large runs. A scan never touches the
// allocator's state, so scans on different goroutines need no locking;
// RebuildFrom merges them.
type Scan struct {
	a     *Allocator
	at    []int32    // chunk -> 1 + its index in occ; 0: no survivor yet
	occ   []chunkOcc // chunks with a survivor, in first-extent order
	large []Extent
}

// NewScan returns an empty scan over a's region.
func (a *Allocator) NewScan() *Scan {
	return &Scan{a: a, at: make([]int32, a.numChunks)}
}

// chunk returns the scan's occupancy of chunk idx, starting it at class
// cls, and panics if the chunk already holds another class.
func (s *Scan) chunk(idx int, cls int32) *chunkOcc {
	if i := s.at[idx]; i != 0 {
		co := &s.occ[i-1]
		if co.cls != cls {
			panic(fmt.Sprintf("palloc: rebuild: chunk %d has extents of classes %d and %d", idx, co.cls, cls))
		}
		return co
	}
	s.occ = append(s.occ, chunkOcc{idx: int32(idx), cls: cls})
	s.at[idx] = int32(len(s.occ))
	return &s.occ[len(s.occ)-1]
}

// Add folds extents into the scan. It performs all per-extent validation;
// only class conflicts between scans are left to RebuildFrom.
func (s *Scan) Add(extents []Extent) {
	a := s.a
	for _, e := range extents {
		if e.Off < a.base || e.Off >= a.end {
			panic(fmt.Sprintf("palloc: rebuild extent %d outside region", e.Off))
		}
		cls := classOf(e.Words)
		if cls < 0 {
			s.large = append(s.large, e)
			continue
		}
		size := classSizes[cls]
		idx := a.chunkOf(e.Off)
		co := s.chunk(idx, int32(cls))
		slot := int(e.Off - a.chunkBase(idx))
		if slot%size != 0 {
			panic(fmt.Sprintf("palloc: rebuild: extent at %d misaligned for class size %d", e.Off, size))
		}
		pos := slot / AlignWords
		co.bits[pos/64] |= 1 << (pos % 64)
		if int32(slot+size) > co.high {
			co.high = int32(slot + size)
		}
	}
}

// RebuildFrom is Rebuild over the union of scans — the allocator's leg of
// the recovery pipeline, one scan per sink. The union must satisfy
// Rebuild's contract (non-overlapping extents covering exactly the
// reachable objects); how the extents were dealt among the scans changes
// nothing: free lists come out in chunk order, then slot order. The
// allocator is left untouched until the scans are merged.
func (a *Allocator) RebuildFrom(scans ...*Scan) {
	// Merge: fold every scan into the first. Bitset OR per chunk, so
	// merging costs chunks, not extents.
	var dst *Scan
	var large []Extent
	for _, s := range scans {
		large = append(large, s.large...)
		if dst == nil {
			dst = s
			continue
		}
		for i := range s.occ {
			co := &s.occ[i]
			d := dst.chunk(int(co.idx), co.cls)
			for w := range d.bits {
				d.bits[w] |= co.bits[w]
			}
			d.high = max(d.high, co.high)
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.chunkClass {
		a.chunkClass[i] = -1
		a.chunkBump[i] = 0
	}
	for i := range a.free {
		a.free[i] = a.free[i][:0]
		a.partial[i] = a.partial[i][:0]
	}
	a.freeChunks = a.freeChunks[:0]
	a.largeRuns = make(map[uint64]int)
	a.allocated.Store(0)

	maxChunk := -1
	for _, e := range large {
		chunks := (e.Words + ChunkWords - 1) / ChunkWords
		idx := a.chunkOf(e.Off)
		for i := 0; i < chunks; i++ {
			a.chunkClass[idx+i] = -2
		}
		a.largeRuns[e.Off] = chunks
		a.allocated.Add(uint64(chunks * ChunkWords))
		maxChunk = max(maxChunk, idx+chunks-1)
	}

	// Assign classes and free lists for chunks with survivors, in chunk
	// order.
	if dst != nil {
		for idx, i := range dst.at {
			if i == 0 {
				continue
			}
			co := &dst.occ[i-1]
			cls := int(co.cls)
			size := classSizes[cls]
			high := int(co.high)
			a.chunkClass[idx] = int8(cls)
			// Free the holes below the high-water mark; the rest of the
			// chunk stays bump-allocatable.
			used := 0
			for slot := 0; slot+size <= high; slot += size {
				pos := slot / AlignWords
				if co.bits[pos/64]&(1<<(pos%64)) != 0 {
					used++
				} else {
					a.free[cls] = append(a.free[cls], a.chunkBase(idx)+uint64(slot))
				}
			}
			a.allocated.Add(uint64(used * size))
			a.chunkBump[idx] = int32(high)
			if high+size <= ChunkWords {
				a.partial[cls] = append(a.partial[cls], idx)
			}
			maxChunk = max(maxChunk, idx)
		}
	}

	// Everything below the old frontier without survivors is free; the
	// frontier restarts just past the last surviving chunk.
	a.nextChunk = maxChunk + 1
	for idx := 0; idx < a.nextChunk; idx++ {
		if a.chunkClass[idx] == -1 {
			a.freeChunks = append(a.freeChunks, idx)
		}
	}
}
