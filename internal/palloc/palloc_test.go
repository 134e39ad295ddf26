package palloc

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func newTestAlloc() *Allocator {
	return New(Config{Base: 64, End: 64 + 64*ChunkWords})
}

func TestClassSize(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 12}, {30, 32}, {100, 128},
		{4096, 4096}, {4097, 2 * ChunkWords}, {3 * ChunkWords, 3 * ChunkWords},
	}
	for _, c := range cases {
		if got := ClassSize(c.in); got != c.want {
			t.Errorf("ClassSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAllocAlignmentAndBounds(t *testing.T) {
	a := newTestAlloc()
	c := NewCache(a, NewReclaimer())
	for i := 0; i < 1000; i++ {
		off := c.Alloc(6)
		if off%AlignWords != 0 {
			t.Fatalf("alloc %d: offset %d not %d-word aligned", i, off, AlignWords)
		}
		if off < a.Base() || off+8 > a.End() {
			t.Fatalf("alloc %d: offset %d outside region", i, off)
		}
	}
}

func TestAllocNoOverlap(t *testing.T) {
	a := newTestAlloc()
	c := NewCache(a, NewReclaimer())
	seen := make(map[uint64]bool)
	sizes := []int{4, 6, 8, 12, 30, 100}
	type obj struct {
		off  uint64
		size int
	}
	var objs []obj
	for i := 0; i < 5000; i++ {
		n := sizes[i%len(sizes)]
		off := c.Alloc(n)
		objs = append(objs, obj{off, ClassSize(n)})
		seen[off] = true
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].off < objs[j].off })
	for i := 1; i < len(objs); i++ {
		if objs[i-1].off+uint64(objs[i-1].size) > objs[i].off {
			t.Fatalf("objects overlap: [%d,+%d) and [%d,...)",
				objs[i-1].off, objs[i-1].size, objs[i].off)
		}
	}
	if len(seen) != 5000 {
		t.Errorf("duplicate offsets: %d unique of 5000", len(seen))
	}
}

func TestFreeReuse(t *testing.T) {
	a := newTestAlloc()
	c := NewCache(a, NewReclaimer())
	off := c.Alloc(8)
	c.Free(off, 8)
	// The freed object should come back before fresh memory.
	got := c.Alloc(8)
	if got != off {
		t.Errorf("Alloc after Free = %d, want recycled %d", got, off)
	}
}

func TestLiveWordsBalance(t *testing.T) {
	a := newTestAlloc()
	c := NewCache(a, NewReclaimer())
	var offs []uint64
	for i := 0; i < 100; i++ {
		offs = append(offs, c.Alloc(8))
	}
	if got := a.LiveWords(); got != 800 {
		t.Errorf("LiveWords = %d, want 800", got)
	}
	for _, off := range offs {
		c.Free(off, 8)
	}
	if got := a.LiveWords(); got != 0 {
		t.Errorf("LiveWords after frees = %d, want 0", got)
	}
}

func TestLargeAllocFree(t *testing.T) {
	a := newTestAlloc()
	c := NewCache(a, NewReclaimer())
	off := c.Alloc(3*ChunkWords - 5)
	if off%ChunkWords != a.Base()%ChunkWords {
		t.Errorf("large alloc not chunk aligned: %d", off)
	}
	c.Free(off, 3*ChunkWords-5)
	if got := a.LiveWords(); got != 0 {
		t.Errorf("LiveWords = %d after large free", got)
	}
	// Freed chunks are reusable by class allocations.
	for i := 0; i < 3*ChunkWords/8; i++ {
		c.Alloc(8)
	}
}

func TestOutOfMemoryPanics(t *testing.T) {
	a := New(Config{Base: 64, End: 64 + 2*ChunkWords})
	c := NewCache(a, NewReclaimer())
	defer func() {
		if recover() == nil {
			t.Error("expected out-of-memory panic")
		}
	}()
	for i := 0; i < 3*ChunkWords; i++ {
		c.Alloc(4)
	}
}

func TestEpochAdvanceAndDrain(t *testing.T) {
	a := newTestAlloc()
	r := NewReclaimer()
	c := NewCache(a, r)
	off := c.Alloc(8)
	c.Enter()
	c.Retire(off, 8)
	if c.LimboLen() != 1 {
		t.Fatalf("limbo = %d, want 1", c.LimboLen())
	}
	c.Exit()
	// Retire enough dummies to force epoch advances; the first object
	// must eventually be reclaimed.
	for i := 0; i < 4*advanceEvery; i++ {
		c.Enter()
		o := c.Alloc(8)
		c.Retire(o, 8)
		c.Exit()
	}
	if c.LimboLen() >= 4*advanceEvery {
		t.Errorf("limbo never drained: %d", c.LimboLen())
	}
}

func TestEpochBlockedByActiveReader(t *testing.T) {
	a := newTestAlloc()
	r := NewReclaimer()
	writer := NewCache(a, r)
	reader := NewCache(a, r)
	reader.Enter() // pins the epoch
	e0 := r.Epoch()
	for i := 0; i < 8*advanceEvery; i++ {
		writer.Enter()
		o := writer.Alloc(8)
		writer.Retire(o, 8)
		writer.Exit()
	}
	if r.Epoch() > e0+1 {
		t.Errorf("epoch advanced from %d to %d past a pinned reader", e0, r.Epoch())
	}
	reader.Exit()
	for i := 0; i < 4*advanceEvery; i++ {
		writer.Enter()
		o := writer.Alloc(8)
		writer.Retire(o, 8)
		writer.Exit()
	}
	if r.Epoch() <= e0+1 {
		t.Errorf("epoch stuck at %d after reader exit", r.Epoch())
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	a := New(Config{Base: 64, End: 64 + 256*ChunkWords})
	r := NewReclaimer()
	const workers = 8
	var wg sync.WaitGroup
	offsCh := make(chan []uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c := NewCache(a, r)
			rng := rand.New(rand.NewSource(seed))
			var mine []uint64
			for i := 0; i < 3000; i++ {
				switch {
				case len(mine) > 0 && rng.Intn(2) == 0:
					n := len(mine) - 1
					c.Free(mine[n], 8)
					mine = mine[:n]
				default:
					mine = append(mine, c.Alloc(8))
				}
			}
			offsCh <- mine
		}(int64(w))
	}
	wg.Wait()
	close(offsCh)
	seen := make(map[uint64]bool)
	live := 0
	for offs := range offsCh {
		for _, off := range offs {
			if seen[off] {
				t.Fatalf("offset %d live in two threads", off)
			}
			seen[off] = true
			live++
		}
	}
	if got := a.LiveWords(); got != uint64(live*8) {
		t.Errorf("LiveWords = %d, want %d", got, live*8)
	}
}

func TestRebuildRoundTrip(t *testing.T) {
	a := newTestAlloc()
	c := NewCache(a, NewReclaimer())
	// Allocate a mix, free some, keep the rest as "reachable".
	type obj struct {
		off  uint64
		size int
	}
	var kept []obj
	rng := rand.New(rand.NewSource(7))
	sizes := []int{4, 8, 12, 24, 100}
	for i := 0; i < 2000; i++ {
		n := sizes[rng.Intn(len(sizes))]
		off := c.Alloc(n)
		if rng.Intn(3) == 0 {
			c.Free(off, n)
		} else {
			kept = append(kept, obj{off, n})
		}
	}
	big := c.Alloc(2 * ChunkWords)
	extents := make([]Extent, 0, len(kept)+1)
	for _, o := range kept {
		extents = append(extents, Extent{Off: o.off, Words: o.size})
	}
	extents = append(extents, Extent{Off: big, Words: 2 * ChunkWords})

	// Simulate crash: rebuild from extents with a fresh cache.
	a.Rebuild(extents)
	c2 := NewCache(a, NewReclaimer())

	wantLive := uint64(2 * ChunkWords)
	for _, o := range kept {
		wantLive += uint64(ClassSize(o.size))
	}
	if got := a.LiveWords(); got != wantLive {
		t.Errorf("LiveWords after rebuild = %d, want %d", got, wantLive)
	}

	// New allocations must not land inside any surviving extent.
	occupied := make(map[uint64]int)
	for _, e := range extents {
		occupied[e.Off] = ClassSize(e.Words)
	}
	overlaps := func(off uint64, size int) bool {
		for o, s := range occupied {
			if off < o+uint64(s) && o < off+uint64(size) {
				return true
			}
		}
		return false
	}
	for i := 0; i < 2000; i++ {
		n := sizes[rng.Intn(len(sizes))]
		off := c2.Alloc(n)
		if overlaps(off, ClassSize(n)) {
			t.Fatalf("post-rebuild alloc at %d overlaps a surviving extent", off)
		}
		occupied[off] = ClassSize(n)
	}
}

func TestRebuildEmpty(t *testing.T) {
	a := newTestAlloc()
	c := NewCache(a, NewReclaimer())
	for i := 0; i < 1000; i++ {
		c.Alloc(8)
	}
	a.Rebuild(nil)
	if got := a.LiveWords(); got != 0 {
		t.Errorf("LiveWords after empty rebuild = %d", got)
	}
	c2 := NewCache(a, NewReclaimer())
	// All space must be reusable again.
	for i := 0; i < 1000; i++ {
		c2.Alloc(8)
	}
}

// allocSnapshot captures every piece of rebuilt metadata in a canonical
// (order-independent) form so two rebuilds can be compared exactly.
type allocSnapshot struct {
	chunkClass []int8
	chunkBump  []int32
	free       [][]uint64
	partial    [][]int
	freeChunks []int
	largeRuns  map[uint64]int
	allocated  uint64
	nextChunk  int
}

func snapshotAlloc(a *Allocator) allocSnapshot {
	s := allocSnapshot{
		chunkClass: append([]int8(nil), a.chunkClass...),
		chunkBump:  append([]int32(nil), a.chunkBump...),
		freeChunks: append([]int(nil), a.freeChunks...),
		largeRuns:  make(map[uint64]int),
		allocated:  a.allocated.Load(),
		nextChunk:  a.nextChunk,
	}
	for off, n := range a.largeRuns {
		s.largeRuns[off] = n
	}
	for i := range a.free {
		f := append([]uint64(nil), a.free[i]...)
		sort.Slice(f, func(x, y int) bool { return f[x] < f[y] })
		s.free = append(s.free, f)
		p := append([]int(nil), a.partial[i]...)
		sort.Ints(p)
		s.partial = append(s.partial, p)
	}
	sort.Ints(s.freeChunks)
	return s
}

func TestRebuildShardedMatchesSequential(t *testing.T) {
	a := newTestAlloc()
	c := NewCache(a, NewReclaimer())
	rng := rand.New(rand.NewSource(11))
	sizes := []int{4, 8, 12, 24, 100}
	var extents []Extent
	for i := 0; i < 3000; i++ {
		n := sizes[rng.Intn(len(sizes))]
		off := c.Alloc(n)
		if rng.Intn(3) != 0 {
			extents = append(extents, Extent{Off: off, Words: n})
		}
	}
	extents = append(extents, Extent{Off: c.Alloc(3 * ChunkWords), Words: 3 * ChunkWords})

	a.Rebuild(extents)
	want := snapshotAlloc(a)
	seqFree := make([][]uint64, len(a.free))
	for i, f := range a.free {
		seqFree[i] = append([]uint64{}, f...)
	}
	seqChunks := append([]int{}, a.freeChunks...)

	for _, shards := range []int{2, 4, 7} {
		// Deal extents round-robin, in batches of a few, so the scans
		// interleave within chunks — the hardest case for the merge.
		scans := make([]*Scan, shards)
		for i := range scans {
			scans[i] = a.NewScan()
		}
		for i := 0; i < len(extents); i += 5 {
			scans[i/5%shards].Add(extents[i:min(i+5, len(extents))])
		}
		a.RebuildFrom(scans...)
		got := snapshotAlloc(a)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: merged scans' metadata differs from one scan", shards)
		}
		// The free lists come out in the same order, not just as the same
		// sets: every allocation after recovery is unchanged.
		for i := range seqFree {
			if !slices.Equal(a.free[i], seqFree[i]) || !slices.Equal(a.freeChunks, seqChunks) {
				t.Fatalf("shards=%d: merged scans' free lists are in another order", shards)
			}
		}
	}
	// No scan at all is an empty allocator, like Rebuild(nil).
	a.RebuildFrom()
	got := snapshotAlloc(a)
	a.Rebuild(nil)
	if !reflect.DeepEqual(got, snapshotAlloc(a)) {
		t.Fatal("RebuildFrom() differs from Rebuild(nil)")
	}
}

func TestRebuildShardedClassConflictPanics(t *testing.T) {
	a := newTestAlloc()
	c := NewCache(a, NewReclaimer())
	cb := a.chunkBase(a.chunkOf(c.Alloc(4)))
	// Same chunk, two different classes split across scans: the merge
	// must detect it even though each scan is internally consistent.
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard class conflict did not panic")
		}
	}()
	s0, s1 := a.NewScan(), a.NewScan()
	s0.Add([]Extent{{Off: cb, Words: 4}})
	s1.Add([]Extent{{Off: cb + 8, Words: 8}})
	a.RebuildFrom(s0, s1)
}

func TestQuickClassSizeInvariants(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := int(nRaw)%8192 + 1
		s := ClassSize(n)
		return s >= n && s%AlignWords == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a := New(Config{Base: 64, End: 64 + 1024*ChunkWords})
	r := NewReclaimer()
	b.RunParallel(func(pb *testing.PB) {
		c := NewCache(a, r)
		for pb.Next() {
			off := c.Alloc(8)
			c.Free(off, 8)
		}
	})
}

// TestCloseHandsLimboToOrphans pins Cache.Close: a cache closing under a
// pinned epoch cannot free its limbo, so it leaves it on the orphan list,
// unregisters, and returns its free lists; the survivor's next drains adopt
// the orphans and free them — each batch after its own PreFree, and none
// before the epoch allows.
func TestCloseHandsLimboToOrphans(t *testing.T) {
	a := newTestAlloc()
	r := NewReclaimer()
	quitter, survivor := NewCache(a, r), NewCache(a, r)
	survivor.Enter() // pins the epoch: nothing the quitter retires can be freed
	const n = 3 * drainEvery
	for i := 0; i < n; i++ {
		quitter.Enter()
		quitter.Retire(quitter.Alloc(8), 8)
		quitter.Exit()
	}
	quitter.Close()
	if got := len(r.CachesForTest()); got != 1 {
		t.Fatalf("%d caches registered after Close, want 1", got)
	}
	if limbo, free := quitter.DebugCounts(); limbo != 0 || free != 0 {
		t.Fatalf("closed cache still holds %d limbo / %d free objects", limbo, free)
	}
	if got := a.LiveWords(); got != n*8 {
		t.Fatalf("live = %d words with the epoch pinned, want %d (nothing may be freed yet)", got, n*8)
	}
	survivor.Exit()

	var before uint64
	ran := false
	survivor.PreFree = func() {
		ran = true
		if got := a.LiveWords(); got != before {
			t.Errorf("live = %d words inside PreFree, want %d (an orphan was freed before it)", got, before)
		}
	}
	for i := 0; i < 4 && a.LiveWords() > 0; i++ {
		r.tryAdvance()
		before, ran = a.LiveWords(), false
		survivor.drain()
		if a.LiveWords() < before && !ran {
			t.Fatal("a drain freed orphans without running PreFree")
		}
	}
	if got := a.LiveWords(); got != 0 {
		t.Fatalf("live = %d words after the survivor's drains, want 0 (orphans stranded)", got)
	}
}

// TestOversubscribedChurnBounded regresses the EBR starvation fix: with
// more churning goroutines than cores, limbo must still drain via the
// quiesced-context Exit drains, keeping live memory bounded.
func TestOversubscribedChurnBounded(t *testing.T) {
	a := New(Config{Base: 64, End: 64 + 2048*ChunkWords})
	r := NewReclaimer()
	workers := runtime.GOMAXPROCS(0)*4 + 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCache(a, r)
			defer c.Close()
			for i := 0; i < 30000; i++ {
				c.Enter()
				off := c.Alloc(4)
				c.Retire(off, 4)
				c.Exit()
				if i%8 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	// All retired; only the last epochs' limbo may remain.
	bound := uint64(workers) * 4 * (advanceEvery*4 + cacheCap)
	if got := a.LiveWords(); got > bound {
		t.Errorf("live = %d words after churn, want <= %d (reclamation starved)", got, bound)
	}
}

// CachesForTest returns the registered caches.
func (r *Reclaimer) CachesForTest() []*Cache {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Cache(nil), r.caches...)
}

// DebugCounts reports limbo length and cached-free objects.
func (c *Cache) DebugCounts() (limbo int, freeObjs int) {
	for _, fl := range c.free {
		freeObjs += len(fl)
	}
	return len(c.limbo), freeObjs
}

// BenchmarkEnterExit brackets one empty operation: Enter's full fence and
// Exit's release store of the idle announcement.
func BenchmarkEnterExit(b *testing.B) {
	a := New(Config{Base: 64, End: 64 + 16*ChunkWords})
	c := NewCache(a, NewReclaimer())
	for i := 0; i < b.N; i++ {
		c.Enter()
		c.Exit()
	}
}

// TestEpochLag pins the reclamation gauge: the oldest limbo object's wait
// in epochs, zero once the limbo is empty.
func TestEpochLag(t *testing.T) {
	a := newTestAlloc()
	r := NewReclaimer()
	c := NewCache(a, r)
	if lag := c.EpochLag(); lag != 0 {
		t.Fatalf("empty limbo: lag %d, want 0", lag)
	}
	c.Enter()
	c.Retire(c.Alloc(8), 8)
	c.Exit()
	r.tryAdvance()
	if lag := c.EpochLag(); lag != 1 || c.LimboLen() != 1 {
		t.Fatalf("one advance after the retire: lag %d, limbo %d; want 1, 1", lag, c.LimboLen())
	}
	r.tryAdvance()
	if lag := c.EpochLag(); lag != 2 {
		t.Fatalf("two advances after the retire: lag %d, want 2", lag)
	}
	c.drain()
	if lag := c.EpochLag(); lag != 0 || c.LimboLen() != 0 {
		t.Fatalf("after the drain: lag %d, limbo %d; want 0, 0", lag, c.LimboLen())
	}
}
