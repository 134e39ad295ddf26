package palloc

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// cacheCap is the target number of objects a thread cache holds per
	// class before spilling half back to the central list.
	cacheCap = 128
	// refillBatch is how many objects a cache pulls from the allocator
	// at once.
	refillBatch = 32
	// advanceEvery is how many retires happen between epoch-advance
	// attempts.
	advanceEvery = 64
	// exitDrainEvery is how many operation exits happen between
	// quiesced-context drain attempts.
	exitDrainEvery = 32
	// drainEvery is how many retires happen between mid-operation drain
	// attempts. Batching the drains batches the PreFree hook: an engine
	// deferring relaxed-line commits (pmem.CommitRelaxed) pays its fence
	// once per batch of frees, not once per retire. Limbo grows by at
	// most drainEvery extra entries between drains.
	drainEvery = 16
	// idleEpoch marks a thread as not inside any operation.
	idleEpoch = ^uint64(0)
)

type retired struct {
	off   uint64
	words int
	epoch uint64
}

// Reclaimer coordinates epoch-based reclamation across the thread caches of
// one engine instance (the ssmem role). Objects retired at epoch e are
// returned to the allocator once the global epoch reaches e+2, at which
// point no thread can still hold a reference obtained before the retire.
type Reclaimer struct {
	global atomic.Uint64

	mu     sync.Mutex
	caches []*Cache // replaced, never edited in place: tryAdvance walks a snapshot

	// orphans is the limbo closed caches left behind, in no epoch order;
	// orphaned is its length, so the drain path tests for work with one
	// atomic load. The next drain of any cache adopts the whole list.
	orphans  []retired
	orphaned atomic.Int64
}

// NewReclaimer creates an empty Reclaimer.
func NewReclaimer() *Reclaimer {
	r := &Reclaimer{}
	r.global.Store(1)
	return r
}

// Epoch returns the current global epoch (for tests and diagnostics).
func (r *Reclaimer) Epoch() uint64 { return r.global.Load() }

func (r *Reclaimer) tryAdvance() {
	g := r.global.Load()
	r.mu.Lock()
	caches := r.caches
	r.mu.Unlock()
	for _, c := range caches {
		a := c.announce.Load()
		if a != idleEpoch && a < g {
			return
		}
	}
	r.global.CompareAndSwap(g, g+1)
}

// Cache is a per-thread allocation cache and reclamation context. A Cache
// must be used by one goroutine at a time.
type Cache struct {
	_        [64]byte // avoid false sharing of the announce word
	announce atomic.Uint64
	_        [64]byte

	alloc *Allocator
	recl  *Reclaimer

	free        [][]uint64
	limbo       []retired
	retireCount int
	exitCount   int

	// PreFree, when non-nil, runs once per drain batch, before the first
	// limbo object of the batch is returned to the free lists. Durable
	// engines hook it to commit deferred (relaxed) persistence work that
	// must reach media before any unlinked object's memory is reused.
	PreFree func()
}

// NewCache creates a thread cache bound to alloc, registered with recl.
func NewCache(alloc *Allocator, recl *Reclaimer) *Cache {
	c := &Cache{
		alloc: alloc,
		recl:  recl,
		free:  make([][]uint64, len(classSizes)),
	}
	c.announce.Store(idleEpoch)
	recl.mu.Lock()
	recl.caches = append(recl.caches, c)
	recl.mu.Unlock()
	return c
}

// Enter announces the start of a data-structure operation; references read
// from shared memory are protected until Exit.
func (c *Cache) Enter() {
	c.announce.Store(c.recl.global.Load())
}

// Exit announces the end of an operation. Periodically it also tries to
// advance the epoch and drain the limbo from this quiesced context — the
// thread holds no protected references here, so unlike a drain inside
// Retire (which runs mid-operation) this one can make progress even when
// this cache's own announcement was the stale one blocking the epoch.
//
// The idle announcement is a release store, not Enter's full fence: it must
// not become visible before the operation's reads of protected memory,
// which a release store guarantees, and it may become visible late, which
// only delays an epoch advance.
func (c *Cache) Exit() {
	storeRelease((*uint64)(unsafe.Pointer(&c.announce)), idleEpoch)
	c.exitCount++
	if len(c.limbo) > 0 && c.exitCount%exitDrainEvery == 0 {
		c.recl.tryAdvance()
		c.drain()
	}
}

// Alloc returns an offset for an object of the given number of words. The
// returned memory may contain stale contents; callers initialize every
// field before publishing. Panics if the region is exhausted.
func (c *Cache) Alloc(words int) uint64 {
	cls := classOf(words)
	if cls < 0 {
		return c.alloc.allocLarge(words)
	}
	fl := c.free[cls]
	if len(fl) == 0 {
		fl = c.alloc.refill(cls, fl, refillBatch)
		if len(fl) == 0 {
			panic(fmt.Sprintf("palloc: out of memory allocating %d words", words))
		}
	}
	off := fl[len(fl)-1]
	c.free[cls] = fl[:len(fl)-1]
	c.alloc.allocated.Add(uint64(classSizes[cls]))
	return off
}

// Free returns an object immediately. Only safe when no other thread can
// hold a reference (e.g. an object that was never published).
func (c *Cache) Free(off uint64, words int) {
	cls := classOf(words)
	if cls < 0 {
		c.alloc.freeLarge(off)
		return
	}
	c.free[cls] = append(c.free[cls], off)
	c.alloc.allocated.Add(^uint64(classSizes[cls] - 1))
	if len(c.free[cls]) > cacheCap {
		half := len(c.free[cls]) / 2
		c.alloc.release(cls, c.free[cls][half:])
		c.free[cls] = c.free[cls][:half]
	}
}

// Retire schedules an unlinked object for reclamation once no concurrent
// operation can still reach it.
func (c *Cache) Retire(off uint64, words int) {
	c.limbo = append(c.limbo, retired{off, words, c.recl.global.Load()})
	c.retireCount++
	if c.retireCount%advanceEvery == 0 {
		c.recl.tryAdvance()
	}
	if c.retireCount%drainEvery == 0 {
		c.drain()
	}
}

// Close ends the cache's life: a goroutine that stops using its Cache calls
// it, or its limbo is stranded forever and the allocator leaks. It frees what
// two epoch advances make ready — two is the reclamation distance, so a cache
// closing with no operation in flight elsewhere frees everything — hands the
// rest of the limbo to the Reclaimer's orphan list for the next drain of any
// other cache, unregisters, and returns the per-class free lists to the
// allocator. The cache must not be used afterwards.
func (c *Cache) Close() {
	c.announce.Store(idleEpoch)
	c.recl.tryAdvance()
	c.recl.tryAdvance()
	c.drain()
	r := c.recl
	r.mu.Lock()
	kept := make([]*Cache, 0, len(r.caches))
	for _, o := range r.caches {
		if o != c {
			kept = append(kept, o)
		}
	}
	r.caches = kept
	r.orphans = append(r.orphans, c.limbo...)
	r.orphaned.Store(int64(len(r.orphans)))
	r.mu.Unlock()
	c.limbo = nil
	for cls, fl := range c.free {
		if len(fl) > 0 {
			c.alloc.release(cls, fl)
		}
		c.free[cls] = nil
	}
}

// adoptOrphans moves the orphan list into c's limbo, restoring the epoch
// order drain relies on.
func (c *Cache) adoptOrphans() {
	r := c.recl
	r.mu.Lock()
	c.limbo = append(c.limbo, r.orphans...)
	r.orphans = nil
	r.orphaned.Store(0)
	r.mu.Unlock()
	sort.SliceStable(c.limbo, func(i, j int) bool { return c.limbo[i].epoch < c.limbo[j].epoch })
}

// drain frees limbo objects that are two epochs old, running PreFree once
// first when at least one object is ready. Orphans of closed caches join the
// limbo first, so they are freed under the same rule and after this cache's
// PreFree.
func (c *Cache) drain() {
	if c.recl.orphaned.Load() != 0 {
		c.adoptOrphans()
	}
	g := c.recl.global.Load()
	if len(c.limbo) == 0 || c.limbo[0].epoch+2 > g {
		return
	}
	if c.PreFree != nil {
		c.PreFree()
	}
	i := 0
	for i < len(c.limbo) && c.limbo[i].epoch+2 <= g {
		c.Free(c.limbo[i].off, c.limbo[i].words)
		i++
	}
	if i > 0 {
		c.limbo = c.limbo[:copy(c.limbo, c.limbo[i:])]
	}
}

// LimboLen returns the number of objects awaiting reclamation. Like every
// Cache method it belongs to the cache's owner.
func (c *Cache) LimboLen() int { return len(c.limbo) }

// EpochLag returns how many epochs the oldest object in the limbo has waited
// since it was retired, 0 with an empty limbo. Drains free an object two
// epochs after its retire, so the lag stays near two while reclamation keeps
// up; a lag that grows means the epoch advances and the limbo is not drained,
// and a limbo that grows at a small lag means an operation pins the epoch.
func (c *Cache) EpochLag() uint64 {
	if len(c.limbo) == 0 {
		return 0
	}
	return c.recl.global.Load() - c.limbo[0].epoch
}
