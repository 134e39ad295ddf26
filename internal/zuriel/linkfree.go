package zuriel

import (
	"math/rand"
	"sync"

	"mirror/internal/palloc"
	"mirror/internal/pmem"
)

// Link-Free node layout (4 words on NVMM).
const (
	lfKey  = 0
	lfVal  = 1
	lfMeta = 2
	lfNext = 3
	lfSize = 4
)

// lfHeadSlot is the device offset of the list head (single-list mode).
const lfHeadSlot = 8

// LinkFree is Zuriel et al.'s Link-Free durable set: one node per element
// on NVMM, pointers never flushed, one flush+fence per update.
type LinkFree struct {
	dev      *pmem.Device
	buckets  int    // 0 = single list
	heapBase uint64 // node-heap base (above the head slots)

	mu    sync.Mutex
	alloc *palloc.Allocator
	recl  *palloc.Reclaimer
}

// NewLinkFree creates a Link-Free set (a list, or a hash table when
// cfg.Buckets is a power of two).
func NewLinkFree(cfg Config) *LinkFree {
	cfg.setDefaults()
	base := uint64(lfHeadSlot + 8)
	if cfg.Buckets > 0 {
		base = uint64(lfHeadSlot + cfg.Buckets)
		base = (base + palloc.AlignWords - 1) &^ (palloc.AlignWords - 1)
	}
	s := &LinkFree{
		dev: pmem.New(pmem.Config{
			Name: "LinkFree", Words: cfg.Words,
			Persistent: true, Track: cfg.Track, Model: pmem.NVMMModel(),
		}),
		buckets:  cfg.Buckets,
		heapBase: base,
	}
	s.initVolatile()
	return s
}

// initVolatile (re)creates the allocator, reclaimer, and bucket slots; the
// head slots themselves are volatile data (never flushed).
func (s *LinkFree) initVolatile() {
	s.alloc = palloc.New(palloc.Config{Base: s.heapBase, End: uint64(s.dev.Size())})
	s.recl = palloc.NewReclaimer()
	n := 1
	if s.buckets > 0 {
		n = s.buckets
	}
	for i := 0; i < n; i++ {
		s.dev.WriteRaw(uint64(lfHeadSlot+i), 0)
	}
}

// Name implements Set.
func (s *LinkFree) Name() string {
	if s.buckets > 0 {
		return "LinkFree-hash"
	}
	return "LinkFree"
}

// Devices implements Set.
func (s *LinkFree) Devices() []*pmem.Device { return []*pmem.Device{s.dev} }

// NewCtx implements Set.
func (s *LinkFree) NewCtx() *Ctx {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Ctx{p: palloc.NewCache(s.alloc, s.recl)}
}

func (s *LinkFree) headSlot(key uint64) uint64 {
	if s.buckets == 0 {
		return lfHeadSlot
	}
	idx := (key * 11400714819323198485) >> (64 - uint(bitsLen(s.buckets)))
	return uint64(lfHeadSlot) + idx
}

func bitsLen(pow2 int) int {
	n := 0
	for v := pow2; v > 1; v >>= 1 {
		n++
	}
	return n
}

// flushNode persists a node's content line(s) and fences.
func (s *LinkFree) flushNode(c *Ctx, node uint64) {
	s.dev.Flush(&c.fs, node)
	s.dev.Fence(&c.fs)
}

// persistDelete moves a marked node's state to deleted and persists it;
// idempotent, called by the deleter and by helpers that observe the mark.
func (s *LinkFree) persistDelete(c *Ctx, node uint64) {
	meta := s.dev.Load(node + lfMeta)
	if meta&stateMask != stateDeleted {
		s.dev.CAS(node+lfMeta, meta, meta&^stateMask|stateDeleted)
	}
	s.flushNode(c, node)
}

// find locates key in the bucket list: predSlot is the word holding the
// reference to curr; curr is the first node with key' >= key, or 0. Marked
// nodes are persisted (helping) and unlinked on the way.
func (s *LinkFree) find(c *Ctx, key uint64) (predSlot, curr uint64) {
retry:
	for {
		predSlot = s.headSlot(key)
		curr = unmark(s.dev.Load(predSlot))
		for curr != 0 {
			next := s.dev.Load(curr + lfNext)
			if marked(next) {
				s.persistDelete(c, curr)
				if !s.dev.CAS(predSlot, curr, unmark(next)) {
					continue retry
				}
				c.p.Retire(curr, lfSize)
				curr = unmark(next)
				continue
			}
			if s.dev.Load(curr+lfKey) >= key {
				return predSlot, curr
			}
			predSlot = curr + lfNext
			curr = unmark(next)
		}
		return predSlot, 0
	}
}

// rollback invalidates and frees a node whose insert lost its race, so a
// later heap scan cannot resurrect it.
func (s *LinkFree) rollback(c *Ctx, node uint64) {
	s.dev.Store(node+lfMeta, stateInvalid)
	s.flushNode(c, node)
	c.p.Free(node, lfSize)
}

// Insert implements Set. The node is fully persisted *before* it is
// linked, so a linked node never needs helping.
func (s *LinkFree) Insert(c *Ctx, key, val uint64) bool {
	c.p.Enter()
	defer c.p.Exit()
	var node uint64
	for {
		predSlot, curr := s.find(c, key)
		if curr != 0 && s.dev.Load(curr+lfKey) == key {
			if node != 0 {
				s.rollback(c, node)
			}
			return false
		}
		if node == 0 {
			node = c.p.Alloc(lfSize)
			s.dev.Store(node+lfKey, key)
			s.dev.Store(node+lfVal, val)
			s.dev.Store(node+lfMeta, metaFor(stateInserted, key, val))
			s.flushNode(c, node) // the one persistence barrier per insert
		}
		s.dev.Store(node+lfNext, curr) // pointer: never flushed
		if s.dev.CAS(predSlot, curr, node) {
			return true
		}
	}
}

// Delete implements Set. The mark CAS is the linearization point; the
// deleted state is persisted before the operation returns.
func (s *LinkFree) Delete(c *Ctx, key uint64) bool {
	c.p.Enter()
	defer c.p.Exit()
	for {
		predSlot, curr := s.find(c, key)
		if curr == 0 || s.dev.Load(curr+lfKey) != key {
			return false
		}
		next := s.dev.Load(curr + lfNext)
		if marked(next) {
			continue // a racing delete wins; find will help persist it
		}
		if !s.dev.CAS(curr+lfNext, next, next|markBit) {
			continue
		}
		// Only now is the deleted state durable — the mark CAS alone lives
		// in a never-flushed word, and recovery would resurrect the key.
		s.persistDelete(c, curr)
		if s.dev.CAS(predSlot, curr, next) {
			c.p.Retire(curr, lfSize)
		}
		return true
	}
}

// Contains implements Set.
func (s *LinkFree) Contains(c *Ctx, key uint64) bool {
	_, ok := s.Get(c, key)
	return ok
}

// Get implements Set: a no-flush traversal unless it must help persist an
// in-flight deletion its answer depends on.
func (s *LinkFree) Get(c *Ctx, key uint64) (uint64, bool) {
	c.p.Enter()
	defer c.p.Exit()
	curr := unmark(s.dev.Load(s.headSlot(key)))
	for curr != 0 {
		k := s.dev.Load(curr + lfKey)
		next := s.dev.Load(curr + lfNext)
		if k >= key {
			if k != key {
				return 0, false
			}
			if marked(next) {
				// Result depends on an unpersisted delete: help first.
				s.persistDelete(c, curr)
				return 0, false
			}
			return s.dev.Load(curr + lfVal), true
		}
		curr = unmark(next)
	}
	return 0, false
}

// Freeze implements Set.
// InjectFaults installs the fault model on the node-heap device.
func (s *LinkFree) InjectFaults(fm *pmem.FaultModel) { s.dev.InjectFaults(fm) }

func (s *LinkFree) Freeze() { s.dev.Freeze() }

// Crash implements Set.
func (s *LinkFree) Crash(policy pmem.CrashPolicy, rng *rand.Rand) {
	s.dev.Freeze()
	s.dev.Crash(policy, rng)
}

// Recover implements Set: sweep the node heap for checksum-valid inserted
// nodes, then rebuild the structure from scratch with fresh allocator
// state — Zuriel's recovery, which is what makes not persisting pointers
// sound. Idempotent: a crash during recovery re-scans both old and
// re-inserted nodes and deduplicates by key.
func (s *LinkFree) Recover() { s.RecoverParallel(1) }

// RecoverParallel implements Set: the heap scan, the sanitize wipe, and the
// re-insert replay each partition across the workers; the scan's offset-
// order merge keeps the surviving set identical to sequential recovery.
func (s *LinkFree) RecoverParallel(workers int) {
	if workers < 1 {
		workers = 1
	}
	s.mu.Lock()
	frontier := s.alloc.Frontier()
	base := s.alloc.Base()
	s.mu.Unlock()
	live := scanLive(s.dev, base, frontier, lfSize, lfKey, lfVal, lfMeta, workers)
	sanitizeHeap(s.dev, base, frontier, workers)
	s.mu.Lock()
	s.initVolatile()
	s.mu.Unlock()
	reinsert(live, workers, s.NewCtx, s.Insert)
}

// Counters implements Set.
func (s *LinkFree) Counters() (uint64, uint64) { return s.dev.Counters() }

var _ Set = (*LinkFree)(nil)
