package zuriel

import (
	"math/rand"
	"sync"

	"mirror/internal/palloc"
	"mirror/internal/pmem"
)

// SOFT persistent-node layout (4 words on the persistent device).
const (
	pnKey  = 0
	pnVal  = 1
	pnMeta = 2
	pnSize = 4
)

// SOFT volatile-node layout (4 words on the volatile device).
const (
	vnKey  = 0
	vnPtr  = 1 // reference to the PNode
	vnNext = 2
	vnSize = 4
)

// softHeadSlot is the volatile-device offset of the list head.
const softHeadSlot = 8

// Soft is Zuriel et al.'s SOFT durable set: elements split into a
// persistent content node (PNode, flushed once per update) and a volatile
// list node (VNode, never flushed) that carries the links.
type Soft struct {
	pdev      *pmem.Device
	vdev      *pmem.Device
	buckets   int
	pheapBase uint64 // PNode-heap base on pdev

	mu     sync.Mutex
	palloc *palloc.Allocator
	valloc *palloc.Allocator
	precl  *palloc.Reclaimer
	vrecl  *palloc.Reclaimer
}

// NewSoft creates a SOFT set (a list, or a hash table when cfg.Buckets is
// a power of two).
func NewSoft(cfg Config) *Soft {
	cfg.setDefaults()
	s := &Soft{
		pdev: pmem.New(pmem.Config{
			Name: "SOFT-pnodes", Words: cfg.Words,
			Persistent: true, Track: cfg.Track, Model: pmem.NVMMModel(),
		}),
		// The volatile half is also priced as NVMM, as in the original
		// artifact; its split nodes cost space, not flushes.
		vdev: pmem.New(pmem.Config{
			Name: "SOFT-vnodes", Words: cfg.Words, Model: pmem.NVMMModel(),
		}),
		buckets:   cfg.Buckets,
		pheapBase: 8,
	}
	s.initVolatile()
	return s
}

func (s *Soft) initVolatile() {
	vbase := uint64(softHeadSlot + 8)
	if s.buckets > 0 {
		vbase = uint64(softHeadSlot + s.buckets)
		vbase = (vbase + palloc.AlignWords - 1) &^ (palloc.AlignWords - 1)
	}
	s.palloc = palloc.New(palloc.Config{Base: s.pheapBase, End: uint64(s.pdev.Size())})
	s.valloc = palloc.New(palloc.Config{Base: vbase, End: uint64(s.vdev.Size())})
	s.precl = palloc.NewReclaimer()
	s.vrecl = palloc.NewReclaimer()
	n := 1
	if s.buckets > 0 {
		n = s.buckets
	}
	for i := 0; i < n; i++ {
		s.vdev.WriteRaw(uint64(softHeadSlot+i), 0)
	}
}

// Name implements Set.
func (s *Soft) Name() string {
	if s.buckets > 0 {
		return "SOFT-hash"
	}
	return "SOFT"
}

// Devices implements Set.
func (s *Soft) Devices() []*pmem.Device { return []*pmem.Device{s.pdev, s.vdev} }

// NewCtx implements Set.
func (s *Soft) NewCtx() *Ctx {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Ctx{
		p: palloc.NewCache(s.palloc, s.precl),
		v: palloc.NewCache(s.valloc, s.vrecl),
	}
}

func (s *Soft) headSlot(key uint64) uint64 {
	if s.buckets == 0 {
		return softHeadSlot
	}
	idx := (key * 11400714819323198485) >> (64 - uint(bitsLen(s.buckets)))
	return uint64(softHeadSlot) + idx
}

// persistDelete persists a PNode's deleted state (idempotent; deleter and
// helpers both call it).
func (s *Soft) persistDelete(c *Ctx, pnode uint64) {
	meta := s.pdev.Load(pnode + pnMeta)
	if meta&stateMask != stateDeleted {
		s.pdev.CAS(pnode+pnMeta, meta, meta&^stateMask|stateDeleted)
	}
	s.pdev.Flush(&c.fs, pnode)
	s.pdev.Fence(&c.fs)
}

// find locates key in the volatile list, helping persist and unlinking
// marked nodes on the way.
func (s *Soft) find(c *Ctx, key uint64) (predSlot, curr uint64) {
retry:
	for {
		predSlot = s.headSlot(key)
		curr = unmark(s.vdev.Load(predSlot))
		for curr != 0 {
			next := s.vdev.Load(curr + vnNext)
			if marked(next) {
				s.persistDelete(c, s.vdev.Load(curr+vnPtr))
				if !s.vdev.CAS(predSlot, curr, unmark(next)) {
					continue retry
				}
				c.p.Retire(s.vdev.Load(curr+vnPtr), pnSize)
				c.v.Retire(curr, vnSize)
				curr = unmark(next)
				continue
			}
			if s.vdev.Load(curr+vnKey) >= key {
				return predSlot, curr
			}
			predSlot = curr + vnNext
			curr = unmark(next)
		}
		return predSlot, 0
	}
}

// Insert implements Set. The PNode is fully persisted before the VNode is
// linked.
func (s *Soft) Insert(c *Ctx, key, val uint64) bool {
	c.p.Enter()
	c.v.Enter()
	defer c.p.Exit()
	defer c.v.Exit()
	var pnode, vnode uint64
	for {
		predSlot, curr := s.find(c, key)
		if curr != 0 && s.vdev.Load(curr+vnKey) == key {
			if pnode != 0 {
				s.pdev.Store(pnode+pnMeta, stateInvalid)
				s.pdev.Flush(&c.fs, pnode)
				s.pdev.Fence(&c.fs)
				c.p.Free(pnode, pnSize)
				c.v.Free(vnode, vnSize)
			}
			return false
		}
		if pnode == 0 {
			pnode = c.p.Alloc(pnSize)
			s.pdev.Store(pnode+pnKey, key)
			s.pdev.Store(pnode+pnVal, val)
			s.pdev.Store(pnode+pnMeta, metaFor(stateInserted, key, val))
			s.pdev.Flush(&c.fs, pnode) // the one persistence barrier
			s.pdev.Fence(&c.fs)
			vnode = c.v.Alloc(vnSize)
			s.vdev.Store(vnode+vnKey, key)
			s.vdev.Store(vnode+vnPtr, pnode)
		}
		s.vdev.Store(vnode+vnNext, curr)
		if s.vdev.CAS(predSlot, curr, vnode) {
			return true
		}
	}
}

// Delete implements Set.
func (s *Soft) Delete(c *Ctx, key uint64) bool {
	c.p.Enter()
	c.v.Enter()
	defer c.p.Exit()
	defer c.v.Exit()
	for {
		predSlot, curr := s.find(c, key)
		if curr == 0 || s.vdev.Load(curr+vnKey) != key {
			return false
		}
		next := s.vdev.Load(curr + vnNext)
		if marked(next) {
			continue
		}
		if !s.vdev.CAS(curr+vnNext, next, next|markBit) {
			continue
		}
		// Only now is the deleted state durable — the mark CAS lives in the
		// volatile half, and recovery would resurrect the key.
		s.persistDelete(c, s.vdev.Load(curr+vnPtr))
		if s.vdev.CAS(predSlot, curr, next) {
			c.p.Retire(s.vdev.Load(curr+vnPtr), pnSize)
			c.v.Retire(curr, vnSize)
		}
		return true
	}
}

// Contains implements Set.
func (s *Soft) Contains(c *Ctx, key uint64) bool {
	_, ok := s.Get(c, key)
	return ok
}

// Get implements Set: flush-free unless the answer depends on an
// in-flight deletion.
func (s *Soft) Get(c *Ctx, key uint64) (uint64, bool) {
	c.p.Enter()
	c.v.Enter()
	defer c.p.Exit()
	defer c.v.Exit()
	curr := unmark(s.vdev.Load(s.headSlot(key)))
	for curr != 0 {
		k := s.vdev.Load(curr + vnKey)
		next := s.vdev.Load(curr + vnNext)
		if k >= key {
			if k != key {
				return 0, false
			}
			pnode := s.vdev.Load(curr + vnPtr)
			if marked(next) {
				s.persistDelete(c, pnode)
				return 0, false
			}
			return s.pdev.Load(pnode + pnVal), true
		}
		curr = unmark(next)
	}
	return 0, false
}

// InjectFaults installs the fault model on the persistent-node device
// (VNodes are volatile and need no adversary).
func (s *Soft) InjectFaults(fm *pmem.FaultModel) { s.pdev.InjectFaults(fm) }

// Freeze implements Set.
func (s *Soft) Freeze() {
	s.pdev.Freeze()
	s.vdev.Freeze()
}

// Crash implements Set.
func (s *Soft) Crash(policy pmem.CrashPolicy, rng *rand.Rand) {
	s.Freeze()
	s.pdev.Crash(policy, rng)
	s.vdev.Crash(policy, rng) // volatile half: wiped
}

// Recover implements Set: sweep the PNode heap and rebuild both halves.
func (s *Soft) Recover() { s.RecoverParallel(1) }

// RecoverParallel implements Set: partitioned PNode-heap scan, sanitize,
// and re-insert, exactly as for Link-Free (only the persistent half is
// scanned — the volatile half is rebuilt by the replay).
func (s *Soft) RecoverParallel(workers int) {
	if workers < 1 {
		workers = 1
	}
	s.mu.Lock()
	frontier := s.palloc.Frontier()
	base := s.palloc.Base()
	s.mu.Unlock()
	live := scanLive(s.pdev, base, frontier, pnSize, pnKey, pnVal, pnMeta, workers)
	sanitizeHeap(s.pdev, base, frontier, workers)
	s.mu.Lock()
	s.initVolatile()
	s.mu.Unlock()
	reinsert(live, workers, s.NewCtx, s.Insert)
}

// Counters implements Set.
func (s *Soft) Counters() (uint64, uint64) {
	f1, n1 := s.pdev.Counters()
	f2, n2 := s.vdev.Counters()
	return f1 + f2, n1 + n2
}

var _ Set = (*Soft)(nil)
