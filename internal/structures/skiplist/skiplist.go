// Package skiplist implements a Fraser-style lock-free skip list [Fraser
// 2003], the fourth structure evaluated in the paper (§6.1).
//
// Presence of a key is decided solely at level 0; the higher levels are
// search accelerators. Deletion marks a node's next pointers from the top
// level down — the level-0 mark is the linearization point — after which
// searches compact marked runs out of each level with a single CAS.
//
// Reclamation note: as in the reference implementations (Fraser's and
// ASCYLIB's, which the paper's artifact builds on), an insert that stalls
// between validating and linking an upper level while the node is
// concurrently deleted can momentarily relink a retired node; the insert
// unlinks it again before returning. The inherited theoretical window is
// documented in DESIGN.md.
package skiplist

import (
	"sync/atomic"

	"mirror/internal/engine"
	"mirror/internal/structures"
)

// MaxLevel is the tower height cap; 2^16 expected elements per level-1
// node keeps this ample for the simulated sizes.
const MaxLevel = 16

// Node field indexes. A node of height h has 3+h fields.
const (
	fKey  = 0
	fVal  = 1
	fTop  = 2
	fNext = 3 // fNext+i is the level-i next reference
)

// rootHead is the default root field holding the head sentinel's reference.
const rootHead = 3

// SkipList is the lock-free skip list.
type SkipList struct {
	e     engine.Engine
	head  engine.Ref
	seed  atomic.Uint64
	rootF int
}

// New creates the skip list (or adopts an existing one after recovery).
// Its head reference lives in root field 3.
func New(e engine.Engine, c *engine.Ctx) *SkipList {
	return NewAt(e, c, rootHead)
}

// NewAt is New with an explicit root field.
func NewAt(e engine.Engine, c *engine.Ctx, rootField int) *SkipList {
	s := &SkipList{e: e, rootF: rootField}
	s.seed.Store(0x9e3779b97f4a7c15)
	e.OpBegin(c)
	defer e.OpEnd(c)
	if h := e.Load(c, e.RootRef(), rootField); h != 0 {
		s.head = h
		s.repairLevels(c)
		return s
	}
	s.head = e.Alloc(c, fNext+MaxLevel)
	e.StoreInit(c, s.head, fKey, 0)
	e.StoreInit(c, s.head, fVal, 0)
	e.StoreInit(c, s.head, fTop, MaxLevel)
	for i := 0; i < MaxLevel; i++ {
		e.StoreInit(c, s.head, fNext+i, 0)
	}
	e.Publish(c, s.head)
	e.Store(c, e.RootRef(), rootField, s.head)
	return s
}

// Name implements structures.Set.
func (s *SkipList) Name() string { return "skiplist" }

// repairLevels restores the accelerator-level invariants on a recovered
// image. Delete marks the accelerator levels with relaxed persistence
// (only the level-0 mark — the linearization point — is fenced), which
// admits post-crash states crash-free execution never produces: a crash
// can surface a node durably marked at level 0 but unmarked above, and a
// searcher descending through it would retry forever waiting for a dead
// deleter to finish.
//
// Presence is decided solely at level 0, so the pass rebuilds every
// accelerator level from the level-0 chain: level i links exactly the
// unmarked level-0 nodes of height > i, in level-0 order, and nothing
// else. Level-0-marked zombies drop out of the accelerator levels
// entirely (searches snip them out of level 0 as usual), and a stray
// upper-level mark on a present node — the footprint of a delete cut
// before its level-0 mark — is overwritten with the rebuilt link.
// Idempotent and crash-safe: level 0 is never written, so a crash
// mid-repair leaves an image the next repair rebuilds from the same
// truth. Full CASes — this is recovery, not the hot path.
func (s *SkipList) repairLevels(c *engine.Ctx) {
	e := s.e
	type entry struct {
		ref engine.Ref
		top int
	}
	var chain []entry
	seen := newRefSet(e)
	seen.add(s.head)
	for curr := structures.Unmark(e.TraversalLoad(c, s.head, fNext)); curr != 0 && seen.add(curr); {
		next := e.TraversalLoad(c, curr, fNext)
		if !structures.Marked(next) {
			chain = append(chain, entry{curr, int(e.TraversalLoad(c, curr, fTop))})
		}
		curr = structures.Unmark(next)
	}
	for i := 1; i < MaxLevel; i++ {
		pred := s.head
		for _, en := range chain {
			if en.top <= i {
				continue
			}
			if cur := e.TraversalLoad(c, pred, fNext+i); cur != en.ref {
				e.CAS(c, pred, fNext+i, cur, en.ref)
			}
			pred = en.ref
		}
		if cur := e.TraversalLoad(c, pred, fNext+i); cur != 0 {
			e.CAS(c, pred, fNext+i, cur, 0)
		}
	}
}

// randomLevel draws a height with geometric distribution p=1/2.
func (s *SkipList) randomLevel() int {
	x := s.seed.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	level := 1
	for x&1 == 1 && level < MaxLevel {
		level++
		x >>= 1
	}
	return level
}

// search locates key on every level, compacting marked runs out of the
// lists as it goes (Fraser's search). On return preds[i] is the last node
// with key' < key at level i and succs[i] the first with key' >= key (or 0).
func (s *SkipList) search(c *engine.Ctx, key uint64, preds, succs *[MaxLevel]engine.Ref) {
	e := s.e
retry:
	for {
		left := s.head
		for i := MaxLevel - 1; i >= 0; i-- {
			leftNext := e.TraversalLoad(c, left, fNext+i)
			if structures.Marked(leftNext) {
				continue retry // left got deleted under us
			}
			right := leftNext
			var rightNext uint64
			for {
				// Skip a marked run.
				for right != 0 {
					rightNext = e.TraversalLoad(c, right, fNext+i)
					if !structures.Marked(rightNext) {
						break
					}
					right = structures.Unmark(rightNext)
				}
				if right == 0 || e.TraversalLoad(c, right, fKey) >= key {
					break
				}
				left = right
				leftNext = rightNext
				right = structures.Unmark(rightNext)
			}
			if leftNext != right {
				// Snip the whole marked run with one CAS. The snipped
				// nodes are already logically deleted, so the snip may
				// persist lazily: the relaxed-line registry commits it
				// before any of those nodes' memory is reused.
				e.MakePersistent(c, left, fNext+i+1)
				if !e.CASRelaxed(c, left, fNext+i, leftNext, right) {
					continue retry
				}
			}
			if preds != nil {
				preds[i], succs[i] = left, right
			}
		}
		return
	}
}

// Insert implements structures.Set.
func (s *SkipList) Insert(c *engine.Ctx, key, val uint64) bool {
	if key == 0 || key > structures.KeyMax {
		panic("skiplist: key outside usable range")
	}
	e := s.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	var preds, succs [MaxLevel]engine.Ref
	level := s.randomLevel()
	var node engine.Ref
	for {
		s.search(c, key, &preds, &succs)
		if succs[0] != 0 && e.TraversalLoad(c, succs[0], fKey) == key {
			if node != 0 {
				e.FreeUnpublished(c, node, fNext+level)
			}
			e.MakePersistent(c, succs[0], fNext)
			return false
		}
		// Batch the tower's initialization: relaxed flushes per dirty
		// line, one trailing fence at Commit.
		b := engine.Batch(e, c)
		if node == 0 {
			node = e.Alloc(c, fNext+level)
			b.StoreInit(node, fKey, key)
			b.StoreInit(node, fVal, val)
			b.StoreInit(node, fTop, uint64(level))
		}
		for i := 0; i < level; i++ {
			b.StoreInit(node, fNext+i, succs[i])
		}
		b.Commit()
		e.MakePersistent(c, preds[0], fNext+1)
		if !e.CAS(c, preds[0], fNext, succs[0], node) {
			continue // level-0 link lost the race; redo the search
		}
		// The node is logically inserted (the level-0 link above carried
		// the full durability discipline). Link the accelerator levels;
		// abandon as soon as a concurrent delete marks the node. These
		// links only restore search acceleration — a crash that loses one
		// leaves the node reachable and present via level 0 — so they may
		// persist lazily through the relaxed-line registry.
		for i := 1; i < level; i++ {
			for {
				cur := e.TraversalLoad(c, node, fNext+i)
				if structures.Marked(cur) {
					return true // concurrently deleted; searches clean up
				}
				if cur != succs[i] {
					if !e.CASRelaxed(c, node, fNext+i, cur, succs[i]) {
						// Lost to a mark; stop linking.
						return true
					}
				}
				if succs[i] == node {
					break // already linked at this level by a re-search
				}
				e.MakePersistent(c, preds[i], fNext+i+1)
				if e.CASRelaxed(c, preds[i], fNext+i, succs[i], node) {
					break
				}
				s.search(c, key, &preds, &succs)
				if succs[0] != node {
					return true // deleted and excised meanwhile
				}
			}
			// Validation: if the node was marked while we linked this
			// level, make sure it is physically unlinked before
			// returning (closes the reference-algorithm's window).
			if structures.Marked(e.TraversalLoad(c, node, fNext+i)) {
				s.search(c, key, nil, nil)
				return true
			}
		}
		return true
	}
}

// Delete implements structures.Set. Its linearization point is the
// successful mark of the level-0 next pointer.
func (s *SkipList) Delete(c *engine.Ctx, key uint64) bool {
	e := s.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	var preds, succs [MaxLevel]engine.Ref
	s.search(c, key, &preds, &succs)
	node := succs[0]
	if node == 0 || e.TraversalLoad(c, node, fKey) != key {
		return false
	}
	top := int(e.TraversalLoad(c, node, fTop))
	e.MakePersistent(c, node, fNext+top)
	// Mark the accelerator levels top-down. Only the level-0 mark below
	// decides presence, so these marks may persist lazily (relaxed): a
	// crash that loses one leaves a not-yet-deleted node, which is the
	// same state as crashing before the delete began.
	for i := top - 1; i >= 1; i-- {
		for {
			next := e.TraversalLoad(c, node, fNext+i)
			if structures.Marked(next) {
				break
			}
			if e.CASRelaxed(c, node, fNext+i, next, structures.Mark(next)) {
				break
			}
		}
	}
	// Level 0 decides ownership.
	for {
		next := e.TraversalLoad(c, node, fNext)
		if structures.Marked(next) {
			// A concurrent delete won; help excise and report absent.
			s.search(c, key, nil, nil)
			return false
		}
		if e.CAS(c, node, fNext, next, structures.Mark(next)) {
			// Physically unlink everywhere, then reclaim.
			s.search(c, key, nil, nil)
			e.Retire(c, node, fNext+top)
			return true
		}
	}
}

// Contains implements structures.Set.
func (s *SkipList) Contains(c *engine.Ctx, key uint64) bool {
	_, ok := s.Get(c, key)
	return ok
}

// Get implements structures.Set with a read-only traversal (no snipping).
func (s *SkipList) Get(c *engine.Ctx, key uint64) (uint64, bool) {
	e := s.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	pred := s.head
	var candidate engine.Ref
	for i := MaxLevel - 1; i >= 0; i-- {
		curr := structures.Unmark(e.TraversalLoad(c, pred, fNext+i))
		for curr != 0 {
			next := e.TraversalLoad(c, curr, fNext+i)
			if structures.Marked(next) {
				curr = structures.Unmark(next)
				continue
			}
			k := e.TraversalLoad(c, curr, fKey)
			if k < key {
				pred = curr
				curr = structures.Unmark(next)
				continue
			}
			if i == 0 && k == key {
				candidate = curr
			}
			break
		}
	}
	if candidate == 0 {
		return 0, false
	}
	v := e.TraversalLoad(c, candidate, fVal)
	e.MakePersistent(c, candidate, fNext)
	return v, true
}

// CasVal atomically replaces key's value with repl iff the key is present
// and currently holds expect (read-modify-write; the serving tier's RMW
// op). The linearization point is the successful CAS on the value field;
// like Insert's level-0 link it runs under the full durability discipline,
// so the caller's verdict may publish after it. Returns false if the key
// is absent, deleted, or holds a different value.
func (s *SkipList) CasVal(c *engine.Ctx, key, expect, repl uint64) bool {
	if key == 0 || key > structures.KeyMax {
		panic("skiplist: key outside usable range")
	}
	e := s.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	var preds, succs [MaxLevel]engine.Ref
	for {
		s.search(c, key, &preds, &succs)
		node := succs[0]
		if node == 0 || e.TraversalLoad(c, node, fKey) != key {
			return false
		}
		if structures.Marked(e.TraversalLoad(c, node, fNext)) {
			return false // concurrently deleted
		}
		e.MakePersistent(c, node, fNext)
		cur := e.TraversalLoad(c, node, fVal)
		if cur != expect {
			return false
		}
		if e.CAS(c, node, fVal, cur, repl) {
			return true
		}
		// The value moved between the read and the CAS: re-search and
		// re-test against expect (a changed value is simply a miss).
	}
}

// Len counts present keys (quiesced use only).
func (s *SkipList) Len(c *engine.Ctx) int {
	e := s.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	n := 0
	curr := structures.Unmark(e.TraversalLoad(c, s.head, fNext))
	for curr != 0 {
		next := e.TraversalLoad(c, curr, fNext)
		if !structures.Marked(next) {
			n++
		}
		curr = structures.Unmark(next)
	}
	return n
}

// Tracer implements structures.Set. Marked and upper-level-only nodes are
// still reachable, so every level is walked with deduplication.
func (s *SkipList) Tracer() engine.Tracer {
	return TracerAt(s.e, s.rootF)
}

// TracerAt returns the skip list's recovery tracer without attaching to
// the (possibly not yet recovered) structure.
func TracerAt(e engine.Engine, rootField int) engine.Tracer {
	return func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int)) {
		head := read(e.RootRef(), rootField)
		if head == 0 {
			return
		}
		seen := newRefSet(e)
		seen.add(head)
		visit(head, fNext+MaxLevel)
		for i := 0; i < MaxLevel; i++ {
			curr := structures.Unmark(read(head, fNext+i))
			for curr != 0 {
				if seen.add(curr) {
					visit(curr, fNext+int(read(curr, fTop)))
				}
				curr = structures.Unmark(read(curr, fNext+i))
			}
		}
	}
}

// ShardedTracer implements structures.ShardableSet.
func (s *SkipList) ShardedTracer() engine.ShardedTracer {
	return ShardedTracerAt(s.e, s.rootF)
}

// ShardedTracerAt is TracerAt in the parallel pipeline's form: shard 0 runs
// the whole trace and every other shard visits nothing. The walk is not
// split because no sound split saves a read. A shard may not start a
// level's walk from a node it reached on the level above: on a crash image
// that node can be one whose snip from the lower level is durable while its
// mark is not, and its stale lower links lead into freed or reused memory,
// past live nodes (TestShardedTracerMatchesOnFrozenLinks). So every shard
// would walk every level from the head, repeating the whole trace. The
// rebuild after the trace is still split (recovery.Batches).
func ShardedTracerAt(e engine.Engine, rootField int) engine.ShardedTracer {
	trace := TracerAt(e, rootField)
	return func(shard, shards int) engine.Tracer {
		if shard == 0 {
			return trace
		}
		return func(func(engine.Ref, int) uint64, func(engine.Ref, int)) {}
	}
}

// refSet is the set of nodes a trace or a repair pass has seen: one bit per
// possible object of the engine's device, since objects are at least
// 32-byte aligned (engine.Ref) — a bit per four words, and no hashing on a
// walk that touches every node of every level. A reference beyond the
// device panics in add, as a read of it would.
type refSet []uint64

func newRefSet(e engine.Engine) refSet { return make(refSet, e.Devices()[0].Size()/256+1) }

// add inserts ref and reports whether it was absent.
func (s refSet) add(ref engine.Ref) bool {
	i := ref >> 2
	w, bit := i>>6, uint64(1)<<(i&63)
	if s[w]&bit != 0 {
		return false
	}
	s[w] |= bit
	return true
}

var _ structures.Set = (*SkipList)(nil)
var _ structures.ShardableSet = (*SkipList)(nil)

// Range calls fn for each present key in [from, to] in ascending order,
// stopping early if fn returns false. Weakly consistent (not a snapshot).
func (s *SkipList) Range(c *engine.Ctx, from, to uint64, fn func(key, val uint64) bool) {
	e := s.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	// Descend to the last node with key < from.
	pred := s.head
	for i := MaxLevel - 1; i >= 0; i-- {
		curr := structures.Unmark(e.TraversalLoad(c, pred, fNext+i))
		for curr != 0 {
			next := e.TraversalLoad(c, curr, fNext+i)
			if structures.Marked(next) {
				curr = structures.Unmark(next)
				continue
			}
			if e.TraversalLoad(c, curr, fKey) >= from {
				break
			}
			pred = curr
			curr = structures.Unmark(next)
		}
	}
	// Walk level 0.
	curr := structures.Unmark(e.TraversalLoad(c, pred, fNext))
	for curr != 0 {
		next := e.TraversalLoad(c, curr, fNext)
		k := e.TraversalLoad(c, curr, fKey)
		if k > to {
			return
		}
		if k >= from && !structures.Marked(next) {
			if !fn(k, e.TraversalLoad(c, curr, fVal)) {
				return
			}
		}
		curr = structures.Unmark(next)
	}
}
