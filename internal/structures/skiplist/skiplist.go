// Package skiplist implements a Fraser-style lock-free skip list [Fraser
// 2003], the fourth structure evaluated in the paper (§6.1).
//
// Presence of a key is decided solely at level 0; the higher levels are
// search accelerators. Deletion marks a node's next pointers from the top
// level down — the level-0 mark is the linearization point — after which
// searches compact marked runs out of each level with a single CAS.
//
// Persistence follows that split. Level-0 links and marks are durable
// before they are visible (CAS) and level-0 snips are retire-gated
// (CASRelaxed). The links above level 0 are plain words that only
// CASRebuilt writes: never persisted, because recovery traces level 0 only
// and the trace itself relinks the accelerator levels from it (TracerAt),
// into words no recovery copy covers, before anything reads them. The key
// and the tower height are write-once plain words, durable at the publish
// fence.
//
// Reclamation note: as in the reference implementations (Fraser's and
// ASCYLIB's, which the paper's artifact builds on), an insert that stalls
// between validating and linking an upper level while the node is
// concurrently deleted can momentarily relink a retired node; the insert
// unlinks it again before returning. The inherited theoretical window is
// documented in DESIGN.md.
package skiplist

import (
	"fmt"
	"sync/atomic"

	"mirror/internal/engine"
	"mirror/internal/structures"
)

// MaxLevel is the tower height cap; 2^16 expected elements per level-1
// node keeps this ample for the simulated sizes.
const MaxLevel = 16

// Node layout (engine.Plain). The two mutable words are cells and come
// first: the value, which CasVal replaces, and the level-0 link, whose low
// bit is the delete mark. The plain words follow: the write-once key and
// tower height, then the links above level 0, which only CASRebuilt writes.
// A node of height h is NodeFields(h): two cells and h+1 plain words. The
// height word also carries, from engine.TagShift up, the tag of the
// detectable insert that published the node (Height strips it).
const (
	FieldVal  = 0
	FieldNext = 1 // the level-0 link; Link(i) is the level-i one
	FieldKey  = 2 * engine.Plain
	FieldTop  = FieldKey + 1
)

// Link returns the field of a node's level-i link: the cell FieldNext at
// level 0, a rebuilt plain word above it.
func Link(i int) int {
	if i == 0 {
		return FieldNext
	}
	return FieldTop + i
}

// NodeFields returns the size of a node of height h.
func NodeFields(h int) int { return FieldTop + h }

// Height returns the tower height a FieldTop word holds, without the tag of
// the insert that published the node.
func Height(top uint64) int { return int(top & (1<<engine.TagShift - 1)) }

// rootHead is the default root field holding the head sentinel's reference.
const rootHead = 3

// SkipList is the lock-free skip list.
type SkipList struct {
	e     engine.Engine
	head  engine.Ref
	seed  atomic.Uint64
	rootF int
}

// New creates the skip list (or adopts an existing one after recovery,
// whose trace has already relinked its towers). Its head reference lives
// in root field 3.
func New(e engine.Engine, c *engine.Ctx) *SkipList {
	return NewAt(e, c, rootHead)
}

// NewAt is New with an explicit root field. Adopting reads the root and
// nothing else.
func NewAt(e engine.Engine, c *engine.Ctx, rootField int) *SkipList {
	s := &SkipList{e: e, rootF: rootField}
	s.seed.Store(0x9e3779b97f4a7c15)
	e.OpBegin(c)
	defer e.OpEnd(c)
	if h := e.Load(c, engine.Root, rootField); h != 0 {
		s.head = h
		return s
	}
	s.head = e.Alloc(c, NodeFields(MaxLevel))
	e.StoreInit(c, s.head, FieldKey, 0)
	e.StoreInit(c, s.head, FieldVal, 0)
	e.StoreInit(c, s.head, FieldTop, MaxLevel)
	for i := 0; i < MaxLevel; i++ {
		e.StoreInit(c, s.head, Link(i), 0)
	}
	e.Publish(c, s.head)
	e.Store(c, engine.Root, rootField, s.head)
	return s
}

// Name implements structures.Set.
func (s *SkipList) Name() string { return "skiplist" }

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
			leftNext := e.TraversalLoad(c, left, Link(i))
			if structures.Marked(leftNext) {
				continue retry // left got deleted under us
			}
			right := leftNext
			var rightNext uint64
			for {
				// Skip a marked run.
				for right != 0 {
					rightNext = e.TraversalLoad(c, right, Link(i))
					if !structures.Marked(rightNext) {
						break
					}
					right = structures.Unmark(rightNext)
				}
				if right == 0 || e.TraversalLoad(c, right, FieldKey) >= key {
					break
				}
				left = right
				leftNext = rightNext
				right = structures.Unmark(rightNext)
			}
			if leftNext != right {
				// Snip the whole marked run with one CAS. The snipped
				// nodes are already logically deleted, so a level-0 snip
				// may persist lazily: the relaxed-line registry commits it
				// before any of those nodes' memory is reused. A snip
				// above level 0 is never persisted at all.
				var ok bool
				if i == 0 {
					e.MakePersistent(c, left, FieldNext+1)
					ok = e.CASRelaxed(c, left, FieldNext, leftNext, right)
				} else {
					ok = e.CASRebuilt(c, left, Link(i), leftNext, right)
				}
				if !ok {
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
		if succs[0] != 0 && e.TraversalLoad(c, succs[0], FieldKey) == key {
			if node != 0 {
				e.FreeUnpublished(c, node, NodeFields(level))
			}
			e.MakePersistent(c, succs[0], FieldNext)
			return false
		}
		// Initialize the tower and publish it under one trailing fence (an
		// eliding engine flushes each dirty line once, at Publish). The
		// height word names the armed operation: on Mirror, once the node
		// is on level 0 it testifies that the insert took effect, and the
		// insert needs no verdict (engine detect.go "Evidence instead of a
		// verdict").
		if node == 0 {
			node = e.Alloc(c, NodeFields(level))
			e.StoreInit(c, node, FieldKey, key)
			e.StoreInit(c, node, FieldVal, val)
			e.StoreInit(c, node, FieldTop, uint64(level)|c.NodeTag())
		}
		for i := 0; i < level; i++ {
			e.StoreInit(c, node, Link(i), succs[i])
		}
		e.Publish(c, node)
		e.MakePersistent(c, preds[0], FieldNext+1)
		if !e.CAS(c, preds[0], FieldNext, succs[0], node) {
			continue // level-0 link lost the race; redo the search
		}
		// The node is logically inserted (the level-0 link above carried
		// the full durability discipline). Link the accelerator levels;
		// abandon as soon as a concurrent delete marks the node. These
		// links only restore search acceleration — a crash that loses one
		// leaves the node reachable and present via level 0 — so they are
		// never persisted: recovery rebuilds them.
		for i := 1; i < level; i++ {
			for {
				cur := e.TraversalLoad(c, node, Link(i))
				if structures.Marked(cur) {
					return true // concurrently deleted; searches clean up
				}
				if cur != succs[i] {
					if !e.CASRebuilt(c, node, Link(i), cur, succs[i]) {
						// Lost to a mark; stop linking.
						return true
					}
				}
				if succs[i] == node {
					break // already linked at this level by a re-search
				}
				if e.CASRebuilt(c, preds[i], Link(i), succs[i], node) {
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
			if structures.Marked(e.TraversalLoad(c, node, Link(i))) {
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
	if node == 0 || e.TraversalLoad(c, node, FieldKey) != key {
		return false
	}
	topWord := e.TraversalLoad(c, node, FieldTop)
	top := Height(topWord)
	e.MakePersistent(c, node, FieldNext+1)
	// Mark the accelerator levels top-down. Only the level-0 mark below
	// decides presence, so these marks are never persisted: a crash that
	// loses one leaves a not-yet-deleted node, which is the same state as
	// crashing before the delete began, and recovery rebuilds them anyway.
	for i := top - 1; i >= 1; i-- {
		for {
			next := e.TraversalLoad(c, node, Link(i))
			if structures.Marked(next) {
				break
			}
			if e.CASRebuilt(c, node, Link(i), next, structures.Mark(next)) {
				break
			}
		}
	}
	// Level 0 decides ownership.
	for {
		next := e.TraversalLoad(c, node, FieldNext)
		if structures.Marked(next) {
			// A concurrent delete won; help excise and report absent.
			s.search(c, key, nil, nil)
			return false
		}
		// The mark names this operation when one is armed: on Mirror it
		// testifies for the operation's announce, so its install needs no
		// announce fence ahead of it (engine detect.go "Tags"), and for
		// the delete itself, which needs no verdict. It also
		// dooms the node's height word, whose tag may still testify for
		// the insert that published it: the engine witnesses that insert
		// first (O6).
		c.Doom(node, FieldTop, topWord)
		if e.CAS(c, node, FieldNext, next, structures.MarkTagged(c, next)) {
			// Physically unlink everywhere, then reclaim.
			s.search(c, key, nil, nil)
			e.Retire(c, node, NodeFields(top))
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
		curr := structures.Unmark(e.TraversalLoad(c, pred, Link(i)))
		for curr != 0 {
			next := e.TraversalLoad(c, curr, Link(i))
			if structures.Marked(next) {
				curr = structures.Unmark(next)
				continue
			}
			k := e.TraversalLoad(c, curr, FieldKey)
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
	v := e.TraversalLoad(c, candidate, FieldVal)
	e.MakePersistent(c, candidate, FieldNext)
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
		if node == 0 || e.TraversalLoad(c, node, FieldKey) != key {
			return false
		}
		if structures.Marked(e.TraversalLoad(c, node, FieldNext)) {
			return false // concurrently deleted
		}
		e.MakePersistent(c, node, FieldNext)
		cur := e.TraversalLoad(c, node, FieldVal)
		if cur != expect {
			return false
		}
		if e.CAS(c, node, FieldVal, cur, repl) {
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
	curr := structures.Unmark(e.TraversalLoad(c, s.head, FieldNext))
	for curr != 0 {
		next := e.TraversalLoad(c, curr, FieldNext)
		if !structures.Marked(next) {
			n++
		}
		curr = structures.Unmark(next)
	}
	return n
}

// Tracer implements structures.Set.
func (s *SkipList) Tracer() engine.Tracer {
	return TracerAt(s.e, s.rootF)
}

// TracerAt returns the skip list's recovery tracer without attaching to
// the (possibly not yet recovered) structure. It walks level 0 only,
// marked nodes included: no word above level 0 is ever persisted, so on the
// media those links may be stale or point into freed or reused memory, and
// the tracer never reads one. It names every node's links above level 0 as
// rebuilt, so no recovery copy covers them, and relinks them as it goes:
// it keeps, per level, the last unmarked node of height above that level,
// and links it to the next one as soon as it reaches it, so that level i
// links exactly the unmarked level-0 nodes of height > i, in level-0 order.
// A node linked only above level 0 is not traced, and its memory is
// reclaimed; a level-0-marked zombie drops out of the upper levels, and its
// own upper links are never read again (searches snip it out of level 0 as
// usual). Level 0 is never written, so a crash during recovery leaves an
// image the next trace relinks from the same truth.
//
// The trace is also the structure's post-attach check: a level-0 cycle or
// a tower height outside [1, MaxLevel] panics.
func TracerAt(e engine.Engine, rootField int) engine.Tracer {
	return func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int), relink func(engine.Ref, int, uint64)) {
		head := read(engine.Root, rootField)
		if head == 0 {
			return
		}
		seen := newRefSet(e)
		seen.add(head)
		visit(head, NodeFields(MaxLevel), MaxLevel-1)
		var last [MaxLevel]engine.Ref
		for i := range last {
			last[i] = head
		}
		for curr := structures.Unmark(read(head, FieldNext)); curr != 0; {
			if !seen.add(curr) {
				panic(fmt.Sprintf("skiplist: level 0 reaches node %d twice", curr))
			}
			next, top := read(curr, FieldNext), Height(read(curr, FieldTop))
			if top < 1 || top > MaxLevel {
				panic(fmt.Sprintf("skiplist: node %d has height %d", curr, top))
			}
			visit(curr, NodeFields(top), top-1)
			if !structures.Marked(next) {
				for i := 1; i < top; i++ {
					relink(last[i], Link(i), curr)
					last[i] = curr
				}
			}
			curr = structures.Unmark(next)
		}
		for i := 1; i < MaxLevel; i++ {
			relink(last[i], Link(i), 0)
		}
	}
}

// refSet is the set of nodes a trace has seen: one bit per possible object
// of the engine's device, since objects are at least 32-byte aligned
// (engine.Ref) — a bit per four words, and no hashing on a walk that
// touches every node. A reference beyond the device panics in add, as a
// read of it would.
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

// Range calls fn for each present key in [from, to] in ascending order,
// stopping early if fn returns false. Weakly consistent (not a snapshot).
func (s *SkipList) Range(c *engine.Ctx, from, to uint64, fn func(key, val uint64) bool) {
	e := s.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	// Descend to the last node with key < from.
	pred := s.head
	for i := MaxLevel - 1; i >= 0; i-- {
		curr := structures.Unmark(e.TraversalLoad(c, pred, Link(i)))
		for curr != 0 {
			next := e.TraversalLoad(c, curr, Link(i))
			if structures.Marked(next) {
				curr = structures.Unmark(next)
				continue
			}
			if e.TraversalLoad(c, curr, FieldKey) >= from {
				break
			}
			pred = curr
			curr = structures.Unmark(next)
		}
	}
	// Walk level 0.
	curr := structures.Unmark(e.TraversalLoad(c, pred, FieldNext))
	for curr != 0 {
		next := e.TraversalLoad(c, curr, FieldNext)
		k := e.TraversalLoad(c, curr, FieldKey)
		if k > to {
			return
		}
		if k >= from && !structures.Marked(next) {
			if !fn(k, e.TraversalLoad(c, curr, FieldVal)) {
				return
			}
		}
		curr = structures.Unmark(next)
	}
}
