// Package bst implements the lock-free external binary search tree of
// Natarajan and Mittal [PPoPP 2014], the third structure evaluated in the
// paper (§6.1, "a lock-free BST by Aravind et al.").
//
// The tree is external: internal nodes only route, leaves carry keys and
// values. Deletion proceeds edge-wise: the edge to the doomed leaf is
// *flagged* (low bit 0), the edge to its sibling is *tagged* (low bit 1) to
// freeze it, and the sibling is then promoted over the parent with a single
// CAS at the ancestor. Both bits live in the child-reference words, which
// is possible because the allocator aligns objects to 32 bytes.
package bst

import (
	"mirror/internal/engine"
	"mirror/internal/structures"
)

// Node layout (engine.Plain): the two child edges, which carry the flag and
// tag bits, are the cells; the key and the value, written once before the
// node is published, are plain words after them.
const (
	FieldLeft  = 0
	FieldRight = 1
	FieldKey   = 2 * engine.Plain
	FieldVal   = FieldKey + 1
	// NodeFields is a node's size: two cells and two plain words.
	NodeFields = FieldKey + 2
)

// Sentinel keys, all above the usable key range (paper's ∞₀ < ∞₁ < ∞₂).
const (
	inf0 = structures.KeyMax + 1
	inf1 = structures.KeyMax + 2
	inf2 = structures.KeyMax + 3
)

// Edge bits.
const (
	flagBit  = uint64(1)
	tagBit   = uint64(2)
	addrMask = ^uint64(3)
)

func addr(edge uint64) engine.Ref { return edge & addrMask }
func flagged(edge uint64) bool    { return edge&flagBit != 0 }
func tagged(edge uint64) bool     { return edge&tagBit != 0 }

// rootR is the default root field holding the R sentinel's reference.
const rootR = 2

// BST is the lock-free external binary search tree.
type BST struct {
	e     engine.Engine
	r     engine.Ref // sentinel R (key ∞₂)
	s     engine.Ref // sentinel S (key ∞₁), R's left child
	rootF int
}

// New creates the tree (or adopts an existing one after recovery). The
// tree stores its R sentinel in root field 2, so it can share the root
// object with a list in field 0.
func New(e engine.Engine, c *engine.Ctx) *BST {
	return NewAt(e, c, rootR)
}

// NewAt is New with an explicit root field.
func NewAt(e engine.Engine, c *engine.Ctx, rootField int) *BST {
	b := &BST{e: e, rootF: rootField}
	e.OpBegin(c)
	defer e.OpEnd(c)
	if r := e.Load(c, engine.Root, rootField); r != 0 {
		b.r = r
		b.s = addr(e.Load(c, r, FieldLeft))
		b.repairExcisions(c)
		b.repairDeleteFlags(c)
		return b
	}
	newLeaf := func(key uint64) engine.Ref {
		n := e.Alloc(c, NodeFields)
		e.StoreInit(c, n, FieldKey, key)
		e.StoreInit(c, n, FieldVal, 0)
		e.StoreInit(c, n, FieldLeft, 0)
		e.StoreInit(c, n, FieldRight, 0)
		return n
	}
	l0, l1, l2 := newLeaf(inf0), newLeaf(inf1), newLeaf(inf2)
	b.s = e.Alloc(c, NodeFields)
	e.StoreInit(c, b.s, FieldKey, inf1)
	e.StoreInit(c, b.s, FieldVal, 0)
	e.StoreInit(c, b.s, FieldLeft, l0)
	e.StoreInit(c, b.s, FieldRight, l1)
	b.r = e.Alloc(c, NodeFields)
	e.StoreInit(c, b.r, FieldKey, inf2)
	e.StoreInit(c, b.r, FieldVal, 0)
	e.StoreInit(c, b.r, FieldLeft, b.s)
	e.StoreInit(c, b.r, FieldRight, l2)
	e.Publish(c, b.r)
	e.Store(c, engine.Root, rootField, b.r)
	return b
}

// Name implements structures.Set.
func (b *BST) Name() string { return "bst" }

// repairExcisions completes every pending deletion on a recovered image.
// A delete linearizes at the fully persisted flag CAS, but the promotion
// that physically excises the doomed leaf persists lazily (relaxed), so a
// crash can surface a flagged edge whose excision was lost — and a key
// re-inserted after the (volatile) excision would then sit behind the
// still-linked doomed leaf, unreachable by seek. Completing each flagged
// edge's excision at attach time — exactly what a helper would have done,
// with fully persisted CASes since this is recovery — restores the
// invariant that flagged parents are transient. Runs to fixpoint because a
// promoted sibling edge keeps its own flag; idempotent and crash-safe
// (a crash mid-repair leaves fewer flagged edges for the next repair).
func (b *BST) repairExcisions(c *engine.Ctx) {
	e := b.e
	for {
		excised := false
		// walk visits internal node n, reached from gp via gpField, and
		// excises the first flagged parent it finds (then restarts, since
		// the excision changes the tree above the walk frontier).
		var walk func(gp engine.Ref, gpField int, n engine.Ref)
		walk = func(gp engine.Ref, gpField int, n engine.Ref) {
			if excised || n == 0 {
				return
			}
			le := e.TraversalLoad(c, n, FieldLeft)
			re := e.TraversalLoad(c, n, FieldRight)
			if addr(le) == 0 && addr(re) == 0 {
				return // leaf
			}
			for _, side := range [2]struct {
				edge uint64
				cf   int
			}{{le, FieldLeft}, {re, FieldRight}} {
				if flagged(side.edge) {
					sib := re
					if side.cf == FieldRight {
						sib = le
					}
					gpEdge := e.TraversalLoad(c, gp, gpField)
					if e.CAS(c, gp, gpField, gpEdge, sib&^tagBit) {
						e.Retire(c, n, NodeFields)
						if d := addr(side.edge); d != 0 {
							e.Retire(c, d, NodeFields)
						}
					}
					excised = true
					return
				}
			}
			walk(n, FieldLeft, addr(le))
			if !excised {
				walk(n, FieldRight, addr(re))
			}
		}
		walk(b.r, FieldLeft, b.s)
		if !excised {
			return
		}
	}
}

// repairDeleteFlags scrubs stray deletion bookkeeping bits from a
// recovered image; it runs after repairExcisions' fixpoint, so every
// reachable flagged edge has already been excised and every surviving tag
// is by definition orphaned. An orphaned tag is not benign: a tagged edge
// with an un-flagged sibling permanently freezes that edge (inserts and
// deletes spin in cleanup looking for a flag that does not exist), and a
// cleanup that guesses wrong would promote over a live leaf — data loss.
//
// No crash of a correct engine leaves this state — the flag CAS is a full
// install, durable before the tag CAS is issued, so a surviving tag
// implies its justifying flag. The pass is defensive: a damaged image
// must not freeze the tree. It also re-runs the excision fixpoint if a
// flagged edge does survive alongside a tag.
// Recovery is single-threaded, so plain full CASes suffice; idempotent
// and crash-safe (a crash mid-scrub leaves fewer tags for the next one).
func (b *BST) repairDeleteFlags(c *engine.Ctx) {
	e := b.e
	var cleared bool
	var walk func(n engine.Ref)
	walk = func(n engine.Ref) {
		if n == 0 {
			return
		}
		le := e.TraversalLoad(c, n, FieldLeft)
		re := e.TraversalLoad(c, n, FieldRight)
		if addr(le) == 0 && addr(re) == 0 {
			return // leaf
		}
		if flagged(le) || flagged(re) {
			// A flagged edge survived repairExcisions — only possible if
			// the scrub itself re-exposed one; finish its excision first.
			b.repairExcisions(c)
			cleared = true
			return
		}
		if tagged(le) {
			e.CAS(c, n, FieldLeft, le, le&^tagBit)
			cleared = true
		}
		if tagged(re) {
			e.CAS(c, n, FieldRight, re, re&^tagBit)
			cleared = true
		}
		walk(addr(le))
		walk(addr(re))
	}
	for {
		cleared = false
		walk(b.r)
		if !cleared {
			return
		}
	}
}

// seekRecord is the result of a traversal (the paper's seek record):
// ancestor —(untagged edge)→ successor —...—→ parent —→ leaf.
type seekRecord struct {
	ancestor, successor, parent, leaf engine.Ref
}

// seek descends to the leaf responsible for key, tracking the deepest
// node whose incoming edge is untagged (the successor) and its parent
// (the ancestor).
func (b *BST) seek(c *engine.Ctx, key uint64) seekRecord {
	e := b.e
	rec := seekRecord{ancestor: b.r, successor: b.s, parent: b.s}
	parentEdge := e.TraversalLoad(c, b.s, FieldLeft)
	rec.leaf = addr(parentEdge)
	for {
		var edge uint64
		if key < e.TraversalLoad(c, rec.leaf, FieldKey) {
			edge = e.TraversalLoad(c, rec.leaf, FieldLeft)
		} else {
			edge = e.TraversalLoad(c, rec.leaf, FieldRight)
		}
		next := addr(edge)
		if next == 0 {
			return rec // rec.leaf is a leaf
		}
		if !tagged(parentEdge) {
			rec.ancestor = rec.parent
			rec.successor = rec.leaf
		}
		rec.parent = rec.leaf
		rec.leaf = next
		parentEdge = edge
	}
}

// childField returns the field of parent on the side of key.
func (b *BST) childField(c *engine.Ctx, parent engine.Ref, key uint64) int {
	if key < b.e.TraversalLoad(c, parent, FieldKey) {
		return FieldLeft
	}
	return FieldRight
}

// Insert implements structures.Set.
func (b *BST) Insert(c *engine.Ctx, key, val uint64) bool {
	if key == 0 || key > structures.KeyMax {
		panic("bst: key outside usable range")
	}
	e := b.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	var newLeaf, newInternal engine.Ref
	freeNew := func() {
		if newLeaf != 0 {
			e.FreeUnpublished(c, newLeaf, NodeFields)
			e.FreeUnpublished(c, newInternal, NodeFields)
		}
	}
	for {
		rec := b.seek(c, key)
		leafKey := e.TraversalLoad(c, rec.leaf, FieldKey)
		cf := b.childField(c, rec.parent, key)
		if leafKey == key {
			edge := e.TraversalLoad(c, rec.parent, cf)
			if addr(edge) == rec.leaf && flagged(edge) {
				// A linearized delete is still being cleaned up:
				// help it, then retry so this insert succeeds.
				b.cleanup(c, key, rec)
				continue
			}
			freeNew()
			e.MakePersistent(c, rec.parent, NodeFields)
			e.MakePersistent(c, rec.leaf, NodeFields)
			return false
		}
		// Initialize both nodes and publish them under one trailing fence:
		// the leaf and its internal parent become durable together.
		if newLeaf == 0 {
			newLeaf = e.Alloc(c, NodeFields)
			e.StoreInit(c, newLeaf, FieldKey, key)
			e.StoreInit(c, newLeaf, FieldVal, val)
			e.StoreInit(c, newLeaf, FieldLeft, 0)
			e.StoreInit(c, newLeaf, FieldRight, 0)
			newInternal = e.Alloc(c, NodeFields)
			e.StoreInit(c, newInternal, FieldVal, 0)
		}
		if key < leafKey {
			e.StoreInit(c, newInternal, FieldKey, leafKey)
			e.StoreInit(c, newInternal, FieldLeft, newLeaf)
			e.StoreInit(c, newInternal, FieldRight, rec.leaf)
		} else {
			e.StoreInit(c, newInternal, FieldKey, key)
			e.StoreInit(c, newInternal, FieldLeft, rec.leaf)
			e.StoreInit(c, newInternal, FieldRight, newLeaf)
		}
		e.Publish(c, newInternal)
		e.MakePersistent(c, rec.parent, NodeFields)
		if e.CAS(c, rec.parent, cf, rec.leaf, newInternal) {
			return true
		}
		// Help an in-progress delete blocking this edge, then retry.
		edge := e.TraversalLoad(c, rec.parent, cf)
		if addr(edge) == rec.leaf && (flagged(edge) || tagged(edge)) {
			b.cleanup(c, key, rec)
		}
	}
}

// Delete implements structures.Set. Deletion linearizes at the successful
// flagging (injection) CAS; cleanup physically excises the leaf and its
// parent, possibly completed by helpers.
func (b *BST) Delete(c *engine.Ctx, key uint64) bool {
	e := b.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	injecting := true
	var doomed engine.Ref
	for {
		rec := b.seek(c, key)
		if injecting {
			if e.TraversalLoad(c, rec.leaf, FieldKey) != key {
				return false
			}
			cf := b.childField(c, rec.parent, key)
			edge := e.TraversalLoad(c, rec.parent, cf)
			if addr(edge) != rec.leaf {
				continue // tree moved under us; retry
			}
			if flagged(edge) {
				// A concurrent delete linearized first; help it and
				// report the key absent.
				b.cleanup(c, key, rec)
				return false
			}
			if tagged(edge) {
				// The edge is frozen by a neighbor's cleanup; help,
				// then retry.
				b.cleanup(c, key, rec)
				continue
			}
			e.MakePersistent(c, rec.parent, NodeFields)
			e.MakePersistent(c, rec.leaf, NodeFields)
			// The injection flag is the linearization point.
			if e.CAS(c, rec.parent, cf, rec.leaf, rec.leaf|flagBit) {
				// Cleanup below is physical excision only.
				doomed = rec.leaf
				injecting = false
				if b.cleanup(c, key, rec) {
					return true
				}
			} else {
				edge = e.TraversalLoad(c, rec.parent, cf)
				if addr(edge) == rec.leaf && (flagged(edge) || tagged(edge)) {
					b.cleanup(c, key, rec)
				}
			}
		} else {
			if rec.leaf != doomed {
				return true // a helper finished the excision
			}
			if b.cleanup(c, key, rec) {
				return true
			}
		}
	}
}

// cleanup excises the flagged leaf under rec.parent by promoting its
// sibling subtree to rec.ancestor's child. Returns whether this call
// performed the promotion.
func (b *BST) cleanup(c *engine.Ctx, key uint64, rec seekRecord) bool {
	e := b.e
	succField := b.childField(c, rec.ancestor, key)
	cf := b.childField(c, rec.parent, key)
	sf := FieldLeft + FieldRight - cf

	// Locate the flagged edge; normally it is the child edge toward key,
	// but when helping a neighbor's delete it is the other one, and the
	// edge toward key is the one being promoted.
	promoted := sf
	flaggedEdge := e.TraversalLoad(c, rec.parent, cf)
	if !flagged(flaggedEdge) {
		flaggedEdge = e.TraversalLoad(c, rec.parent, sf)
		promoted = cf
	}
	doomedLeaf := addr(flaggedEdge)

	// Freeze the promoted edge with the tag bit (fetch-and-or by CAS).
	// The tag is cleanup bookkeeping, not a linearization point — losing
	// it in a crash merely re-exposes the flagged-but-unpromoted state a
	// crash before cleanup leaves anyway — so it may persist lazily.
	for {
		v := e.TraversalLoad(c, rec.parent, promoted)
		if tagged(v) {
			break
		}
		if e.CASRelaxed(c, rec.parent, promoted, v, v|tagBit) {
			break
		}
	}
	sibling := e.TraversalLoad(c, rec.parent, promoted)

	e.MakePersistent(c, rec.ancestor, NodeFields)
	e.MakePersistent(c, rec.parent, NodeFields)
	// Promote: keep the sibling's flag (its own delete may be in flight),
	// drop the tag. The delete linearized at the (fully persisted) flag
	// CAS, and a crash that loses the promotion re-exposes the flagged
	// edge — readers already treat that as absent — so the excision may
	// persist lazily; the registry commits it before parent/leaf are
	// freed, keeping the media free of dangling references.
	if e.CASRelaxed(c, rec.ancestor, succField, rec.successor, sibling&^tagBit) {
		e.Retire(c, rec.parent, NodeFields)
		if doomedLeaf != 0 {
			e.Retire(c, doomedLeaf, NodeFields)
		}
		return true
	}
	return false
}

// Contains implements structures.Set.
func (b *BST) Contains(c *engine.Ctx, key uint64) bool {
	_, ok := b.Get(c, key)
	return ok
}

// Get implements structures.Set.
func (b *BST) Get(c *engine.Ctx, key uint64) (uint64, bool) {
	e := b.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	for {
		rec := b.seek(c, key)
		if e.TraversalLoad(c, rec.leaf, FieldKey) != key {
			return 0, false
		}
		cf := b.childField(c, rec.parent, key)
		edge := e.TraversalLoad(c, rec.parent, cf)
		if addr(edge) != rec.leaf {
			continue // edge moved; retry to get a consistent witness
		}
		if flagged(edge) {
			return 0, false // linearized delete in progress
		}
		v := e.TraversalLoad(c, rec.leaf, FieldVal)
		e.MakePersistent(c, rec.leaf, NodeFields)
		return v, true
	}
}

// Len counts present keys (quiesced use only).
func (b *BST) Len(c *engine.Ctx) int {
	return len(b.Keys(c))
}

// Keys returns the present user keys in sorted order (quiesced use only).
func (b *BST) Keys(c *engine.Ctx) []uint64 {
	e := b.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	var keys []uint64
	var walk func(ref engine.Ref)
	walk = func(ref engine.Ref) {
		if ref == 0 {
			return
		}
		l := addr(e.TraversalLoad(c, ref, FieldLeft))
		r := addr(e.TraversalLoad(c, ref, FieldRight))
		if l == 0 && r == 0 {
			if k := e.TraversalLoad(c, ref, FieldKey); k <= structures.KeyMax {
				keys = append(keys, k)
			}
			return
		}
		walk(l)
		walk(r)
	}
	walk(b.r)
	return keys
}

// Tracer implements structures.Set: iterative DFS over every node
// reachable from the R sentinel, flags and tags stripped.
func (b *BST) Tracer() engine.Tracer {
	return TracerAt(b.e, b.rootF)
}

// TracerAt returns the tree's recovery tracer without attaching to the
// (possibly not yet recovered) structure.
func TracerAt(e engine.Engine, rootField int) engine.Tracer {
	return func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int), _ func(engine.Ref, int, uint64)) {
		r := read(engine.Root, rootField)
		if r == 0 {
			return
		}
		stack := []engine.Ref{r}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			visit(n, NodeFields, 0)
			if l := addr(read(n, FieldLeft)); l != 0 {
				stack = append(stack, l)
			}
			if rr := addr(read(n, FieldRight)); rr != 0 {
				stack = append(stack, rr)
			}
		}
	}
}

var _ structures.Set = (*BST)(nil)

// Range calls fn for each present key in [from, to] in ascending order,
// stopping early if fn returns false. Weakly consistent (not a snapshot).
func (b *BST) Range(c *engine.Ctx, from, to uint64, fn func(key, val uint64) bool) {
	e := b.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	// Iterative in-order traversal, pruning subtrees outside [from, to]
	// using the external tree's routing keys (left < key <= right).
	stack := []engine.Ref{b.r}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		l := addr(e.TraversalLoad(c, n, FieldLeft))
		r := addr(e.TraversalLoad(c, n, FieldRight))
		k := e.TraversalLoad(c, n, FieldKey)
		if l == 0 && r == 0 {
			if k >= from && k <= to && k <= structures.KeyMax {
				if !fn(k, e.TraversalLoad(c, n, FieldVal)) {
					return
				}
			}
			continue
		}
		// Right pushed first so the left subtree is visited first.
		if r != 0 && k <= to {
			stack = append(stack, r)
		}
		if l != 0 && k > from {
			stack = append(stack, l)
		}
	}
}
