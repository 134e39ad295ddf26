// Package list implements Harris's lock-free linked list [Harris 2001] on
// top of a persistence engine — the first structure evaluated in the paper
// (§6.2.1–6.2.3, Figure 1 shows exactly this node layout under patomic).
//
// Nodes have three logical fields: an immutable key, a value, and a next
// reference whose low bit marks the node as logically deleted. The list is
// sorted and ends at nil; the head reference lives in a field of the
// engine's persistent root object, so the whole structure is reachable from
// the persistent roots as recovery requires.
package list

import (
	"mirror/internal/engine"
	"mirror/internal/structures"
)

// Node layout (engine.Plain): the next reference, the only field written
// after publication, is the one cell; the key and the value are write-once
// plain words after it.
const (
	FieldNext = 0
	FieldKey  = 1 * engine.Plain
	FieldVal  = FieldKey + 1
	// NodeFields is a node's size: one cell and two plain words.
	NodeFields = FieldKey + 2
)

// List is a lock-free sorted linked list. The zero value is not usable;
// call New.
type List struct {
	e         engine.Memory
	rootRef   engine.Ref
	rootField int
}

// New creates a list whose head pointer lives in the given field of the
// engine's root object. If the field is already non-nil (recovery), the
// existing list is adopted unchanged.
func New(e engine.Memory, rootField int) *List {
	return &List{e: e, rootRef: engine.Root, rootField: rootField}
}

// NewAt creates a list whose head pointer lives in an arbitrary
// (object, field) slot; the hash table uses one slot per bucket.
func NewAt(e engine.Memory, ref engine.Ref, field int) *List {
	return &List{e: e, rootRef: ref, rootField: field}
}

// Name implements structures.Set.
func (l *List) Name() string { return "list" }

// find locates the insertion point for key: it returns the slot holding
// the reference to curr (predRef, predField) and curr itself, where curr is
// the first node with curr.key >= key, or 0 if none. Marked nodes found on
// the way are physically unlinked (Michael's helping variant of Harris's
// list). find runs inside the caller's operation bracket.
func (l *List) find(c *engine.Ctx, key uint64) (predRef engine.Ref, predField int, curr engine.Ref) {
	e := l.e
retry:
	for {
		predRef, predField = l.rootRef, l.rootField
		curr = structures.Unmark(e.TraversalLoad(c, predRef, predField))
		for curr != 0 {
			succ := e.TraversalLoad(c, curr, FieldNext)
			if structures.Marked(succ) {
				// curr is logically deleted: unlink it. This is a
				// critical step — persist the nodes around the
				// destination first (NVTraverse barrier; no-op for
				// Mirror, redundant for Izraelevitz).
				e.MakePersistent(c, predRef, NodeFields)
				e.MakePersistent(c, curr, NodeFields)
				// The unlink is auxiliary cleanup: the node is already
				// logically deleted (marked), so the snip may persist
				// lazily — it is committed before curr's memory can be
				// reused, via the retire-gated relaxed-line registry.
				if !e.CASRelaxed(c, predRef, predField, curr, structures.Unmark(succ)) {
					continue retry
				}
				e.Retire(c, curr, NodeFields)
				curr = structures.Unmark(succ)
				continue
			}
			if e.TraversalLoad(c, curr, FieldKey) >= key {
				return predRef, predField, curr
			}
			predRef, predField = curr, FieldNext
			curr = structures.Unmark(succ)
		}
		return predRef, predField, 0
	}
}

// Insert implements structures.Set.
func (l *List) Insert(c *engine.Ctx, key, val uint64) bool {
	if key == 0 || key > structures.KeyMax {
		panic("list: key outside usable range")
	}
	e := l.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	var node engine.Ref
	for {
		predRef, predField, curr := l.find(c, key)
		if curr != 0 && e.TraversalLoad(c, curr, FieldKey) == key {
			if node != 0 {
				e.FreeUnpublished(c, node, NodeFields)
			}
			// The failed insert's linearization point is the read
			// establishing the key's presence; persist the witness.
			e.MakePersistent(c, curr, NodeFields)
			return false
		}
		// Initialize the node and publish it under one trailing fence (an
		// eliding engine flushes each dirty line once, at Publish).
		if node == 0 {
			node = e.Alloc(c, NodeFields)
			e.StoreInit(c, node, FieldKey, key)
			e.StoreInit(c, node, FieldVal, val)
		}
		e.StoreInit(c, node, FieldNext, curr)
		e.Publish(c, node)
		e.MakePersistent(c, predRef, NodeFields)
		if e.CAS(c, predRef, predField, curr, node) {
			return true
		}
	}
}

// Delete implements structures.Set.
func (l *List) Delete(c *engine.Ctx, key uint64) bool {
	e := l.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	for {
		predRef, predField, curr := l.find(c, key)
		if curr == 0 || e.TraversalLoad(c, curr, FieldKey) != key {
			return false
		}
		succ := e.TraversalLoad(c, curr, FieldNext)
		if structures.Marked(succ) {
			// Someone else is deleting it; help via find and retry.
			continue
		}
		e.MakePersistent(c, predRef, NodeFields)
		e.MakePersistent(c, curr, NodeFields)
		if !e.CAS(c, curr, FieldNext, succ, structures.Mark(succ)) {
			continue
		}
		// Attempt the physical unlink; on failure find() will clean up.
		// The delete's linearization point was the (fully persisted) mark
		// CAS above, so the unlink itself may persist lazily — the
		// relaxed-line registry commits it before the node is freed.
		if e.CASRelaxed(c, predRef, predField, curr, succ) {
			e.Retire(c, curr, NodeFields)
		}
		return true
	}
}

// Contains implements structures.Set with a wait-free traversal.
func (l *List) Contains(c *engine.Ctx, key uint64) bool {
	_, ok := l.Get(c, key)
	return ok
}

// Get implements structures.Set.
func (l *List) Get(c *engine.Ctx, key uint64) (uint64, bool) {
	e := l.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	curr := structures.Unmark(e.TraversalLoad(c, l.rootRef, l.rootField))
	for curr != 0 {
		k := e.TraversalLoad(c, curr, FieldKey)
		if k >= key {
			if k != key {
				return 0, false
			}
			if structures.Marked(e.TraversalLoad(c, curr, FieldNext)) {
				return 0, false
			}
			v := e.TraversalLoad(c, curr, FieldVal)
			// The read that justifies the result is persisted before
			// the operation returns (NVTraverse; no-op elsewhere).
			e.MakePersistent(c, curr, NodeFields)
			return v, true
		}
		curr = structures.Unmark(e.TraversalLoad(c, curr, FieldNext))
	}
	return 0, false
}

// Len counts the unmarked nodes; it is not linearizable and intended for
// tests and diagnostics on a quiesced list.
func (l *List) Len(c *engine.Ctx) int {
	e := l.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	n := 0
	curr := structures.Unmark(e.TraversalLoad(c, l.rootRef, l.rootField))
	for curr != 0 {
		next := e.TraversalLoad(c, curr, FieldNext)
		if !structures.Marked(next) {
			n++
		}
		curr = structures.Unmark(next)
	}
	return n
}

// Keys returns the unmarked keys in order (quiesced use only).
func (l *List) Keys(c *engine.Ctx) []uint64 {
	e := l.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	var keys []uint64
	curr := structures.Unmark(e.TraversalLoad(c, l.rootRef, l.rootField))
	for curr != 0 {
		next := e.TraversalLoad(c, curr, FieldNext)
		if !structures.Marked(next) {
			keys = append(keys, e.TraversalLoad(c, curr, FieldKey))
		}
		curr = structures.Unmark(next)
	}
	return keys
}

// Tracer implements structures.Set: it visits every node reachable from
// the head slot, marked or not, following unmarked references.
func (l *List) Tracer() engine.Tracer {
	return TracerAt(l.e, l.rootField)
}

// TracerAt returns the list's recovery tracer without attaching to the
// (possibly not yet recovered) structure.
func TracerAt(e engine.Memory, rootField int) engine.Tracer {
	return func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int), _ func(engine.Ref, int, uint64)) {
		TraceFrom(engine.Root, rootField, read, visit)
	}
}

// TraceFrom walks one list from an arbitrary head slot; the hash table
// reuses it per bucket.
func TraceFrom(rootRef engine.Ref, rootField int, read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int)) {
	curr := structures.Unmark(read(rootRef, rootField))
	for curr != 0 {
		visit(curr, NodeFields, 0)
		curr = structures.Unmark(read(curr, FieldNext))
	}
}

var _ structures.Set = (*List)(nil)

// Range calls fn for each present key in [from, to] in ascending order,
// stopping early if fn returns false. The scan is weakly consistent: each
// visited pair was present at some moment during the scan, but the scan is
// not a snapshot.
func (l *List) Range(c *engine.Ctx, from, to uint64, fn func(key, val uint64) bool) {
	e := l.e
	e.OpBegin(c)
	defer e.OpEnd(c)
	curr := structures.Unmark(e.TraversalLoad(c, l.rootRef, l.rootField))
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
