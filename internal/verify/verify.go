// Package verify is the post-recovery consistency checker ("fsck") for the
// structures in this repository. Crash tests call it after every
// crash+recovery cycle: beyond the history checks of internal/crashtest,
// it validates the *structural* invariants a corrupted recovery would
// break — sorted order and mark discipline in lists, BST ordering and
// external-ness, skip-list level coherence, and (for Mirror engines) the
// per-cell replica invariants of Lemmas 5.3–5.5.
package verify

import (
	"fmt"

	"mirror/internal/engine"
	"mirror/internal/structures"
	"mirror/internal/structures/bst"
	"mirror/internal/structures/list"
	"mirror/internal/structures/queue"
	"mirror/internal/structures/skiplist"
)

// Report collects the problems found by a check.
type Report struct {
	Problems []string
}

// Ok reports whether the check found no problems.
func (r *Report) Ok() bool { return len(r.Problems) == 0 }

func (r *Report) addf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	if r.Ok() {
		return "ok"
	}
	s := ""
	for _, p := range r.Problems {
		s += p + "\n"
	}
	return s
}

// List checks a Harris list rooted at (root field): keys strictly
// ascending, no cycles, marked nodes tolerated (logically deleted).
func List(e engine.Engine, c *engine.Ctx, rootField int) *Report {
	r := &Report{}
	e.OpBegin(c)
	defer e.OpEnd(c)
	checkChain(e, c, engine.Root, rootField, r)
	return r
}

// checkChain validates one sorted chain hanging off (ref, field).
func checkChain(e engine.Engine, c *engine.Ctx, ref engine.Ref, field int, r *Report) {
	seen := make(map[engine.Ref]bool)
	prev := uint64(0)
	first := true
	curr := structures.Unmark(e.TraversalLoad(c, ref, field))
	for curr != 0 {
		if seen[curr] {
			r.addf("list: cycle at node %d", curr)
			return
		}
		seen[curr] = true
		next := e.TraversalLoad(c, curr, list.FieldNext)
		key := e.TraversalLoad(c, curr, list.FieldKey)
		if !structures.Marked(next) {
			if !first && key <= prev {
				r.addf("list: order violation %d after %d", key, prev)
			}
			prev, first = key, false
		}
		if key == 0 || key > structures.KeyMax {
			r.addf("list: node %d has out-of-range key %d", curr, key)
		}
		curr = structures.Unmark(next)
	}
}

// HashTable checks every bucket chain and that keys hash to their bucket.
func HashTable(e engine.Engine, c *engine.Ctx, rootField int) *Report {
	r := &Report{}
	e.OpBegin(c)
	defer e.OpEnd(c)
	arr := e.Load(c, engine.Root, rootField)
	if arr == 0 {
		r.addf("hashtable: no bucket array")
		return r
	}
	buckets := int(e.Load(c, engine.Root, rootField+1))
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		r.addf("hashtable: bad bucket count %d", buckets)
		return r
	}
	shift := uint(64)
	for 1<<(64-shift) != uint64(buckets) {
		shift--
	}
	for b := 0; b < buckets; b++ {
		checkChain(e, c, arr, b, r)
		curr := structures.Unmark(e.TraversalLoad(c, arr, b))
		for curr != 0 {
			key := e.TraversalLoad(c, curr, list.FieldKey)
			if int((key*11400714819323198485)>>shift) != b {
				r.addf("hashtable: key %d in wrong bucket %d", key, b)
			}
			curr = structures.Unmark(e.TraversalLoad(c, curr, list.FieldNext))
		}
	}
	return r
}

// BST checks the external-tree invariants: internal nodes have two
// children, leaves none; routing keys order the subtrees; no cycles.
func BST(e engine.Engine, c *engine.Ctx, rootField int) *Report {
	r := &Report{}
	e.OpBegin(c)
	defer e.OpEnd(c)
	root := e.Load(c, engine.Root, rootField)
	if root == 0 {
		r.addf("bst: no root")
		return r
	}
	seen := make(map[engine.Ref]bool)
	type frame struct {
		ref      engine.Ref
		min, max uint64 // exclusive bounds; 0 = unbounded
	}
	stack := []frame{{root, 0, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[f.ref] {
			r.addf("bst: node %d reachable twice", f.ref)
			continue
		}
		seen[f.ref] = true
		key := e.TraversalLoad(c, f.ref, bst.FieldKey)
		left := e.TraversalLoad(c, f.ref, bst.FieldLeft) &^ 3
		right := e.TraversalLoad(c, f.ref, bst.FieldRight) &^ 3
		if (left == 0) != (right == 0) {
			r.addf("bst: node %d has exactly one child (tree must be external)", f.ref)
		}
		if f.min != 0 && key < f.min {
			r.addf("bst: key %d below subtree bound %d", key, f.min)
		}
		if f.max != 0 && key >= f.max {
			r.addf("bst: key %d at or above subtree bound %d", key, f.max)
		}
		if left != 0 {
			stack = append(stack, frame{left, f.min, key})
		}
		if right != 0 {
			stack = append(stack, frame{right, key, f.max})
		}
	}
	return r
}

// SkipList checks that every level is sorted, that level-i membership
// implies a tower of height > i, that level 0 is a superset of every higher
// level, and that every unmarked level-0 node is linked at every level below
// its height: what a quiesced skip list holds once its recovery trace has
// relinked the towers.
func SkipList(e engine.Engine, c *engine.Ctx, rootField int) *Report {
	r := &Report{}
	e.OpBegin(c)
	defer e.OpEnd(c)
	head := e.Load(c, engine.Root, rootField)
	if head == 0 {
		r.addf("skiplist: no head")
		return r
	}
	level0 := make(map[engine.Ref]bool)
	live := make(map[engine.Ref]bool) // unmarked at level 0
	missing := 0                      // links live towers still lack
	for i := 0; i < skiplist.MaxLevel; i++ {
		prev := uint64(0)
		first := true
		seen := make(map[engine.Ref]bool)
		curr := structures.Unmark(e.TraversalLoad(c, head, skiplist.Link(i)))
		for curr != 0 {
			if seen[curr] {
				r.addf("skiplist: cycle at level %d node %d", i, curr)
				break
			}
			seen[curr] = true
			top := skiplist.Height(e.TraversalLoad(c, curr, skiplist.FieldTop))
			if top <= i {
				r.addf("skiplist: node %d with height %d linked at level %d", curr, top, i)
				break
			}
			next := e.TraversalLoad(c, curr, skiplist.Link(i))
			key := e.TraversalLoad(c, curr, skiplist.FieldKey)
			if !structures.Marked(next) {
				if !first && key <= prev {
					r.addf("skiplist: level %d order violation %d after %d", i, key, prev)
				}
				prev, first = key, false
			}
			switch {
			case i == 0:
				level0[curr], live[curr] = true, !structures.Marked(next)
				if live[curr] {
					missing += top - 1
				}
			case live[curr]:
				missing--
			case !level0[curr] && !structures.Marked(next):
				r.addf("skiplist: unmarked node %d at level %d missing from level 0", curr, i)
			}
			curr = structures.Unmark(next)
		}
	}
	if missing != 0 {
		r.addf("skiplist: live towers miss %d links below their heights", missing)
	}
	return r
}

// Queue checks the FIFO chain: head reaches tail, no cycles.
func Queue(e engine.Engine, c *engine.Ctx, rootField int) *Report {
	r := &Report{}
	e.OpBegin(c)
	defer e.OpEnd(c)
	head := e.Load(c, engine.Root, rootField)
	tail := e.Load(c, engine.Root, rootField+1)
	if head == 0 || tail == 0 {
		r.addf("queue: missing head or tail")
		return r
	}
	seen := make(map[engine.Ref]bool)
	sawTail := false
	for n := head; n != 0; n = e.TraversalLoad(c, n, queue.FieldNext) {
		if seen[n] {
			r.addf("queue: cycle at node %d", n)
			return r
		}
		seen[n] = true
		if n == tail {
			sawTail = true
		}
	}
	if !sawTail {
		r.addf("queue: tail %d not reachable from head %d", tail, head)
	}
	return r
}
