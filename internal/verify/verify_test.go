package verify

import (
	"math/rand"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures/bst"
	"mirror/internal/structures/hashtable"
	"mirror/internal/structures/list"
	"mirror/internal/structures/queue"
	"mirror/internal/structures/skiplist"
)

func newEngine() engine.Engine {
	return engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 20, Track: true})
}

func TestListOk(t *testing.T) {
	e := newEngine()
	c := e.NewCtx()
	l := list.New(e, 0)
	for _, k := range []uint64{5, 1, 9, 3} {
		l.Insert(c, k, k)
	}
	l.Delete(c, 5)
	if r := List(e, c, 0); !r.Ok() {
		t.Errorf("healthy list flagged: %s", r)
	}
}

func TestListDetectsDisorder(t *testing.T) {
	e := newEngine()
	c := e.NewCtx()
	l := list.New(e, 0)
	l.Insert(c, 5, 5)
	l.Insert(c, 9, 9)
	// Corrupt: swap the key of the first node above the second's. A key
	// is write-once, so only a StoreInit can reach it: this is corruption
	// no operation could cause.
	head := e.Load(c, engine.Root, 0)
	e.StoreInit(c, head, list.FieldKey, 100)
	if r := List(e, c, 0); r.Ok() {
		t.Error("disorder not detected")
	}
}

func TestHashTableOk(t *testing.T) {
	e := newEngine()
	c := e.NewCtx()
	h := hashtable.New(e, c, 16)
	for k := uint64(1); k <= 200; k++ {
		h.Insert(c, k, k)
	}
	if r := HashTable(e, c, 0); !r.Ok() {
		t.Errorf("healthy table flagged: %s", r)
	}
}

func TestHashTableDetectsWrongBucket(t *testing.T) {
	e := newEngine()
	c := e.NewCtx()
	h := hashtable.New(e, c, 16)
	h.Insert(c, 1, 1)
	// Corrupt: rewrite the stored key so it no longer matches its bucket.
	arr := e.Load(c, engine.Root, 0)
	for b := 0; b < 16; b++ {
		node := e.Load(c, arr, b)
		if node != 0 {
			e.StoreInit(c, node, list.FieldKey, 7777)
		}
	}
	if r := HashTable(e, c, 0); r.Ok() {
		t.Error("wrong-bucket key not detected")
	}
}

func TestBSTOk(t *testing.T) {
	e := newEngine()
	c := e.NewCtx()
	b := bst.New(e, c)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		b.Insert(c, uint64(rng.Intn(1000)+1), 1)
	}
	for i := 0; i < 100; i++ {
		b.Delete(c, uint64(rng.Intn(1000)+1))
	}
	if r := BST(e, c, 2); !r.Ok() {
		t.Errorf("healthy bst flagged: %s", r)
	}
}

func TestBSTDetectsOrderViolation(t *testing.T) {
	e := newEngine()
	c := e.NewCtx()
	b := bst.New(e, c)
	b.Insert(c, 100, 1)
	b.Insert(c, 50, 1)
	b.Insert(c, 150, 1)
	// Corrupt a routing key.
	root := e.Load(c, engine.Root, 2)
	s := e.Load(c, root, bst.FieldLeft) &^ 3
	inner := e.Load(c, s, bst.FieldLeft) &^ 3 // first real internal node
	e.StoreInit(c, inner, bst.FieldKey, 1)    // absurd routing key
	if r := BST(e, c, 2); r.Ok() {
		t.Error("routing violation not detected")
	}
}

func TestSkipListOk(t *testing.T) {
	e := newEngine()
	c := e.NewCtx()
	s := skiplist.New(e, c)
	for k := uint64(1); k <= 500; k++ {
		s.Insert(c, k, k)
	}
	for k := uint64(1); k <= 500; k += 3 {
		s.Delete(c, k)
	}
	if r := SkipList(e, c, 3); !r.Ok() {
		t.Errorf("healthy skiplist flagged: %s", r)
	}
}

// TestSkipListMissingTowerFlagged cuts level 1 off at the head, as a
// recovered image would look had its trace not relinked the towers: every
// taller node is then live at level 0 but missing from level 1.
func TestSkipListMissingTowerFlagged(t *testing.T) {
	e := newEngine()
	c := e.NewCtx()
	s := skiplist.New(e, c)
	for k := uint64(1); k <= 64; k++ {
		s.Insert(c, k, k)
	}
	head := e.Load(c, engine.Root, 3)
	e.OpBegin(c)
	e.CASRebuilt(c, head, skiplist.Link(1), e.Load(c, head, skiplist.Link(1)), 0)
	e.OpEnd(c)
	if r := SkipList(e, c, 3); r.Ok() {
		t.Error("a level cut off at the head not detected")
	}
}

func TestQueueOk(t *testing.T) {
	e := newEngine()
	c := e.NewCtx()
	q := queue.New(e, c)
	for v := uint64(1); v <= 50; v++ {
		q.Enqueue(c, v)
	}
	q.Dequeue(c)
	if r := Queue(e, c, 4); !r.Ok() {
		t.Errorf("healthy queue flagged: %s", r)
	}
}

// TestAllStructuresAfterCrashRecovery is the fsck integration: build, run
// a mixed workload, crash, recover, and verify structural invariants.
func TestAllStructuresAfterCrashRecovery(t *testing.T) {
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM, engine.Izraelevitz, engine.NVTraverse} {
		t.Run(kind.String(), func(t *testing.T) {
			e := engine.New(engine.Config{Kind: kind, Words: 1 << 21, Track: true})
			c := e.NewCtx()
			l := list.New(e, 0)
			h := hashtable.NewAt(e, c, 32, 1)
			b := bst.NewAt(e, c, 4)
			s := skiplist.NewAt(e, c, 5)
			q := queue.NewAt(e, c, 6)
			rng := rand.New(rand.NewSource(33))
			for i := 0; i < 2000; i++ {
				k := uint64(rng.Intn(200) + 1)
				switch rng.Intn(3) {
				case 0:
					l.Insert(c, k, k)
					h.Insert(c, k, k)
					b.Insert(c, k, k)
					s.Insert(c, k, k)
					q.Enqueue(c, k)
				case 1:
					l.Delete(c, k)
					h.Delete(c, k)
					b.Delete(c, k)
					s.Delete(c, k)
				default:
					q.Dequeue(c)
				}
			}
			e.Crash(pmem.CrashRandom, rng)
			e.Recover(func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int), relink func(engine.Ref, int, uint64)) {
				list.TracerAt(e, 0)(read, visit, relink)
				hashtable.TracerAt(e, 1)(read, visit, relink)
				bst.TracerAt(e, 4)(read, visit, relink)
				// The skip list's trace relinks the levels above 0 as it
				// goes: no copy covers those words, and their media values
				// may point into memory the trace reclaims.
				skiplist.TracerAt(e, 5)(read, visit, relink)
				queue.TracerAt(e, 6)(read, visit, relink)
			})
			c = e.NewCtx()
			if r := List(e, c, 0); !r.Ok() {
				t.Errorf("list after recovery: %s", r)
			}
			if r := HashTable(e, c, 1); !r.Ok() {
				t.Errorf("hashtable after recovery: %s", r)
			}
			if r := BST(e, c, 4); !r.Ok() {
				t.Errorf("bst after recovery: %s", r)
			}
			if r := SkipList(e, c, 5); !r.Ok() {
				t.Errorf("skiplist after recovery: %s", r)
			}
			if r := Queue(e, c, 6); !r.Ok() {
				t.Errorf("queue after recovery: %s", r)
			}
		})
	}
}
