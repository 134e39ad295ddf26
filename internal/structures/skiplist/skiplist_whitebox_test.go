package skiplist

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures"
)

// These white-box tests stage a stalled delete (marked next pointers with
// the node still physically linked) and verify the compaction and helping
// behavior of the public operations.

func newWB(t *testing.T) (engine.Engine, *engine.Ctx, *SkipList) {
	t.Helper()
	e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 18, Track: true})
	c := e.NewCtx()
	return e, c, New(e, c)
}

// plantMarks marks every level of key's node top-down, as a delete does,
// but performs no unlinking — the state after a deleter stalls between its
// linearization and its cleanup search.
func plantMarks(e engine.Engine, c *engine.Ctx, s *SkipList, key uint64) {
	var preds, succs [MaxLevel]engine.Ref
	s.search(c, key, &preds, &succs)
	node := succs[0]
	if node == 0 || e.Load(c, node, FieldKey) != key {
		panic("plantMarks: key not found")
	}
	top := Height(e.Load(c, node, FieldTop))
	for i := top - 1; i >= 0; i-- {
		for {
			next := e.Load(c, node, Link(i))
			if structures.Marked(next) {
				break
			}
			if i > 0 && e.CASRebuilt(c, node, Link(i), next, structures.Mark(next)) {
				break
			}
			if i == 0 && e.CAS(c, node, FieldNext, next, structures.Mark(next)) {
				break
			}
		}
	}
}

// stale makes ref's level-i link v on the media, a value the crash left
// there: the node's StoreInit value, which is all rep_p ever holds of a link
// above level 0. Only a fixture may write a published node's plain word.
func stale(e engine.Engine, c *engine.Ctx, ref engine.Ref, i int, v uint64) {
	e.StoreInit(c, ref, Link(i), v)
	e.Publish(c, ref)
}

func TestMarkedNodeIsAbsent(t *testing.T) {
	e, c, s := newWB(t)
	for k := uint64(1); k <= 20; k++ {
		s.Insert(c, k, k)
	}
	plantMarks(e, c, s, 10)
	if s.Contains(c, 10) {
		t.Fatal("marked node reported present")
	}
	for k := uint64(1); k <= 20; k++ {
		if k != 10 && !s.Contains(c, k) {
			t.Fatalf("unrelated key %d lost", k)
		}
	}
}

func TestSearchCompactsMarkedNode(t *testing.T) {
	e, c, s := newWB(t)
	for k := uint64(1); k <= 20; k++ {
		s.Insert(c, k, k)
	}
	plantMarks(e, c, s, 10)
	// A search through the region must physically excise the marked node.
	var preds, succs [MaxLevel]engine.Ref
	s.search(c, 10, &preds, &succs)
	if succs[0] != 0 && e.Load(c, succs[0], FieldKey) == 10 {
		t.Fatal("search did not compact the marked node at level 0")
	}
	// Re-insert must now succeed.
	if !s.Insert(c, 10, 99) {
		t.Fatal("re-insert after compaction failed")
	}
	if v, ok := s.Get(c, 10); !ok || v != 99 {
		t.Fatalf("Get = (%d,%v), want (99,true)", v, ok)
	}
}

func TestDeleteOfMarkedNodeReportsAbsent(t *testing.T) {
	e, c, s := newWB(t)
	s.Insert(c, 5, 5)
	plantMarks(e, c, s, 5)
	if s.Delete(c, 5) {
		t.Fatal("delete of already-marked node should report absent")
	}
	if s.Len(c) != 0 {
		t.Fatalf("Len = %d, want 0", s.Len(c))
	}
}

func TestRandomLevelDistribution(t *testing.T) {
	s := &SkipList{}
	s.seed.Store(12345)
	counts := make([]int, MaxLevel+1)
	const n = 100000
	for i := 0; i < n; i++ {
		l := s.randomLevel()
		if l < 1 || l > MaxLevel {
			t.Fatalf("level %d out of range", l)
		}
		counts[l]++
	}
	// Geometric p=1/2: level 1 about half, each next roughly halving.
	if counts[1] < n/3 || counts[1] > 2*n/3 {
		t.Errorf("level-1 fraction %d/%d far from 1/2", counts[1], n)
	}
	if counts[2] > counts[1] || counts[3] > counts[2] {
		t.Error("level frequencies not decreasing")
	}
}

// TestShardedTracerMatchesOnFrozenLinks stages, on a media file, an image a
// SIGKILL can leave mid-delete. Node X (key 13) is marked on both its levels
// and already snipped from level 0, but head's level-1 link still reaches
// it; X's frozen level-0 link points at memory that has since been reused
// (G, key 16, on no chain). Copies of the file are attached at 1, 2 and 3
// workers, with pmem debug checks on. The one trace walks level 0 only, so
// each attach's recovery visits exactly head, 12, 15 and 17 — never X, never
// G — and each must keep the same live words and serve exactly {12, 15, 17},
// whether the copy ran inline or on a sink goroutine.
func TestShardedTracerMatchesOnFrozenLinks(t *testing.T) {
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.NVTraverse} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := engine.Config{Kind: kind, Words: 1 << 16, Track: true,
				MediaPath: filepath.Join(dir, "media")}
			e := engine.New(cfg)
			c := e.NewCtx()
			s := New(e, c)
			e.OpBegin(c)
			node := func(key uint64, next ...engine.Ref) engine.Ref {
				n := e.Alloc(c, NodeFields(len(next)))
				e.StoreInit(c, n, FieldKey, key)
				e.StoreInit(c, n, FieldVal, key)
				e.StoreInit(c, n, FieldTop, uint64(len(next)))
				for i, r := range next {
					e.StoreInit(c, n, Link(i), r)
				}
				e.Publish(c, n)
				return n
			}
			n17 := node(17, 0)
			n15 := node(15, n17)
			n12 := node(12, n15)
			x := node(13, structures.Mark(node(16, 0)), structures.Mark(0))
			e.Store(c, s.head, FieldNext, n12)
			stale(e, c, s.head, 1, x)
			e.OpEnd(c)
			want := map[engine.Ref]bool{s.head: true, n12: true, n15: true, n17: true}
			e.Freeze()
			if err := engine.PersistentDevices(e)[0].Close(); err != nil {
				t.Fatal(err)
			}
			image, err := os.ReadFile(cfg.MediaPath)
			if err != nil {
				t.Fatal(err)
			}

			pmem.EnableDebugChecks()
			defer pmem.DisableDebugChecks()
			var live1 uint64
			for _, workers := range []int{1, 2, 3} {
				acfg := cfg
				acfg.MediaPath = filepath.Join(dir, fmt.Sprintf("media%d", workers))
				acfg.Attach = true
				if err := os.WriteFile(acfg.MediaPath, image, 0o644); err != nil {
					t.Fatal(err)
				}
				e := engine.New(acfg)
				got := map[engine.Ref]bool{}
				e.RecoverWith(func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int), relink func(engine.Ref, int, uint64)) {
					TracerAt(e, rootHead)(read, func(ref engine.Ref, fields, rebuilt int) {
						got[ref] = true
						visit(ref, fields, rebuilt)
					}, relink)
				}, engine.RecoverOptions{Parallelism: workers})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: the trace visits %v, want head, 12, 15 and 17 %v", workers, got, want)
				}
				live, _ := e.Footprint()
				if workers == 1 {
					live1 = live
				} else if live != live1 {
					t.Errorf("workers=%d: %d live words, one worker kept %d", workers, live, live1)
				}
				c := e.NewCtx()
				s := NewAt(e, c, rootHead)
				var keys []uint64
				s.Range(c, 1, structures.KeyMax, func(k, v uint64) bool { keys = append(keys, k); return true })
				if want := []uint64{12, 15, 17}; !reflect.DeepEqual(keys, want) || s.Len(c) != len(want) {
					t.Errorf("workers=%d: serves %v (Len %d), want %v", workers, keys, s.Len(c), want)
				}
				for _, k := range []uint64{13, 16} {
					if s.Contains(c, k) {
						t.Errorf("workers=%d: serves key %d", workers, k)
					}
				}
				e.Freeze()
				if err := engine.PersistentDevices(e)[0].Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestAttachIgnoresStaleAccelerators stages, on a media file, the upper
// levels a crash can leave behind now that no write above level 0 is ever
// persisted, and attaches to it with pmem debug checks on. Level 0 holds
// 10 (height 2), 20 (3), 30 (1), a zombie 35 (2, marked at level 0: a delete
// cut after its linearization) and 40 (2). Above level 0 the media holds:
// head → x (key 15, linked only above level 0, so its memory is free after
// the trace) at levels 1 and 5, nothing at level 2, a stray mark on 10's
// level-1 link, 20's level-1 link into the middle of 40 (memory freed and
// reused since), a bare mark as 20's level-2 link, and a level-1 cycle from
// 40 back to 10. The trace must reach exactly the level-0 chain, Get, Range
// and Len must serve exactly its unmarked keys, and after the repair level i
// must link exactly the unmarked level-0 nodes of height > i. On the
// direct engine any read of x or of the reused words before the repair
// overwrites the links panics: they were never restored.
func TestAttachIgnoresStaleAccelerators(t *testing.T) {
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.NVTraverse} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := engine.Config{Kind: kind, Words: 1 << 16, Track: true,
				MediaPath: filepath.Join(t.TempDir(), "media")}
			e := engine.New(cfg)
			c := e.NewCtx()
			s := New(e, c)
			e.OpBegin(c)
			node := func(key uint64, next ...engine.Ref) engine.Ref {
				n := e.Alloc(c, NodeFields(len(next)))
				e.StoreInit(c, n, FieldKey, key)
				e.StoreInit(c, n, FieldVal, key*10)
				e.StoreInit(c, n, FieldTop, uint64(len(next)))
				for i, r := range next {
					e.StoreInit(c, n, Link(i), r)
				}
				e.Publish(c, n)
				return n
			}
			n40 := node(40, 0, 0)
			n35 := node(35, structures.Mark(n40), n40)
			n30 := node(30, n35)
			n20 := node(20, n30, 0, 0)
			n10 := node(10, n20, 0)
			e.Store(c, s.head, FieldNext, n10)
			live, _ := e.Footprint()
			x := node(15, n20, n40)
			stale(e, c, s.head, 1, x)
			stale(e, c, s.head, 5, x)
			stale(e, c, n10, 1, structures.Mark(n20))
			stale(e, c, n20, 1, n40+4)
			stale(e, c, n20, 2, structures.Mark(0))
			stale(e, c, n40, 1, n10)
			e.OpEnd(c)
			e.Freeze()
			if err := engine.PersistentDevices(e)[0].Close(); err != nil {
				t.Fatal(err)
			}

			pmem.EnableDebugChecks()
			defer pmem.DisableDebugChecks()
			cfg.Attach = true
			e = engine.New(cfg)
			e.Recover(TracerAt(e, rootHead))
			if got, _ := e.Footprint(); got != live {
				t.Fatalf("the trace kept %d live words, want %d: exactly the head and the level-0 chain", got, live)
			}
			c = e.NewCtx()
			s = NewAt(e, c, rootHead)

			e.OpBegin(c)
			want := [][]engine.Ref{1: {n10, n20, n40}, 2: {n20}}
			for i := 1; i < MaxLevel; i++ {
				var got []engine.Ref
				for n := e.TraversalLoad(c, s.head, Link(i)); n != 0 && len(got) <= len(want[1]); n = e.TraversalLoad(c, n, Link(i)) {
					got = append(got, n)
				}
				var w []engine.Ref
				if i < len(want) {
					w = want[i]
				}
				if !reflect.DeepEqual(got, w) {
					t.Errorf("level %d after the repair links %v, want %v", i, got, w)
				}
			}
			e.OpEnd(c)

			keys := []uint64{10, 20, 30, 40}
			for k := uint64(1); k <= 50; k++ {
				v, ok := s.Get(c, k)
				present := k%10 == 0 && k <= 40
				if ok != present || (ok && v != k*10) {
					t.Errorf("Get(%d) = (%d, %v), want present=%v", k, v, ok, present)
				}
			}
			var ranged []uint64
			s.Range(c, 1, structures.KeyMax, func(k, v uint64) bool { ranged = append(ranged, k); return true })
			if !reflect.DeepEqual(ranged, keys) || s.Len(c) != len(keys) {
				t.Errorf("Range serves %v and Len %d, want %v", ranged, s.Len(c), keys)
			}
			// Inserts allocate from the memory the trace reclaimed.
			if !s.Insert(c, 15, 150) || !s.Insert(c, 35, 350) || s.Len(c) != len(keys)+2 {
				t.Errorf("inserts after the attach: Len %d, want %d", s.Len(c), len(keys)+2)
			}
		})
	}
}
