package skiplist_test

import (
	"testing"

	"mirror/internal/engine"
	"mirror/internal/structures"
	"mirror/internal/structures/settest"
	"mirror/internal/structures/skiplist"
)

func TestSkipListConformance(t *testing.T) {
	settest.Run(t, settest.Factory{
		New: func(e engine.Engine, c *engine.Ctx) structures.Set {
			return skiplist.New(e, c)
		},
		Words: 1 << 21,
	})
}

func TestSkipListTowersAndOrder(t *testing.T) {
	e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 20})
	c := e.NewCtx()
	s := skiplist.New(e, c)
	// Enough inserts that multiple tower heights occur.
	for k := uint64(1); k <= 2000; k++ {
		if !s.Insert(c, k, k+7) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if got := s.Len(c); got != 2000 {
		t.Fatalf("Len = %d, want 2000", got)
	}
	for k := uint64(1); k <= 2000; k++ {
		if v, ok := s.Get(c, k); !ok || v != k+7 {
			t.Fatalf("Get(%d) = (%d,%v)", k, v, ok)
		}
	}
	// Delete every third key.
	for k := uint64(3); k <= 2000; k += 3 {
		if !s.Delete(c, k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	for k := uint64(1); k <= 2000; k++ {
		want := k%3 != 0
		if got := s.Contains(c, k); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestSkipListEmptyAfterDeletes(t *testing.T) {
	e := engine.New(engine.Config{Kind: engine.Izraelevitz, Words: 1 << 19, Track: true})
	c := e.NewCtx()
	s := skiplist.New(e, c)
	for round := 0; round < 3; round++ {
		for k := uint64(1); k <= 100; k++ {
			s.Insert(c, k, k)
		}
		for k := uint64(1); k <= 100; k++ {
			if !s.Delete(c, k) {
				t.Fatalf("round %d: delete %d failed", round, k)
			}
		}
		if got := s.Len(c); got != 0 {
			t.Fatalf("round %d: Len = %d", round, got)
		}
	}
}

func TestSkipListShardedConformance(t *testing.T) {
	settest.RunSharded(t, settest.Factory{
		New: func(e engine.Engine, c *engine.Ctx) structures.Set {
			return skiplist.New(e, c)
		},
		Words: 1 << 21,
	})
}

func TestSkipListRingDetect(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point sweep")
	}
	settest.RunRingDetect(t, settest.Factory{
		New: func(e engine.Engine, c *engine.Ctx) structures.Set {
			return skiplist.New(e, c)
		},
	})
}

// TestSkipListCasVal pins the RMW primitive: compare-and-set of a present
// key's value, misses on absent keys and stale expectations, and crash
// durability of a successful swap.
func TestSkipListCasVal(t *testing.T) {
	e := engine.New(engine.Config{Kind: engine.MirrorNVMM, Words: 1 << 18, Track: true})
	c := e.NewCtx()
	s := skiplist.New(e, c)
	for k := uint64(1); k <= 50; k++ {
		s.Insert(c, k, k*10)
	}
	if s.CasVal(c, 99, 0, 1) {
		t.Fatal("CasVal on absent key succeeded")
	}
	if s.CasVal(c, 7, 69, 71) {
		t.Fatal("CasVal with stale expect succeeded")
	}
	if v, _ := s.Get(c, 7); v != 70 {
		t.Fatalf("failed CasVal changed value: %d", v)
	}
	if !s.CasVal(c, 7, 70, 71) {
		t.Fatal("CasVal with correct expect failed")
	}
	if v, _ := s.Get(c, 7); v != 71 {
		t.Fatalf("value after CasVal = %d, want 71", v)
	}
	// Crash durability: the swap happened under the full discipline.
	e.Freeze()
	e.Crash(0, nil)
	e.Recover(skiplist.TracerAt(e, 3))
	c2 := e.NewCtx()
	s2 := skiplist.New(e, c2)
	if v, ok := s2.Get(c2, 7); !ok || v != 71 {
		t.Fatalf("value after crash = (%d,%v), want (71,true)", v, ok)
	}
}

// TestTaggedDeletesConcurrent races detectable inserts and deletes of a
// few keys from four clients on Mirror, so that tagged marks are helped
// into rep_v, snipped and reclaimed by other contexts than their owners'.
// Every acknowledged seq in the last ring must read Committed with its
// result, and each client's own key must be as its last operation left it.
// Under -race it also checks that nothing the tags add is shared unsafely.
func TestTaggedDeletesConcurrent(t *testing.T) {
	const clients, ops, keys = 4, 300, 4
	e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 18, Track: true, Clients: clients})
	s := skiplist.New(e, e.NewCtx())
	results := make([][]bool, clients)
	present := make([]bool, clients) // each client's own key, as its last operation on it left it
	done := make(chan int)
	for cl := 0; cl < clients; cl++ {
		go func(cl int) {
			defer func() { done <- cl }()
			c := e.NewCtx()
			for seq := uint64(1); seq <= ops; seq++ {
				// Each client owns one key and races the others on a
				// shared one, so marks meet concurrent CASes on their line.
				key, del := uint64(1+cl), seq%2 == 0
				if seq%3 == 0 {
					key = keys + 1
				}
				kind := engine.DetectInsert
				if del {
					kind = engine.DetectDelete
				}
				e.DetectBeginDeferred(c, cl, seq, kind, key, seq)
				var ok bool
				if del {
					ok = s.Delete(c, key)
				} else {
					ok = s.Insert(c, key, seq)
				}
				e.DetectEndDeferred(c, ok, 0)
				e.DetectDrain(c)
				results[cl] = append(results[cl], ok)
				if key == uint64(1+cl) {
					present[cl] = !del
				}
			}
		}(cl)
	}
	for i := 0; i < clients; i++ {
		<-done
	}
	c := e.NewCtx()
	for cl := 0; cl < clients; cl++ {
		for seq := uint64(1); seq <= ops; seq++ {
			d := e.Detect(cl, seq)
			if seq+uint64(engine.DefaultDetectRing) <= ops {
				continue // lapped: only the last ring of seqs is authoritative
			}
			if d.Verdict != engine.Committed || !d.KnownResult || d.Result != results[cl][seq-1] {
				t.Errorf("client %d seq %d: %+v, want Committed with result %v", cl, seq, d, results[cl][seq-1])
			}
		}
		if s.Contains(c, uint64(1+cl)) != present[cl] {
			t.Errorf("client %d's key: present %v, want %v", cl, !present[cl], present[cl])
		}
	}
}
