package skiplist_test

import (
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
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

func TestSkipListAckDetect(t *testing.T) {
	settest.RunAckDetect(t, settest.Factory{
		New: func(e engine.Engine, c *engine.Ctx) structures.Set { return skiplist.New(e, c) },
	})
}

// detectable runs one frame of a client as the serving tier does at depth 1:
// armed, run, its verdict deferred, drained.
func detectable(e engine.Engine, c *engine.Ctx, client int, seq, kind, key uint64, op func() bool) bool {
	e.DetectBeginDeferred(c, client, seq, kind, key, key)
	res := op()
	e.DetectEndDeferred(c, res, 0)
	e.DetectDrain(c)
	return res
}

// TestSnipWitnessesInsert is O6 (engine detect.go): an insert acknowledged
// on its tagged node, whose node another client's delete then marks and
// snips — its evidence gone from level 0 — still reads Committed with
// result true after a crash, from the witness the delete's mark wrote into
// the insert's ring entry.
func TestSnipWitnessesInsert(t *testing.T) {
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM} {
		e := engine.New(engine.Config{Kind: kind, Words: 1 << 16, Track: true, Clients: 2})
		c := e.NewCtx()
		s := skiplist.New(e, c)
		const key = 7
		if !detectable(e, c, 0, 1, engine.DetectInsert, key, func() bool { return s.Insert(c, key, key) }) {
			t.Fatal("insert of a fresh key failed")
		}
		if !detectable(e, c, 1, 1, engine.DetectDelete, key, func() bool { return s.Delete(c, key) }) {
			t.Fatal("delete of the inserted key failed")
		}
		// One witness, the mark's of the insert; both frames are
		// acknowledged on their evidence.
		if st := e.Stats(); st.Witnesses != 1 || st.WitnessFences != 0 || st.Unverdicted != 2 {
			t.Fatalf("%v: %d witnesses, %d witness fences, %d frames without a verdict; want 1, 0, 2",
				kind, st.Witnesses, st.WitnessFences, st.Unverdicted)
		}
		e.Crash(pmem.CrashDropAll, nil)
		e.Recover(s.Tracer())
		c = e.NewCtx()
		s = skiplist.New(e, c)
		if s.Contains(c, key) {
			t.Fatalf("%v: the deleted key survived", kind)
		}
		for client := 0; client < 2; client++ {
			if d := e.Detect(client, 1); d.Verdict != engine.Committed || !d.KnownResult || !d.Result {
				t.Fatalf("%v: client %d seq 1 reads %+v, want Committed with result true", kind, client, d)
			}
		}
	}
}

// TestTagLapAliasNotCommitted is O7 (engine detect.go): a tag keeps four
// lap bits, so the tag of seq 17 on a one-entry ring is the tag of seq 1.
// Seq 1 inserted the key, and its tagged node is still on level 0; seq 17
// inserts the same key, finds it, and crashes with its announce durable and
// no verdict. Recovery reads seq 1's tag off the live node — the same
// client, entry, lap mod 16, key and kind — but seq 17's announce names no
// word, so seq 17 reads Unknown, never Committed.
func TestTagLapAliasNotCommitted(t *testing.T) {
	e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 16, Track: true, Clients: 1, DetectRing: 1})
	c := e.NewCtx()
	s := skiplist.New(e, c)
	const key = 7
	insert := func() bool { return s.Insert(c, key, key) }
	if !detectable(e, c, 0, 1, engine.DetectInsert, key, insert) {
		t.Fatal("insert of a fresh key failed")
	}
	for seq := uint64(2); seq <= 16; seq++ {
		if detectable(e, c, 0, seq, engine.DetectInsert, key, insert) {
			t.Fatalf("seq %d: insert of a present key succeeded", seq)
		}
	}
	e.DetectBeginDeferred(c, 0, 17, engine.DetectInsert, key, key)
	if insert() {
		t.Fatal("seq 17: insert of a present key succeeded")
	}
	for _, d := range engine.PersistentDevices(e) {
		d.PersistRange(1, d.Size()-1)
	}
	e.Crash(pmem.CrashDropAll, nil)
	e.Recover(s.Tracer())
	if d := e.Detect(0, 17); d.Verdict != engine.Unknown {
		t.Fatalf("seq 17 reads %+v, want Unknown: its announce names no tagged word", d)
	}
	if d := e.Detect(0, 16); d.Verdict != engine.Committed || !d.KnownResult || d.Result {
		t.Fatalf("seq 16 reads %+v, want Committed with result false", d)
	}
}

// TestDeleteWitnessBeforeReuse is O6 (b) (engine detect.go): a delete
// acknowledged on its mark, whose node's memory is then reused by a live
// node at the same offset — so the trace reads the word the delete's
// announce names, without the mark — still reads Committed with result
// true after a crash, from the witness the pre-free drain wrote before the
// node's memory was freed.
func TestDeleteWitnessBeforeReuse(t *testing.T) {
	e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 17, Track: true, Clients: 1})
	c := e.NewCtx()
	s := skiplist.New(e, c)
	// level0 returns the nodes on level 0 by key.
	level0 := func() map[uint64]engine.Ref {
		nodes := map[uint64]engine.Ref{}
		head := e.Load(c, engine.Root, 3)
		for n := structures.Unmark(e.Load(c, head, skiplist.FieldNext)); n != 0; n = structures.Unmark(e.Load(c, n, skiplist.FieldNext)) {
			nodes[e.Load(c, n, skiplist.FieldKey)] = n
		}
		return nodes
	}
	const key = 7
	if !detectable(e, c, 0, 1, engine.DetectInsert, key, func() bool { return s.Insert(c, key, key) }) {
		t.Fatal("insert of a fresh key failed")
	}
	victim := level0()[key]
	if !detectable(e, c, 0, 2, engine.DetectDelete, key, func() bool { return s.Delete(c, key) }) {
		t.Fatal("delete of the inserted key failed")
	}
	// Unarmed operations age the limbo until the victim is freed, then
	// fresh inserts until one reuses its memory.
	reused := uint64(0)
	for k := uint64(100); k < 400 && reused == 0; k++ {
		for i := 0; i < 64; i++ {
			s.Contains(c, key)
		}
		s.Insert(c, k, k)
		if level0()[k] == victim {
			reused = k
		}
	}
	if reused == 0 {
		t.Fatal("no insert reused the deleted node's memory")
	}
	e.Crash(pmem.CrashDropAll, nil)
	e.Recover(s.Tracer())
	c = e.NewCtx()
	s = skiplist.New(e, c)
	if s.Contains(c, key) || !s.Contains(c, reused) {
		t.Fatalf("after the crash key %d present=%v, key %d present=%v; want false, true",
			key, s.Contains(c, key), reused, s.Contains(c, reused))
	}
	if d := e.Detect(0, 2); d.Verdict != engine.Committed || !d.KnownResult || !d.Result {
		t.Fatalf("the delete reads %+v, want Committed with result true", d)
	}
}

// TestEvidenceKeepsThePrefix: a client's committed seqs form a prefix.
// Seq 1 has no effect and waits for the drain's verdict; seq 2 inserts in
// the same batch. A crash before the drain loses seq 1's verdict, so seq 1
// reads NotCommitted — and seq 2, whose node is on the media, must not read
// Committed: it keeps its verdict and is named by no announce.
func TestEvidenceKeepsThePrefix(t *testing.T) {
	e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 16, Track: true, Clients: 1})
	c := e.NewCtx()
	s := skiplist.New(e, c)
	e.DetectBeginDeferred(c, 0, 1, engine.DetectDelete, 7, 0)
	e.DetectEndDeferred(c, s.Delete(c, 7), 0)
	e.DetectBeginDeferred(c, 0, 2, engine.DetectInsert, 7, 7)
	e.DetectEndDeferred(c, s.Insert(c, 7, 7), 0)
	if st := e.Stats(); st.Unverdicted != 0 {
		t.Fatalf("%d frames acknowledged without a verdict behind a pending one, want 0", st.Unverdicted)
	}
	e.Crash(pmem.CrashDropAll, nil)
	e.Recover(s.Tracer())
	c = e.NewCtx()
	s = skiplist.New(e, c)
	if !s.Contains(c, 7) {
		t.Fatal("the insert's node did not survive its own fence")
	}
	if d := e.Detect(0, 1); d.Verdict != engine.NotCommitted {
		t.Fatalf("seq 1 reads %+v, want NotCommitted", d)
	}
	if d := e.Detect(0, 2); d.Verdict == engine.Committed {
		t.Fatalf("seq 2 reads %+v after an uncommitted seq 1", d)
	}
}
