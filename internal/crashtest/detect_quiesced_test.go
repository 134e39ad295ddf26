package crashtest

import (
	"math/rand"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures/list"
)

// TestDetectQuiescedList covers the quiesced crash+recover cycle on the
// *empty* and *single-element* list shapes for every durable engine,
// checking the Detect verdict for the last operation at each step and that
// ExactlyOnce refuses to duplicate a committed effect.
func TestDetectQuiescedList(t *testing.T) {
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM, engine.Izraelevitz, engine.NVTraverse} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			e := engine.New(engine.Config{Kind: kind, Words: 1 << 20, Track: true, Clients: 2})
			c := e.NewCtx()
			l := list.New(e, 0)
			tr := list.TracerAt(e, 0)
			cycle := func() {
				e.Crash(pmem.CrashDropAll, rng)
				e.RecoverWith(tr, engine.RecoverOptions{Parallelism: 1})
				c = e.NewCtx()
				l = list.New(e, 0)
			}

			// Empty shape, no operations at all: recovery must scrub the
			// descriptors to a state where nothing reads Committed.
			cycle()
			if n := l.Len(c); n != 0 {
				t.Fatalf("empty list Len after recovery = %d", n)
			}
			if v := e.Detect(1, 1); v.Verdict != engine.NotCommitted {
				t.Fatalf("unissued op verdict = %+v, want NotCommitted", v)
			}

			// Empty shape with a detectable (failed) membership query.
			res := detectable(e, c, 1, 1, engine.DetectContains, 5, 0, func() bool { return l.Contains(c, 5) })
			if res {
				t.Fatal("contains on empty list returned true")
			}
			cycle()
			if v := e.Detect(1, 1); v.Verdict != engine.Committed || !v.KnownResult || v.Result {
				t.Errorf("empty contains verdict = %+v, want Committed with result false", v)
			}

			// Single-element shape: detectable insert, crash, verify.
			res = detectable(e, c, 1, 2, engine.DetectInsert, 5, 50, func() bool { return l.Insert(c, 5, 50) })
			if !res {
				t.Fatal("insert failed")
			}
			cycle()
			if v := e.Detect(1, 2); v.Verdict != engine.Committed || !v.KnownResult || !v.Result {
				t.Errorf("insert verdict = %+v, want Committed with result true", v)
			}
			if !l.Contains(c, 5) || l.Len(c) != 1 {
				t.Fatalf("single-element list lost its element: len=%d", l.Len(c))
			}

			// ExactlyOnce must see the committed insert and not re-run it.
			out := engine.ExactlyOnce(e, c, engine.DetectOp{
				Client: 1, Seq: 2, Kind: engine.DetectInsert, Key: 5, Val: 50,
				Run: func(cc *engine.Ctx) bool { return l.Insert(cc, 5, 50) },
			}, true)
			if out.Ran || out.Verdict != engine.Committed || !out.Result {
				t.Errorf("ExactlyOnce on committed insert = %+v, want no replay", out)
			}
			if l.Len(c) != 1 {
				t.Fatalf("ExactlyOnce duplicated the element: len=%d", l.Len(c))
			}

			// Detectable delete back down to the empty shape.
			res = detectable(e, c, 1, 3, engine.DetectDelete, 5, 0, func() bool { return l.Delete(c, 5) })
			if !res {
				t.Fatal("delete failed")
			}
			cycle()
			if v := e.Detect(1, 3); v.Verdict != engine.Committed || !v.KnownResult || !v.Result {
				t.Errorf("delete verdict = %+v, want Committed with result true", v)
			}
			if n := l.Len(c); n != 0 {
				t.Fatalf("list not empty after deleted-element recovery: len=%d", n)
			}
		})
	}
}

// detectable runs f as detectable operation (client, seq) and drains its
// verdict before returning f's result.
func detectable(e engine.Engine, c *engine.Ctx, client int, seq, kind, key, val uint64, f func() bool) bool {
	e.DetectBeginDeferred(c, client, seq, kind, key, val)
	res := f()
	e.DetectEndDeferred(c, res, 0)
	e.DetectDrain(c)
	return res
}

// runToFreeze runs f, reporting whether it completed (true) or was cut by
// the armed freeze (false).
func runToFreeze(f func()) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == pmem.ErrFrozen {
				return
			}
			panic(r)
		}
	}()
	f()
	return true
}

// TestDetectExactlyOnceListSweep cuts a detectable insert at every
// deterministic crash point and replays it through ExactlyOnce after
// recovery: whatever the verdict, the recovered-plus-replayed list must
// hold the key exactly once — no lost and no duplicated effect.
func TestDetectExactlyOnceListSweep(t *testing.T) {
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM, engine.Izraelevitz, engine.NVTraverse} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for fa := int64(1); ; fa++ {
				e := engine.New(engine.Config{Kind: kind, Words: 1 << 20, Track: true, Clients: 1})
				c := e.NewCtx()
				l := list.New(e, 0)
				if !l.Insert(c, 3, 30) {
					t.Fatal("prefill failed")
				}
				e.FreezeAfter(fa)
				completed := runToFreeze(func() {
					detectable(e, c, 0, 1, engine.DetectInsert, 9, 90, func() bool { return l.Insert(c, 9, 90) })
				})
				e.FreezeAfter(0)
				e.Crash(pmem.CrashDropAll, rng)
				e.RecoverWith(list.TracerAt(e, 0), engine.RecoverOptions{Parallelism: 1})
				c = e.NewCtx()
				l = list.New(e, 0)
				out := engine.ExactlyOnce(e, c, engine.DetectOp{
					Client: 0, Seq: 1, Kind: engine.DetectInsert, Key: 9, Val: 90,
					Run: func(cc *engine.Ctx) bool { return l.Insert(cc, 9, 90) },
				}, true)
				if completed && out.Ran {
					t.Errorf("fa=%d: completed insert was replayed (%+v)", fa, out)
				}
				if !l.Contains(c, 9) || !l.Contains(c, 3) || l.Len(c) != 2 {
					t.Errorf("fa=%d: replayed list = %v (completed=%v, outcome=%+v)",
						fa, l.Keys(c), completed, out)
				}
				if completed {
					break
				}
				if fa > 100000 {
					t.Fatal("crash-point sweep did not terminate")
				}
			}
		})
	}
}
