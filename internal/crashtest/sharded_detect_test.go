package crashtest

import (
	"math/rand"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/recovery"
	"mirror/internal/structures/hashtable"
	"mirror/internal/structures/list"
)

// crossBuckets is the bucket count of the swept table.
const crossBuckets = 16

// rebuildParts builds a table holding keys and reports which part of the
// 2-worker rebuild — recovery.Parts over the one trace, whose part 0 starts
// with the bucket array — holds each key's node.
func rebuildParts(keys ...uint64) map[uint64]int {
	e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 16, Track: true})
	c := e.NewCtx()
	h := hashtable.New(e, c, crossBuckets)
	for _, k := range keys {
		h.Insert(c, k, k)
	}
	var spans []engine.Ref
	hashtable.TracerAt(e, 0)(e.RecoveryLoad, func(ref engine.Ref, _ int) { spans = append(spans, ref) })
	parts := make(map[uint64]int)
	for i, part := range recovery.Parts(spans, 2) {
		for _, ref := range part {
			if ref != spans[0] {
				parts[e.RecoveryLoad(ref, list.FieldKey)] = i
			}
		}
	}
	return parts
}

// shardedKeys returns two prefill keys and the operation key such that,
// with all three in the table, the rebuild's part 0 holds the bucket array
// and pre0's node, and part 1 holds pre1's node and the operation's: the
// cut insert's node is rebuilt by the worker that does not rebuild the
// bucket array.
func shardedKeys(t *testing.T) (pre0, pre1, opKey uint64) {
	t.Helper()
	for a := uint64(1); a < 20; a++ {
		for b := uint64(1); b < 20; b++ {
			for o := uint64(1); o < 20; o++ {
				if a == b || a == o || b == o {
					continue
				}
				if p := rebuildParts(a, b, o); p[a] == 0 && p[b] == 1 && p[o] == 1 {
					return a, b, o
				}
			}
		}
	}
	t.Fatal("no keys split across the two rebuild parts")
	return
}

// TestDetectCrossShardSweep cuts a detectable insert whose node lies in a
// different part of the recovery rebuild than the bucket array at every
// deterministic crash point, recovers at two workers, and
// checks the verdict is sound against the recovered state: Committed
// implies the effect is present, NotCommitted implies it is absent,
// Unknown allows either — and an ExactlyOnce replay always lands the key
// exactly once.
func TestDetectCrossShardSweep(t *testing.T) {
	pre0, pre1, opKey := shardedKeys(t)
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM, engine.Izraelevitz, engine.NVTraverse} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for fa := int64(1); ; fa++ {
				e := engine.New(engine.Config{Kind: kind, Words: 1 << 20, Track: true, Clients: 2})
				c := e.NewCtx()
				s := hashtable.New(e, c, crossBuckets)
				if !s.Insert(c, pre0, pre0) || !s.Insert(c, pre1, pre1) {
					t.Fatal("prefill failed")
				}
				e.FreezeAfter(fa)
				completed := runToFreeze(func() {
					detectable(e, c, 0, 1, engine.DetectInsert, opKey, opKey*10, func() bool { return s.Insert(c, opKey, opKey*10) })
				})
				e.FreezeAfter(0)
				e.Crash(pmem.CrashDropAll, rng)
				e.RecoverWith(hashtable.TracerAt(e, 0), engine.RecoverOptions{Parallelism: 2})
				c = e.NewCtx()
				s = hashtable.New(e, c, crossBuckets)

				// Verdict soundness against the recovered state.
				v := e.Detect(0, 1)
				present := s.Contains(c, opKey)
				switch v.Verdict {
				case engine.Committed:
					if !present {
						t.Errorf("fa=%d: verdict Committed but key %d absent after recovery", fa, opKey)
					}
				case engine.NotCommitted:
					if present {
						t.Errorf("fa=%d: verdict NotCommitted but key %d present after recovery", fa, opKey)
					}
				}
				if completed && v.Verdict != engine.Committed {
					t.Errorf("fa=%d: completed op reads %v, want Committed", fa, v.Verdict)
				}

				out := engine.ExactlyOnce(e, c, engine.DetectOp{
					Client: 0, Seq: 1, Kind: engine.DetectInsert, Key: opKey, Val: opKey * 10,
					Run: func(cc *engine.Ctx) bool { return s.Insert(cc, opKey, opKey*10) },
				}, true)
				if completed && out.Ran {
					t.Errorf("fa=%d: completed insert was replayed (%+v)", fa, out)
				}
				if got, ok := s.Get(c, opKey); !ok || got != opKey*10 {
					t.Errorf("fa=%d: key %d = (%d,%v) after replay, want (%d,true) (completed=%v, outcome=%+v)",
						fa, opKey, got, ok, opKey*10, completed, out)
				}
				if !s.Contains(c, pre0) || !s.Contains(c, pre1) {
					t.Errorf("fa=%d: prefill keys disturbed", fa)
				}
				if vv := e.Detect(0, 1); vv.Verdict != engine.Committed {
					t.Errorf("fa=%d: post-replay verdict = %v, want Committed", fa, vv.Verdict)
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
