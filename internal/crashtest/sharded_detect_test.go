package crashtest

import (
	"math/rand"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures"
	"mirror/internal/structures/list"
)

// shardedKeys returns one key per shard of a 2-shard partition, plus the
// cross-shard operation key: client 0's descriptor slot lives on shard 0
// (client mod shards), so an operation on a key homed on shard 1 splits the
// protocol across devices — announce and verdict on shard 0, effect on
// shard 1.
func shardedKeys(t *testing.T) (pre0, pre1, opKey uint64) {
	t.Helper()
	found := [2]uint64{}
	for k := uint64(1); found[0] == 0 || found[1] == 0; k++ {
		sh := pmem.ShardOf(k, 2)
		if found[sh] == 0 {
			found[sh] = k
		}
	}
	for k := found[1] + 1; ; k++ {
		if pmem.ShardOf(k, 2) == 1 {
			return found[0], found[1], k
		}
	}
}

// TestDetectCrossShardSweep cuts a detectable insert whose descriptor slot
// and effect live on *different* shards at every deterministic crash point,
// recovers shard-concurrently, and checks the verdict is sound against the
// recovered state: Committed implies the effect is present, NotCommitted
// implies it is absent (the announce fence is eager on sharded engines, so
// no effect can precede a persisted announce), Unknown allows either — and
// an ExactlyOnce replay always lands the key exactly once.
func TestDetectCrossShardSweep(t *testing.T) {
	pre0, pre1, opKey := shardedKeys(t)
	build := func(sub engine.Engine, sc *engine.Ctx) structures.Set {
		return list.New(sub, 0)
	}
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM, engine.Izraelevitz, engine.NVTraverse} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for fa := int64(1); ; fa++ {
				e := engine.NewSharded(engine.Config{
					Kind: kind, Words: 1 << 20, Track: true, Clients: 2, Shards: 2,
				})
				c := e.NewCtx()
				s := structures.NewSharded(e, c, build)
				if !s.Insert(c, pre0, pre0) || !s.Insert(c, pre1, pre1) {
					t.Fatal("prefill failed")
				}
				e.FreezeAfter(fa)
				completed := runToFreeze(func() {
					e.DetectBegin(c, 0, 1, engine.DetectInsert, opKey, opKey*10)
					res := s.Insert(c, opKey, opKey*10)
					e.DetectEnd(c, res)
				})
				e.FreezeAfter(0)
				e.Crash(pmem.CrashDropAll, rng)
				s.Recover(engine.RecoverOptions{})
				c = e.NewCtx()
				s = structures.NewSharded(e, c, build)

				// Verdict soundness against the recovered cross-shard state.
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

				// Replay through the parent router: exactly-once semantics
				// must hold even though slot and effect shards differ.
				out := engine.ExactlyOnce(e, c, engine.DetectOp{
					Client: 0, Seq: 1, Kind: engine.DetectInsert, Key: opKey, Val: opKey * 10,
					Run: func(cc *engine.Ctx) bool { return s.Insert(cc, opKey, opKey*10) },
				}, true)
				if completed && out.Ran {
					t.Errorf("fa=%d: completed insert was replayed (%+v)", fa, out)
				}
				if !s.Contains(c, opKey) {
					t.Errorf("fa=%d: key %d missing after replay (completed=%v, outcome=%+v)",
						fa, opKey, completed, out)
				}
				if got, ok := s.Get(c, opKey); !ok || got != opKey*10 {
					t.Errorf("fa=%d: key %d value = (%d,%v), want (%d,true)", fa, opKey, got, ok, opKey*10)
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
