package crashtest

import (
	"math/rand"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures/hashtable"
)

// crossBuckets is the bucket count of the swept table; a 2-shard trace
// gives shard 0 the bucket array and buckets [0, 8), shard 1 buckets
// [8, 16).
const crossBuckets = 16

// traceHalf reports which half of a 2-shard hashtable trace a key's node
// falls in, by tracing shard 0 over a table holding only that key: shard 0
// visits the bucket array, plus the node when the key is its own.
func traceHalf(key uint64) int {
	e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 16, Track: true})
	c := e.NewCtx()
	hashtable.New(e, c, crossBuckets).Insert(c, key, key)
	visits := 0
	hashtable.ShardedTracerAt(e, 0)(0, 2)(e.RecoveryLoad, func(engine.Ref, int) { visits++ })
	return 2 - visits
}

// shardedKeys returns one prefill key per trace shard, plus the operation
// key, which lies in shard 1: the shard that does not trace the bucket
// array.
func shardedKeys(t *testing.T) (pre0, pre1, opKey uint64) {
	t.Helper()
	found := [2]uint64{}
	for k := uint64(1); found[0] == 0 || found[1] == 0; k++ {
		if sh := traceHalf(k); found[sh] == 0 {
			found[sh] = k
		}
		if k > 1000 {
			t.Fatal("no key found for one of the two trace shards")
		}
	}
	for k := found[1] + 1; ; k++ {
		if traceHalf(k) == 1 {
			return found[0], found[1], k
		}
	}
}

// TestDetectCrossShardSweep cuts a detectable insert whose effect lies in a
// different shard of the recovery trace than the bucket array at every
// deterministic crash point, recovers through the 2-shard pipeline, and
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
				e.RecoverWith(hashtable.TracerAt(e, 0), engine.RecoverOptions{
					Parallelism: 2, Sharded: hashtable.ShardedTracerAt(e, 0),
				})
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
