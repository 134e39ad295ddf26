package crashtest

import (
	"math/rand"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/recovery"
	"mirror/internal/structures"
	"mirror/internal/structures/hashtable"
	"mirror/internal/structures/list"
)

// crossBuckets is the bucket count of the swept table.
const crossBuckets = 64

// crossFill is the number of filler keys the swept table holds beside the
// test's own, so its trace spans more than one batch of the recovery
// stream, with a few spans to spare in the second.
const crossFill = recovery.Batch + 8

// fill inserts the filler keys 1..crossFill, all below the test's keys.
func fill(s structures.Set, c *engine.Ctx) bool {
	for k := uint64(1); k <= crossFill; k++ {
		if !s.Insert(c, k, k) {
			return false
		}
	}
	return true
}

// traced builds a table holding the fillers and keys, crashes and recovers
// it, and returns the key of every node the recovery's trace visits, in
// trace order: the trace visits the bucket array first, so the i-th key is
// in batch (i+1)/Batch of the streamed rebuild.
func traced(keys ...uint64) []uint64 {
	e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 16, Track: true})
	c := e.NewCtx()
	h := hashtable.New(e, c, crossBuckets)
	fill(h, c)
	for _, k := range keys {
		h.Insert(c, k, k)
	}
	var order []uint64
	arr := true
	e.Crash(pmem.CrashDropAll, rand.New(rand.NewSource(1)))
	e.Recover(func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int), relink func(engine.Ref, int, uint64)) {
		hashtable.TracerAt(e, 0)(read, func(ref engine.Ref, fields, rebuilt int) {
			if !arr {
				order = append(order, read(ref, list.FieldKey))
			}
			arr = false
			visit(ref, fields, rebuilt)
		}, relink)
	})
	return order
}

// shardedKeys returns two prefill keys and the operation key, all above
// the fillers, such that with all three in the table the rebuild's batch 0
// holds the bucket array and pre0's node, and batch 1 holds pre1's node
// and the operation's: the cut insert's node is restored from a later
// batch than the bucket array, while the trace is still running. Of 64
// candidates it takes the first traced, and the last two, which end the
// trace.
func shardedKeys(t *testing.T) (pre0, pre1, opKey uint64) {
	t.Helper()
	var cands []uint64
	for k := uint64(crossFill + 1); k <= crossFill+64; k++ {
		cands = append(cands, k)
	}
	var order []uint64
	for _, k := range traced(cands...) {
		if k > crossFill {
			order = append(order, k)
		}
	}
	pre0, pre1, opKey = order[0], order[len(order)-2], order[len(order)-1]
	batch := map[uint64]int{}
	for i, k := range traced(pre0, pre1, opKey) {
		batch[k] = (i + 1) / recovery.Batch
	}
	if batch[pre0] != 0 || batch[pre1] != 1 || batch[opKey] != 1 {
		t.Fatalf("keys %d, %d, %d lie in batches %d, %d, %d, want 0, 1, 1",
			pre0, pre1, opKey, batch[pre0], batch[pre1], batch[opKey])
	}
	return pre0, pre1, opKey
}

// TestDetectCrossShardSweep cuts a detectable insert whose node lies in a
// different batch of the streamed rebuild than the bucket array at every
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
				e := engine.New(engine.Config{Kind: kind, Words: 1 << 16, Track: true, Clients: 2})
				c := e.NewCtx()
				s := hashtable.New(e, c, crossBuckets)
				if !fill(s, c) || !s.Insert(c, pre0, pre0) || !s.Insert(c, pre1, pre1) {
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
