package settest

// Sharded-substrate battery: the same conformance and crash checks as the
// single-device suite, run through structures.Sharded over an
// engine.Sharded at several shard counts, plus two properties specific to
// the sharded composition — the 1-shard wrapper must leave persistent
// media byte-identical to the plain engine, and shard-concurrent recovery
// must be deterministic in both the shard count's worker parallelism and
// (logically) the shard count itself.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures"
)

// sharded builds an engine.Sharded at the given shard count and the routed
// set over it. NewSharded accepts one shard, so the 1-shard wrapper runs
// through the identical routing code path as the wider counts.
func (f Factory) sharded(k engine.Kind, shards int) (*engine.Sharded, *structures.Sharded, *engine.Ctx) {
	words := f.Words
	if words == 0 {
		words = 1 << 20
	}
	e := engine.NewSharded(engine.Config{Kind: k, Words: words, Track: true, Shards: shards})
	c := e.NewCtx()
	return e, structures.NewSharded(e, c, f.New), c
}

// RunSharded executes the sharded battery for every engine kind.
func RunSharded(t *testing.T, f Factory) {
	for _, k := range engine.Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			for _, shards := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("Shards%d", shards), func(t *testing.T) {
					t.Run("RandomBatch", func(t *testing.T) { testShardedBatch(t, f, k, shards) })
					t.Run("ConcurrentDistinct", func(t *testing.T) { testShardedConcurrent(t, f, k, shards) })
					if k.Durable() {
						t.Run("QuiescedCrashRecovery", func(t *testing.T) { testShardedQuiescedCrash(t, f, k, shards) })
					}
				})
			}
			if k.Durable() {
				t.Run("SingleShardMediaPin", func(t *testing.T) { testSingleShardMediaPin(t, f, k) })
				t.Run("RecoveryDeterminism", func(t *testing.T) { testShardedRecoveryDeterminism(t, f, k) })
			}
		})
	}
}

// testShardedBatch model-checks a random single-threaded op sequence
// through the shard routing.
func testShardedBatch(t *testing.T, f Factory, k engine.Kind, shards int) {
	_, s, c := f.sharded(k, shards)
	rng := rand.New(rand.NewSource(321))
	model := make(map[uint64]uint64)
	for i := 0; i < 1500; i++ {
		key := uint64(rng.Intn(500) + 1)
		switch rng.Intn(3) {
		case 0:
			val := rng.Uint64()
			_, present := model[key]
			if got := s.Insert(c, key, val); got == present {
				t.Fatalf("op %d: Insert(%d) = %v with present=%v", i, key, got, present)
			}
			if !present {
				model[key] = val
			}
		case 1:
			_, present := model[key]
			if got := s.Delete(c, key); got != present {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, key, got, present)
			}
			delete(model, key)
		default:
			want, present := model[key]
			got, ok := s.Get(c, key)
			if ok != present || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", i, key, got, ok, want, present)
			}
		}
	}
}

// testShardedConcurrent drives disjoint key ranges from concurrent workers;
// the ranges hash across every shard, so cross-shard routing runs under
// real contention on each sub-engine.
func testShardedConcurrent(t *testing.T, f Factory, k engine.Kind, shards int) {
	e, s, c0 := f.sharded(k, shards)
	const workers = 4
	const perWorker = 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := e.NewCtx()
			base := uint64(w*perWorker + 1)
			for i := uint64(0); i < perWorker; i++ {
				if !s.Insert(c, base+i, base+i) {
					t.Errorf("worker %d: insert %d failed", w, base+i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for key := uint64(1); key <= workers*perWorker; key++ {
		if !s.Contains(c0, key) {
			t.Fatalf("key %d missing after concurrent inserts", key)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := e.NewCtx()
			base := uint64(w*perWorker + 1)
			for i := uint64(0); i < perWorker; i++ {
				if (base+i)%2 == 0 {
					if !s.Delete(c, base+i) {
						t.Errorf("worker %d: delete %d failed", w, base+i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for key := uint64(1); key <= workers*perWorker; key++ {
		want := key%2 == 1
		if got := s.Contains(c0, key); got != want {
			t.Fatalf("key %d: contains = %v, want %v", key, got, want)
		}
	}
}

// testShardedQuiescedCrash cycles crash policies against a quiesced sharded
// set: every completed operation must survive shard-concurrent recovery.
func testShardedQuiescedCrash(t *testing.T, f Factory, k engine.Kind, shards int) {
	e, s, c := f.sharded(k, shards)
	rng := rand.New(rand.NewSource(5))
	model := make(map[uint64]uint64)
	for i := 0; i < 1200; i++ {
		key := uint64(rng.Intn(400) + 1)
		if rng.Intn(3) > 0 {
			val := uint64(rng.Intn(1 << 30))
			if s.Insert(c, key, val) {
				model[key] = val
			}
		} else {
			s.Delete(c, key)
			delete(model, key)
		}
	}
	for _, policy := range []pmem.CrashPolicy{pmem.CrashDropAll, pmem.CrashKeepAll, pmem.CrashRandom} {
		e.Crash(policy, rng)
		s.Recover(engine.RecoverOptions{})
		c = e.NewCtx()
		s = structures.NewSharded(e, c, f.New)
		for key := uint64(1); key <= 400; key++ {
			want, present := model[key]
			got, ok := s.Get(c, key)
			if ok != present || (ok && got != want) {
				t.Fatalf("policy %v: key %d = (%d,%v), want (%d,%v)",
					policy, key, got, ok, want, present)
			}
		}
		probe := uint64(1000 + rng.Intn(100))
		if !s.Insert(c, probe, 1) || !s.Contains(c, probe) || !s.Delete(c, probe) {
			t.Fatalf("policy %v: structure not operational after recovery", policy)
		}
	}
}

// shardedOps is the deterministic single-threaded sequence the media pin
// and determinism tests replay on every instance under comparison.
func shardedOps(s structures.Set, c *engine.Ctx) map[uint64]uint64 {
	rng := rand.New(rand.NewSource(41))
	model := make(map[uint64]uint64)
	for i := 0; i < 1500; i++ {
		key := uint64(rng.Intn(300) + 1)
		if rng.Intn(3) > 0 {
			val := uint64(rng.Intn(1 << 20))
			if s.Insert(c, key, val) {
				model[key] = val
			}
		} else {
			if s.Delete(c, key) {
				delete(model, key)
			}
		}
	}
	return model
}

// mediaHashes fingerprints every persistent device of an engine, in
// device order.
func mediaHashes(e engine.Lifecycle) []uint64 {
	var out []uint64
	for _, d := range e.PersistentDevices() {
		out = append(out, d.MediaHash())
	}
	return out
}

// testSingleShardMediaPin pins the regression that a 1-shard engine is the
// plain engine: the identical op sequence leaves every persistent device
// byte-identical (by media fingerprint), before and after recovery.
func testSingleShardMediaPin(t *testing.T, f Factory, k engine.Kind) {
	e0 := f.engine(k)
	c0 := e0.NewCtx()
	s0 := f.New(e0, c0)
	model := shardedOps(s0, c0)

	e1, s1, c1 := f.sharded(k, 1)
	shardedOps(s1, c1)

	e0.Drain(c0)
	e1.Drain(c1)
	e0.Crash(pmem.CrashKeepAll, rand.New(rand.NewSource(3)))
	e1.Crash(pmem.CrashKeepAll, rand.New(rand.NewSource(3)))

	h0, h1 := mediaHashes(e0), mediaHashes(e1)
	if len(h0) != len(h1) {
		t.Fatalf("device counts differ: unsharded %d, 1-shard %d", len(h0), len(h1))
	}
	for i := range h0 {
		if h0[i] != h1[i] {
			t.Fatalf("device %d media diverged before recovery: unsharded %#x, 1-shard %#x", i, h0[i], h1[i])
		}
	}

	e0.Recover(s0.Tracer())
	s1.Recover(engine.RecoverOptions{})
	h0, h1 = mediaHashes(e0), mediaHashes(e1)
	for i := range h0 {
		if h0[i] != h1[i] {
			t.Fatalf("device %d media diverged after recovery: unsharded %#x, 1-shard %#x", i, h0[i], h1[i])
		}
	}

	// And the recovered contents match the model on both.
	c0, c1 = e0.NewCtx(), e1.NewCtx()
	s0 = f.New(e0, c0)
	s1r := structures.NewSharded(e1, c1, f.New)
	for key := uint64(1); key <= 300; key++ {
		want, present := model[key]
		if v, ok := s0.Get(c0, key); ok != present || (ok && v != want) {
			t.Fatalf("unsharded key %d = (%d,%v), want (%d,%v)", key, v, ok, want, present)
		}
		if v, ok := s1r.Get(c1, key); ok != present || (ok && v != want) {
			t.Fatalf("1-shard key %d = (%d,%v), want (%d,%v)", key, v, ok, want, present)
		}
	}
}

// testShardedRecoveryDeterminism checks that recovered media is
// byte-identical regardless of the per-shard recovery worker count, at
// every shard count, and that the recovered logical contents agree across
// shard counts (shards partition media differently, so only contents — not
// bytes — are comparable across counts).
func testShardedRecoveryDeterminism(t *testing.T, f Factory, k engine.Kind) {
	contents := make(map[int]map[uint64]uint64)
	var model map[uint64]uint64
	for _, shards := range []int{1, 2, 4} {
		var hashes [][]uint64
		for _, par := range []int{1, 4} {
			e, s, c := f.sharded(k, shards)
			model = shardedOps(s, c)
			e.Drain(c)
			e.Crash(pmem.CrashDropAll, rand.New(rand.NewSource(7)))
			s.Recover(engine.RecoverOptions{Parallelism: par})
			hashes = append(hashes, mediaHashes(e))

			c2 := e.NewCtx()
			s2 := structures.NewSharded(e, c2, f.New)
			got := make(map[uint64]uint64)
			for key := uint64(1); key <= 300; key++ {
				if v, ok := s2.Get(c2, key); ok {
					got[key] = v
				}
			}
			if len(got) != len(model) {
				t.Fatalf("shards=%d par=%d: recovered %d keys, want %d", shards, par, len(got), len(model))
			}
			for key, v := range model {
				if got[key] != v {
					t.Fatalf("shards=%d par=%d: key %d = %d, want %d", shards, par, key, got[key], v)
				}
			}
			if contents[shards] == nil {
				contents[shards] = got
			}
		}
		for i := range hashes[0] {
			if hashes[0][i] != hashes[1][i] {
				t.Fatalf("shards=%d: device %d media differs across recovery worker counts: %#x vs %#x",
					shards, i, hashes[0][i], hashes[1][i])
			}
		}
	}
	for _, shards := range []int{2, 4} {
		if len(contents[shards]) != len(contents[1]) {
			t.Fatalf("shards=%d recovered %d keys, 1 shard recovered %d", shards, len(contents[shards]), len(contents[1]))
		}
		for key, v := range contents[1] {
			if contents[shards][key] != v {
				t.Fatalf("shards=%d: key %d = %d, 1 shard recovered %d", shards, key, contents[shards][key], v)
			}
		}
	}
}
