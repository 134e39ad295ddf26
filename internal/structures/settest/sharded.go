package settest

// Sharded-recovery battery: the suite's batch, concurrent and crash checks
// with every recovery run through the §4.3.3 pipeline at N workers — one
// sequential trace on the caller whose batches of spans up to N-1 sink
// goroutines copy and fold into allocator scans while it runs. One worker
// is the sequential recovery. Two properties are specific to the
// parallel pass: a sink per batch recovers to the byte-identical device,
// and neither the recovered contents nor the media the next operations
// write depend on the worker count.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures"
)

// recoverShards recovers e's crashed image of s through the recovery
// pipeline at the given number of workers.
func recoverShards(e engine.Engine, s structures.Set, shards int) {
	e.RecoverWith(s.Tracer(), engine.RecoverOptions{Parallelism: shards})
}

// RunSharded executes the sharded-recovery battery for every engine kind.
// The kinds share no state, so their subtests run in parallel.
func RunSharded(t *testing.T, f Factory) {
	for _, k := range engine.Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for _, shards := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("Shards%d", shards), func(t *testing.T) {
					t.Run("RandomBatch", func(t *testing.T) { testRandomBatch(t, f, k, shards) })
					t.Run("ConcurrentDistinct", func(t *testing.T) { testConcurrentDistinct(t, f, k, shards) })
					if k.Durable() {
						t.Run("QuiescedCrashRecovery", func(t *testing.T) { testQuiescedCrash(t, f, k, shards) })
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

// shardedOps is a deterministic single-threaded op sequence; it returns the
// resulting contents.
func shardedOps(s structures.Set, c *engine.Ctx, seed int64) map[uint64]uint64 {
	rng := rand.New(rand.NewSource(seed))
	model := make(map[uint64]uint64)
	for i := 0; i < 1500; i++ {
		key := uint64(rng.Intn(300) + 1)
		if rng.Intn(3) > 0 {
			val := uint64(rng.Intn(1 << 20))
			if s.Insert(c, key, val) {
				model[key] = val
			}
		} else if s.Delete(c, key) {
			delete(model, key)
		}
	}
	return model
}

// recoveredMedia runs shardedOps on a fresh engine, crashes it, lets
// recover rebuild it, checks the recovered contents against the model, and
// returns the persistent media fingerprint after a second op sequence has
// allocated from the rebuilt allocator.
func recoveredMedia(t *testing.T, f Factory, k engine.Kind, recover func(e engine.Engine, s structures.Set)) string {
	t.Helper()
	e := f.engine(k)
	c := e.NewCtx()
	s := f.New(e, c)
	model := shardedOps(s, c, 41)
	e.Drain(c)
	e.Crash(pmem.CrashDropAll, rand.New(rand.NewSource(7)))
	recover(e, s)

	c = e.NewCtx()
	s = f.New(e, c)
	got := make(map[uint64]uint64)
	for key := uint64(1); key <= 300; key++ {
		if v, ok := s.Get(c, key); ok {
			got[key] = v
		}
	}
	if !reflect.DeepEqual(got, model) {
		t.Fatalf("recovered %d keys, want %d (or different values)", len(got), len(model))
	}
	shardedOps(s, c, 43)
	e.Drain(c)
	var hashes []uint64
	for _, d := range engine.PersistentDevices(e) {
		hashes = append(hashes, d.MediaHash())
	}
	return fmt.Sprintf("%#x", hashes)
}

// testSingleShardMediaPin pins the finest deal: with more workers than
// batches every batch of the stream starts a sink of its own, and the
// device must still end byte-identical to the sequential Recover — the
// copy on sink goroutines and a merge of as many scans as there were
// sinks.
func testSingleShardMediaPin(t *testing.T, f Factory, k engine.Kind) {
	plain := recoveredMedia(t, f, k, func(e engine.Engine, s structures.Set) { e.Recover(s.Tracer()) })
	finest := recoveredMedia(t, f, k, func(e engine.Engine, s structures.Set) { recoverShards(e, s, 1<<12) })
	if plain != finest {
		t.Fatalf("media diverged: sequential %s, a sink per batch %s", plain, finest)
	}
}

// testShardedRecoveryDeterminism recovers the same crash image at 1, 2 and
// 4 shards, twice each: the media the same post-recovery op sequence writes
// must be byte-identical across repeats and worker counts — the streamed
// rebuild hands out the same free memory in the same order however the
// batches were dealt to the sinks.
func testShardedRecoveryDeterminism(t *testing.T, f Factory, k engine.Kind) {
	want := recoveredMedia(t, f, k, func(e engine.Engine, s structures.Set) { recoverShards(e, s, 1) })
	for _, shards := range []int{1, 2, 4} {
		for rep := 0; rep < 2; rep++ {
			got := recoveredMedia(t, f, k, func(e engine.Engine, s structures.Set) { recoverShards(e, s, shards) })
			if got != want {
				t.Fatalf("shards=%d rep=%d: post-recovery media %s, one shard wrote %s", shards, rep, got, want)
			}
		}
	}
}
