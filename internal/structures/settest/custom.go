// Custom-lifecycle conformance battery: the hand-made map adapter
// (internal/cmapkv) manages its own devices instead of living on an engine,
// so it cannot go through Run's engine matrix. RunKV gives it the same
// treatment — sequential semantics against a model, concurrent stress, and
// the quiesced crash+recover cycle over every crash policy — through a small
// closure-based target, mirroring crashtest.CustomTarget.
package settest

import (
	"math/rand"
	"sync"
	"testing"

	"mirror/internal/pmem"
)

// KVTarget adapts a persistent key-value map with upsert Put semantics.
// The target owns one long-lived instance: Crash and Recover operate on it
// in place, and NewWorker must hand out fresh per-thread closures that are
// valid for the instance's current incarnation (stale workers from before
// a crash must not be reused).
type KVTarget struct {
	// NewWorker returns per-thread operations. put upserts and reports
	// whether the key was newly inserted.
	NewWorker func() (put func(k, v uint64) bool, del func(k uint64) bool, get func(k uint64) (uint64, bool))
	Len       func() int
	Crash     func(policy pmem.CrashPolicy, rng *rand.Rand)
	Recover   func()
}

// RunKV executes the map conformance battery. mk builds a fresh target per
// subtest.
func RunKV(t *testing.T, mk func() KVTarget) {
	t.Run("Empty", func(t *testing.T) { testKVEmpty(t, mk()) })
	t.Run("UpsertSemantics", func(t *testing.T) { testKVUpsert(t, mk()) })
	t.Run("RandomBatch", func(t *testing.T) { testKVRandomBatch(t, mk()) })
	t.Run("ConcurrentDistinct", func(t *testing.T) { testKVConcurrentDistinct(t, mk()) })
	t.Run("QuiescedCrashRecovery", func(t *testing.T) { testKVQuiescedCrash(t, mk()) })
}

func testKVEmpty(t *testing.T, kv KVTarget) {
	put, del, get := kv.NewWorker()
	if _, ok := get(5); ok {
		t.Error("get on empty map succeeded")
	}
	if del(5) {
		t.Error("delete on empty map succeeded")
	}
	if kv.Len() != 0 {
		t.Errorf("empty map has Len %d", kv.Len())
	}
	if !put(5, 50) {
		t.Error("first put not reported as an insert")
	}
}

func testKVUpsert(t *testing.T, kv KVTarget) {
	put, del, get := kv.NewWorker()
	if !put(3, 1) {
		t.Fatal("first put not reported as an insert")
	}
	// Second put of the same key overwrites instead of failing — this is
	// the pmemkv semantics that distinguish Put from Set.Insert.
	if put(3, 2) {
		t.Error("overwriting put reported as an insert")
	}
	if v, ok := get(3); !ok || v != 2 {
		t.Errorf("get(3) = (%d,%v) after overwrite, want (2,true)", v, ok)
	}
	if !del(3) {
		t.Error("delete failed")
	}
	if del(3) {
		t.Error("double delete succeeded")
	}
	if !put(3, 7) {
		t.Error("re-put after delete not reported as an insert")
	}
	if v, ok := get(3); !ok || v != 7 {
		t.Errorf("get(3) = (%d,%v) after re-put, want (7,true)", v, ok)
	}
	if kv.Len() != 1 {
		t.Errorf("Len = %d, want 1", kv.Len())
	}
}

func testKVRandomBatch(t *testing.T, kv KVTarget) {
	put, del, get := kv.NewWorker()
	rng := rand.New(rand.NewSource(823))
	model := make(map[uint64]uint64)
	for i := 0; i < 2000; i++ {
		key := uint64(rng.Intn(400) + 1)
		switch rng.Intn(3) {
		case 0:
			val := rng.Uint64()
			_, present := model[key]
			if inserted := put(key, val); inserted == present {
				t.Fatalf("op %d: put(%d) inserted=%v with present=%v", i, key, inserted, present)
			}
			model[key] = val
		case 1:
			_, present := model[key]
			if got := del(key); got != present {
				t.Fatalf("op %d: delete(%d) = %v, want %v", i, key, got, present)
			}
			delete(model, key)
		default:
			want, present := model[key]
			got, ok := get(key)
			if ok != present || (ok && got != want) {
				t.Fatalf("op %d: get(%d) = (%d,%v), want (%d,%v)", i, key, got, ok, want, present)
			}
		}
	}
	if kv.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", kv.Len(), len(model))
	}
}

func testKVConcurrentDistinct(t *testing.T, kv KVTarget) {
	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			put, del, _ := kv.NewWorker()
			base := uint64(w*perWorker + 1)
			for i := uint64(0); i < perWorker; i++ {
				if !put(base+i, base+i) {
					t.Errorf("worker %d: put %d not an insert", w, base+i)
					return
				}
			}
			// Overwrite the whole range, then delete the even keys.
			for i := uint64(0); i < perWorker; i++ {
				if put(base+i, 2*(base+i)) {
					t.Errorf("worker %d: overwrite %d reported as insert", w, base+i)
					return
				}
			}
			for i := uint64(0); i < perWorker; i++ {
				if (base+i)%2 == 0 && !del(base+i) {
					t.Errorf("worker %d: delete %d failed", w, base+i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	_, _, get := kv.NewWorker()
	for key := uint64(1); key <= workers*perWorker; key++ {
		v, ok := get(key)
		if want := key%2 == 1; ok != want {
			t.Fatalf("key %d: present=%v, want %v", key, ok, want)
		}
		if ok && v != 2*key {
			t.Fatalf("key %d = %d, want overwritten value %d", key, v, 2*key)
		}
	}
}

func testKVQuiescedCrash(t *testing.T, kv KVTarget) {
	put, del, _ := kv.NewWorker()
	rng := rand.New(rand.NewSource(6))
	model := make(map[uint64]uint64)
	for i := 0; i < 1500; i++ {
		key := uint64(rng.Intn(300) + 1)
		if rng.Intn(3) > 0 {
			val := uint64(rng.Intn(1 << 30))
			put(key, val)
			model[key] = val
		} else {
			del(key)
			delete(model, key)
		}
	}
	for _, policy := range []pmem.CrashPolicy{pmem.CrashDropAll, pmem.CrashKeepAll, pmem.CrashRandom} {
		kv.Crash(policy, rng)
		kv.Recover()
		// Fresh workers: pre-crash contexts are tied to the old incarnation.
		put, del, get := kv.NewWorker()
		for key := uint64(1); key <= 300; key++ {
			want, present := model[key]
			got, ok := get(key)
			if ok != present || (ok && got != want) {
				t.Fatalf("policy %v: key %d = (%d,%v), want (%d,%v)",
					policy, key, got, ok, want, present)
			}
		}
		if kv.Len() != len(model) {
			t.Fatalf("policy %v: Len = %d, model has %d", policy, kv.Len(), len(model))
		}
		// The map must remain fully operational after recovery.
		probe := uint64(1000 + rng.Intn(100))
		if !put(probe, 1) {
			t.Fatalf("policy %v: probe put failed after recovery", policy)
		}
		if v, ok := get(probe); !ok || v != 1 {
			t.Fatalf("policy %v: probe get = (%d,%v) after recovery", policy, v, ok)
		}
		if !del(probe) {
			t.Fatalf("policy %v: probe delete failed after recovery", policy)
		}
	}
}
