// Package settest is a reusable conformance suite for structures.Set
// implementations. Each structure's test package runs the same battery —
// sequential semantics, concurrent stress, and quiesced crash-recovery —
// under every persistence engine, which is what makes the "one
// implementation, six engines" claim testable.
package settest

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures"
)

// Factory builds (or re-attaches, after recovery) the structure under test.
type Factory struct {
	// New constructs the set on e. Called again after Recover to
	// re-attach; it must then adopt the recovered state.
	New func(e engine.Engine, c *engine.Ctx) structures.Set
	// Words overrides the device capacity (0 = default).
	Words int
}

func (f Factory) engine(k engine.Kind) engine.Engine {
	words := f.Words
	if words == 0 {
		words = 1 << 20
	}
	return engine.New(engine.Config{Kind: k, Words: words, Track: true})
}

// Run executes the full suite for every engine kind. The kinds share no
// state, so their subtests run in parallel.
func Run(t *testing.T, f Factory) {
	for _, k := range engine.Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			t.Run("Empty", func(t *testing.T) { testEmpty(t, f, k) })
			t.Run("Basic", func(t *testing.T) { testBasic(t, f, k) })
			t.Run("Duplicates", func(t *testing.T) { testDuplicates(t, f, k) })
			t.Run("Values", func(t *testing.T) { testValues(t, f, k) })
			t.Run("RandomBatch", func(t *testing.T) { testRandomBatch(t, f, k, 0) })
			t.Run("ConcurrentDistinct", func(t *testing.T) { testConcurrentDistinct(t, f, k, 0) })
			t.Run("ConcurrentMixed", func(t *testing.T) { testConcurrentMixed(t, f, k) })
			if k.Durable() {
				t.Run("QuiescedCrashRecovery", func(t *testing.T) { testQuiescedCrash(t, f, k, 1) })
				t.Run("ParallelRecoveryEquivalence", func(t *testing.T) { testParallelRecovery(t, f, k) })
			}
		})
	}
}

func testEmpty(t *testing.T, f Factory, k engine.Kind) {
	e := f.engine(k)
	c := e.NewCtx()
	s := f.New(e, c)
	if s.Contains(c, 5) {
		t.Error("empty set contains 5")
	}
	if s.Delete(c, 5) {
		t.Error("delete on empty set succeeded")
	}
	if _, ok := s.Get(c, 5); ok {
		t.Error("get on empty set succeeded")
	}
}

func testBasic(t *testing.T, f Factory, k engine.Kind) {
	e := f.engine(k)
	c := e.NewCtx()
	s := f.New(e, c)
	if !s.Insert(c, 10, 100) {
		t.Fatal("insert 10 failed")
	}
	if !s.Insert(c, 5, 50) || !s.Insert(c, 15, 150) {
		t.Fatal("inserts failed")
	}
	for _, key := range []uint64{5, 10, 15} {
		if !s.Contains(c, key) {
			t.Errorf("missing key %d", key)
		}
	}
	if s.Contains(c, 7) {
		t.Error("phantom key 7")
	}
	if !s.Delete(c, 10) {
		t.Error("delete 10 failed")
	}
	if s.Contains(c, 10) {
		t.Error("key 10 survived delete")
	}
	if s.Delete(c, 10) {
		t.Error("double delete succeeded")
	}
	if !s.Contains(c, 5) || !s.Contains(c, 15) {
		t.Error("neighbors disturbed by delete")
	}
	if !s.Insert(c, 10, 101) {
		t.Error("re-insert after delete failed")
	}
	if v, ok := s.Get(c, 10); !ok || v != 101 {
		t.Errorf("Get(10) = (%d,%v), want (101,true)", v, ok)
	}
}

func testDuplicates(t *testing.T, f Factory, k engine.Kind) {
	e := f.engine(k)
	c := e.NewCtx()
	s := f.New(e, c)
	if !s.Insert(c, 3, 1) {
		t.Fatal("first insert failed")
	}
	if s.Insert(c, 3, 2) {
		t.Error("duplicate insert succeeded")
	}
	if v, _ := s.Get(c, 3); v != 1 {
		t.Errorf("duplicate insert changed value to %d", v)
	}
}

func testValues(t *testing.T, f Factory, k engine.Kind) {
	e := f.engine(k)
	c := e.NewCtx()
	s := f.New(e, c)
	for i := uint64(1); i <= 64; i++ {
		s.Insert(c, i, i*i)
	}
	for i := uint64(1); i <= 64; i++ {
		if v, ok := s.Get(c, i); !ok || v != i*i {
			t.Errorf("Get(%d) = (%d,%v), want (%d,true)", i, v, ok, i*i)
		}
	}
}

// testRandomBatch model-checks a random single-threaded op sequence. With
// shards > 0 it crashes halfway and recovers at that shard count, so the
// second half allocates from the rebuilt allocator: a live object handed out
// again shows up as a model mismatch. Nothing survives on a non-durable
// engine, so there the model restarts empty.
func testRandomBatch(t *testing.T, f Factory, k engine.Kind, shards int) {
	e := f.engine(k)
	c := e.NewCtx()
	s := f.New(e, c)
	rng := rand.New(rand.NewSource(321))
	model := make(map[uint64]uint64)
	for i := 0; i < 2000; i++ {
		if i == 1000 && shards > 0 {
			e.Crash(pmem.CrashDropAll, rng)
			recoverShards(e, s, shards)
			c = e.NewCtx()
			s = f.New(e, c)
			if !k.Durable() {
				model = make(map[uint64]uint64)
			}
		}
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

// testConcurrentDistinct inserts disjoint key ranges from concurrent
// workers, then has them delete their even keys. With shards > 0 a crash
// and a recovery at that shard count come between the phases, and the
// workers also insert a few fresh keys each, allocating concurrently from
// the rebuilt allocator.
func testConcurrentDistinct(t *testing.T, f Factory, k engine.Kind, shards int) {
	e := f.engine(k)
	c0 := e.NewCtx()
	s := f.New(e, c0)
	const workers = 8
	const perWorker = 400
	const fresh = workers * perWorker
	newKeys := uint64(0) // fresh keys inserted per worker
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
	for key := uint64(1); key <= fresh; key++ {
		if !s.Contains(c0, key) {
			t.Fatalf("key %d missing after concurrent inserts", key)
		}
	}
	survived := true
	if shards > 0 {
		e.Crash(pmem.CrashDropAll, rand.New(rand.NewSource(17)))
		recoverShards(e, s, shards)
		c0 = e.NewCtx()
		s = f.New(e, c0)
		survived = k.Durable()
		newKeys = perWorker / 8
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := e.NewCtx()
			base := uint64(w*perWorker + 1)
			for i := uint64(0); i < perWorker; i++ {
				if (base+i)%2 == 0 {
					if got := s.Delete(c, base+i); got != survived {
						t.Errorf("worker %d: delete %d = %v, want %v", w, base+i, got, survived)
						return
					}
				}
				if i < newKeys && !s.Insert(c, fresh+base+i, fresh+base+i) {
					t.Errorf("worker %d: insert %d failed", w, fresh+base+i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for key := uint64(1); key <= fresh; key++ {
		want := survived && key%2 == 1
		if got := s.Contains(c0, key); got != want {
			t.Fatalf("key %d: contains = %v, want %v", key, got, want)
		}
	}
	for w := uint64(0); w < workers; w++ {
		for i := uint64(0); i < newKeys; i++ {
			if key := fresh + w*perWorker + 1 + i; !s.Contains(c0, key) {
				t.Fatalf("fresh key %d missing", key)
			}
		}
	}
}

// testConcurrentMixed uses one writer per key range plus roaming readers;
// because each key has a single writer, the final state is exactly
// determined by each writer's completed operations.
func testConcurrentMixed(t *testing.T, f Factory, k engine.Kind) {
	e := f.engine(k)
	c0 := e.NewCtx()
	s := f.New(e, c0)
	const writers = 4
	const keysPer = 64
	const opsPer = 1500
	finals := make([]map[uint64]bool, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := e.NewCtx()
			rng := rand.New(rand.NewSource(int64(w + 77)))
			final := make(map[uint64]bool)
			base := uint64(w*keysPer + 1)
			for i := 0; i < opsPer; i++ {
				key := base + uint64(rng.Intn(keysPer))
				if rng.Intn(2) == 0 {
					if s.Insert(c, key, key) {
						final[key] = true
					}
				} else {
					if s.Delete(c, key) {
						final[key] = false
					}
				}
			}
			finals[w] = final
		}(w)
	}
	// Roaming readers validate nothing panics and results are booleans in
	// range (no torn values): Get must return the key as value when ok.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func(seed int64) {
			defer rg.Done()
			c := e.NewCtx()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := uint64(rng.Intn(writers*keysPer) + 1)
				if v, ok := s.Get(c, key); ok && v != key {
					t.Errorf("Get(%d) returned torn value %d", key, v)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	for w := 0; w < writers; w++ {
		for key, present := range finals[w] {
			if got := s.Contains(c0, key); got != present {
				t.Fatalf("key %d: contains = %v, want %v (single-writer model)", key, got, present)
			}
		}
	}
}

// span is one object a recovery's trace visited, with its size.
type span struct {
	ref    engine.Ref
	fields int
}

// visitsOnce wraps tr, the tracer a recovery is handed, so that each trace
// records the objects it visits in *spans and reports an object visited
// twice in *twice. The trace runs inside the engine's recovery, so it only
// records: the caller fails the test once the recovery has returned.
func visitsOnce(tr engine.Tracer, spans *[]span, twice *[]engine.Ref) engine.Tracer {
	return func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int), relink func(engine.Ref, int, uint64)) {
		*spans = (*spans)[:0]
		seen := make(map[engine.Ref]bool)
		tr(read, func(ref engine.Ref, fields, rebuilt int) {
			if seen[ref] {
				*twice = append(*twice, ref)
			}
			seen[ref] = true
			*spans = append(*spans, span{ref, fields})
			visit(ref, fields, rebuilt)
		}, relink)
	}
}

// testParallelRecovery checks recovery with a parallel streamed pass against the
// sequential one on the same crash image: at Parallelism 1, 2 and 4 the
// recovery's trace visits no object twice, the contents recovered are
// identical and match the pre-crash model, and after each recovery the
// replica invariants hold on every object that trace visited.
func testParallelRecovery(t *testing.T, f Factory, k engine.Kind) {
	e := f.engine(k)
	c := e.NewCtx()
	s := f.New(e, c)
	rng := rand.New(rand.NewSource(9))
	model := fill(s, c, rng)
	var spans []span
	var twice []engine.Ref
	tracer := visitsOnce(s.Tracer(), &spans, &twice)
	e.Crash(pmem.CrashDropAll, rng)

	readAll := func() map[uint64]uint64 {
		c := e.NewCtx()
		s := f.New(e, c)
		out := make(map[uint64]uint64)
		for key := uint64(1); key <= 400; key++ {
			if v, ok := s.Get(c, key); ok {
				out[key] = v
			}
		}
		return out
	}
	var seq map[uint64]uint64
	for _, par := range []int{1, 2, 4} {
		if par > 1 {
			e.Crash(pmem.CrashDropAll, rng)
		}
		e.RecoverWith(tracer, engine.RecoverOptions{Parallelism: par})
		if len(twice) > 0 {
			t.Fatalf("par=%d: objects %v visited twice", par, twice)
		}
		if len(spans) == 0 {
			t.Fatalf("par=%d: the recovery traced nothing", par)
		}
		for _, sp := range spans {
			if msg := e.CheckInvariants(sp.ref, sp.fields); msg != "" {
				t.Fatalf("par=%d: %s", par, msg)
			}
		}
		got := readAll()
		if seq == nil {
			seq = got
		}
		if !reflect.DeepEqual(got, seq) {
			t.Fatalf("par=%d: recovered %d keys, sequential recovered %d (or different values)", par, len(got), len(seq))
		}
	}
	if !reflect.DeepEqual(seq, model) {
		t.Fatalf("recovered %d keys, want %d (or different values)", len(seq), len(model))
	}
}

// fill runs 1500 random inserts (two thirds) and deletes over keys 1..400
// and returns the resulting contents.
func fill(s structures.Set, c *engine.Ctx, rng *rand.Rand) map[uint64]uint64 {
	model := make(map[uint64]uint64)
	for i := 0; i < 1500; i++ {
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
	return model
}

// testQuiescedCrash cycles crash policies against a quiesced set recovered
// at the given shard count: every completed operation must survive.
func testQuiescedCrash(t *testing.T, f Factory, k engine.Kind, shards int) {
	e := f.engine(k)
	c := e.NewCtx()
	s := f.New(e, c)
	rng := rand.New(rand.NewSource(5))
	model := fill(s, c, rng)
	for _, policy := range []pmem.CrashPolicy{pmem.CrashDropAll, pmem.CrashKeepAll, pmem.CrashRandom} {
		e.Crash(policy, rng)
		recoverShards(e, s, shards)
		c = e.NewCtx()
		s = f.New(e, c)
		for key := uint64(1); key <= 400; key++ {
			want, present := model[key]
			got, ok := s.Get(c, key)
			if ok != present || (ok && got != want) {
				t.Fatalf("policy %v: key %d = (%d,%v), want (%d,%v)",
					policy, key, got, ok, want, present)
			}
		}
		// The structure must remain fully operational after recovery.
		probe := uint64(1000 + rng.Intn(100))
		if !s.Insert(c, probe, 1) || !s.Contains(c, probe) || !s.Delete(c, probe) {
			t.Fatalf("policy %v: structure not operational after recovery", policy)
		}
	}
}
