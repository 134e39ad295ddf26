package zuriel

import (
	"math/rand"
	"sync"
	"testing"

	"mirror/internal/pmem"
)

// factories enumerates the four variants under test.
func factories() map[string]func() Set {
	return map[string]func() Set{
		"LinkFree-list": func() Set { return NewLinkFree(Config{Words: 1 << 20, Track: true}) },
		"LinkFree-hash": func() Set { return NewLinkFree(Config{Words: 1 << 20, Buckets: 64, Track: true}) },
		"SOFT-list":     func() Set { return NewSoft(Config{Words: 1 << 20, Track: true}) },
		"SOFT-hash":     func() Set { return NewSoft(Config{Words: 1 << 20, Buckets: 64, Track: true}) },
	}
}

func forEach(t *testing.T, f func(t *testing.T, s Set)) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) { f(t, mk()) })
	}
}

func TestMetaChecksum(t *testing.T) {
	m := metaFor(stateInserted, 10, 20)
	if got := metaState(m, 10, 20); got != stateInserted {
		t.Errorf("metaState = %d, want inserted", got)
	}
	if got := metaState(m, 11, 20); got != stateInvalid {
		t.Errorf("torn key accepted: %d", got)
	}
	if got := metaState(m, 10, 21); got != stateInvalid {
		t.Errorf("torn value accepted: %d", got)
	}
	m2 := m&^stateMask | stateDeleted
	if got := metaState(m2, 10, 20); got != stateDeleted {
		t.Errorf("deleted state = %d", got)
	}
	if got := metaState(0, 0, 0); got != stateInvalid {
		// all-zero memory must read as invalid, not as key 0 inserted
		t.Errorf("zero word state = %d, want invalid", got)
	}
}

func TestBasicSemantics(t *testing.T) {
	forEach(t, func(t *testing.T, s Set) {
		c := s.NewCtx()
		if s.Contains(c, 5) || s.Delete(c, 5) {
			t.Error("empty set misbehaves")
		}
		if !s.Insert(c, 5, 50) {
			t.Fatal("insert failed")
		}
		if s.Insert(c, 5, 51) {
			t.Error("duplicate insert succeeded")
		}
		if v, ok := s.Get(c, 5); !ok || v != 50 {
			t.Errorf("Get = (%d,%v)", v, ok)
		}
		if !s.Delete(c, 5) || s.Contains(c, 5) || s.Delete(c, 5) {
			t.Error("delete semantics broken")
		}
		if !s.Insert(c, 5, 52) {
			t.Error("re-insert failed")
		}
	})
}

func TestBatchRandomAgainstModel(t *testing.T) {
	forEach(t, func(t *testing.T, s Set) {
		c := s.NewCtx()
		rng := rand.New(rand.NewSource(11))
		model := make(map[uint64]uint64)
		for i := 0; i < 3000; i++ {
			key := uint64(rng.Intn(300) + 1)
			switch rng.Intn(3) {
			case 0:
				val := rng.Uint64() >> 1
				_, present := model[key]
				if got := s.Insert(c, key, val); got == present {
					t.Fatalf("op %d: Insert(%d) = %v, present=%v", i, key, got, present)
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
	})
}

func TestConcurrentDistinctRanges(t *testing.T) {
	forEach(t, func(t *testing.T, s Set) {
		const workers = 8
		const per = 300
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := s.NewCtx()
				base := uint64(w*per + 1)
				for i := uint64(0); i < per; i++ {
					if !s.Insert(c, base+i, base+i) {
						t.Errorf("insert %d failed", base+i)
						return
					}
				}
				for i := uint64(0); i < per; i += 2 {
					if !s.Delete(c, base+i) {
						t.Errorf("delete %d failed", base+i)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		c := s.NewCtx()
		for key := uint64(1); key <= workers*per; key++ {
			want := (key-1)%2 == 1
			if got := s.Contains(c, key); got != want {
				t.Fatalf("key %d: %v, want %v", key, got, want)
			}
		}
	})
}

func TestUpdatesAreSingleFence(t *testing.T) {
	// The headline property of the hand-made sets: one flush+fence per
	// update, none per uncontended lookup.
	s := NewLinkFree(Config{Words: 1 << 20, Track: true})
	c := s.NewCtx()
	f0, n0 := s.Counters()
	for k := uint64(1); k <= 100; k++ {
		s.Insert(c, k, k)
	}
	f1, n1 := s.Counters()
	if f1-f0 != 100 || n1-n0 != 100 {
		t.Errorf("100 inserts: %d flushes, %d fences; want 100 each", f1-f0, n1-n0)
	}
	for k := uint64(1); k <= 100; k++ {
		s.Contains(c, k)
	}
	f2, n2 := s.Counters()
	if f2 != f1 || n2 != n1 {
		t.Errorf("lookups issued %d flushes, %d fences; want 0", f2-f1, n2-n1)
	}
	for k := uint64(1); k <= 100; k++ {
		s.Delete(c, k)
	}
	f3, n3 := s.Counters()
	if f3-f2 != 100 || n3-n2 != 100 {
		t.Errorf("100 deletes: %d flushes, %d fences; want 100 each", f3-f2, n3-n2)
	}
}

func TestQuiescedCrashRecovery(t *testing.T) {
	forEach(t, func(t *testing.T, s Set) {
		c := s.NewCtx()
		rng := rand.New(rand.NewSource(23))
		model := make(map[uint64]uint64)
		for i := 0; i < 2000; i++ {
			key := uint64(rng.Intn(250) + 1)
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
			s.Crash(policy, rng)
			s.Recover()
			c = s.NewCtx()
			for key := uint64(1); key <= 250; key++ {
				want, present := model[key]
				got, ok := s.Get(c, key)
				if ok != present || (ok && got != want) {
					t.Fatalf("policy %v: key %d = (%d,%v), want (%d,%v)",
						policy, key, got, ok, want, present)
				}
			}
			if !s.Insert(c, 9999, 1) || !s.Delete(c, 9999) {
				t.Fatal("set not operational after recovery")
			}
		}
	})
}

func TestRecoveryNoPhantomAfterReuse(t *testing.T) {
	// Insert, delete, crash+recover twice: stale valid-looking nodes
	// from the first life must not resurrect deleted keys.
	forEach(t, func(t *testing.T, s Set) {
		rng := rand.New(rand.NewSource(31))
		c := s.NewCtx()
		for k := uint64(1); k <= 200; k++ {
			s.Insert(c, k, k)
		}
		s.Crash(pmem.CrashKeepAll, rng)
		s.Recover()
		c = s.NewCtx()
		for k := uint64(1); k <= 200; k += 2 {
			if !s.Delete(c, k) {
				t.Fatalf("post-recovery delete %d failed", k)
			}
		}
		s.Crash(pmem.CrashKeepAll, rng)
		s.Recover()
		c = s.NewCtx()
		for k := uint64(1); k <= 200; k++ {
			want := k%2 == 0
			if got := s.Contains(c, k); got != want {
				t.Fatalf("key %d after double recovery: %v, want %v", k, got, want)
			}
		}
	})
}

func TestCrashMidWorkloadSingleWriterPerKey(t *testing.T) {
	forEach(t, func(t *testing.T, s Set) {
		rng := rand.New(rand.NewSource(101))
		const workers = 4
		const keysPer = 32
		type rec struct {
			completed map[uint64]bool // key -> present after last completed op
			inflight  uint64          // key with an op possibly cut by the crash
		}
		recs := make([]rec, workers)
		var wg sync.WaitGroup
		// Freeze mid-run from a controller goroutine.
		go func() {
			for i := 0; i < 50000; i++ {
			}
			s.Freeze()
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil && r != pmem.ErrFrozen {
						panic(r)
					}
				}()
				c := s.NewCtx()
				lrng := rand.New(rand.NewSource(int64(w)))
				recs[w].completed = make(map[uint64]bool)
				base := uint64(w*keysPer + 1)
				for i := 0; i < 100000; i++ {
					key := base + uint64(lrng.Intn(keysPer))
					recs[w].inflight = key
					if lrng.Intn(2) == 0 {
						if s.Insert(c, key, key) {
							recs[w].completed[key] = true
						}
					} else {
						if s.Delete(c, key) {
							recs[w].completed[key] = false
						}
					}
					recs[w].inflight = 0
				}
			}(w)
		}
		wg.Wait()
		s.Crash(pmem.CrashRandom, rng)
		s.Recover()
		c := s.NewCtx()
		for w := 0; w < workers; w++ {
			for key, present := range recs[w].completed {
				if key == recs[w].inflight {
					continue // the cut operation may go either way
				}
				if got := s.Contains(c, key); got != present {
					t.Fatalf("worker %d key %d: contains=%v, want %v (durable linearizability)",
						w, key, got, present)
				}
			}
		}
	})
}

func TestParallelRecoveryMatchesSequential(t *testing.T) {
	forEach(t, func(t *testing.T, s Set) {
		c := s.NewCtx()
		rng := rand.New(rand.NewSource(41))
		model := make(map[uint64]uint64)
		for i := 0; i < 2000; i++ {
			key := uint64(rng.Intn(250) + 1)
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
		// Alternate sequential and parallel recoveries over repeated
		// crashes of the evolving image, keeping every unflushed line or
		// dropping all of them; each must reproduce the model.
		for round, workers := range []int{1, 4, 2, 8} {
			s.Crash([]pmem.CrashPolicy{pmem.CrashKeepAll, pmem.CrashDropAll}[round%2], rng)
			s.RecoverParallel(workers)
			c = s.NewCtx()
			for key := uint64(1); key <= 250; key++ {
				want, present := model[key]
				got, ok := s.Get(c, key)
				if ok != present || (ok && got != want) {
					t.Fatalf("round %d workers %d: key %d = (%d,%v), want (%d,%v)",
						round, workers, key, got, ok, want, present)
				}
			}
			if !s.Insert(c, 9999, 1) || !s.Delete(c, 9999) {
				t.Fatalf("round %d: set not operational after parallel recovery", round)
			}
		}
	})
}
