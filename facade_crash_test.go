package mirror

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"mirror/internal/pmem"
)

// TestFacadeUnderCrashAdversary drives all four sets and the queue through
// one Runtime — the public API, with the handles created before the first
// crash reused across every later one — under the crash adversary the
// internals are tested with: concurrent writers cut mid-operation by a
// freeze at a random moment, a random eviction policy, recovery, and a
// per-key single-writer oracle (examples/crashrecovery, as a test). The
// sets are checked for lost completed operations, phantom keys and torn
// values; the queue for lost, duplicated, reordered and phantom elements.
func TestFacadeUnderCrashAdversary(t *testing.T) {
	const (
		cycles  = 6
		writers = 2 // per structure
		keysPer = 48
	)
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	rt := New(Options{Words: 1 << 22})
	ctx := rt.NewCtx()
	sets := []Set{rt.NewList(ctx), rt.NewHashTable(ctx, 64), rt.NewSkipList(ctx), rt.NewBST(ctx)}
	q := rt.NewQueue(ctx)
	rng := rand.New(rand.NewSource(20210620))

	// guard runs one worker body, absorbing the freeze's unwinding panic.
	var wg sync.WaitGroup
	guard := func(body func(c *Ctx)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrFrozen {
					panic(r)
				}
			}()
			body(rt.NewCtx())
		}()
	}

	// Durable truth per set: key -> present. Single writer per key, so the
	// maps are written without contention (one mutex guards the map itself).
	var mu sync.Mutex
	expected := make([]map[uint64]bool, len(sets))
	for i := range expected {
		expected[i] = make(map[uint64]bool)
	}
	// Queue truth: producer p enqueues p<<32|n for ascending n; acked[p] is
	// the last n whose Enqueue returned.
	acked := make([]uint64, writers)

	for cycle := 1; cycle <= cycles; cycle++ {
		inflight := make([][]uint64, len(sets)) // [set][writer] key of the cut op, 0 = none
		for si, set := range sets {
			inflight[si] = make([]uint64, writers)
			for w := 0; w < writers; w++ {
				si, set, w, seed := si, set, w, rng.Int63()
				guard(func(c *Ctx) {
					lrng := rand.New(rand.NewSource(seed))
					base := uint64(w*keysPer + 1)
					for i := 0; i < 50000; i++ {
						key := base + uint64(lrng.Intn(keysPer))
						ins := lrng.Intn(2) == 0
						inflight[si][w] = key
						var done bool
						if ins {
							done = set.Insert(c, key, key)
						} else {
							done = set.Delete(c, key)
						}
						if done {
							mu.Lock()
							expected[si][key] = ins
							mu.Unlock()
						}
						inflight[si][w] = 0
					}
				})
			}
		}
		start := make([]uint64, writers)
		for p := 0; p < writers; p++ {
			p := p
			acked[p]++ // skip the previous cycle's possibly-enqueued in-flight value
			start[p] = acked[p] + 1
			guard(func(c *Ctx) {
				for i := 0; i < 50000; i++ {
					q.Enqueue(c, uint64(p)<<32|(acked[p]+1))
					acked[p]++
				}
			})
		}
		var consumed []uint64
		dequeuing := false
		guard(func(c *Ctx) {
			for i := 0; i < 50000; i++ {
				dequeuing = true
				v, ok := q.Dequeue(c)
				dequeuing = false
				if ok {
					consumed = append(consumed, v)
				}
			}
		})

		time.Sleep(time.Duration(rng.Intn(2500)) * time.Microsecond)
		rt.Freeze()
		wg.Wait()
		policy := CrashPolicy(rng.Intn(3))
		rt.Crash(policy, rng.Int63())
		rt.Recover()
		ctx = rt.NewCtx()

		for si, set := range sets {
			cut := make(map[uint64]bool)
			for _, k := range inflight[si] {
				cut[k] = true
			}
			for key := uint64(1); key <= writers*keysPer; key++ {
				got := set.Contains(ctx, key)
				want, known := expected[si][key]
				switch {
				case cut[key]:
					expected[si][key] = got // either fate is legal: adopt it
				case known && got != want:
					t.Errorf("cycle %d policy %d %s: key %d present=%v, want %v (completed operation lost)",
						cycle, policy, set.Name(), key, got, want)
				case !known && got:
					t.Errorf("cycle %d policy %d %s: phantom key %d", cycle, policy, set.Name(), key)
				}
				if got {
					if v, ok := set.Get(ctx, key); !ok || v != key {
						t.Errorf("cycle %d policy %d %s: key %d holds (%d,%v) after recovery",
							cycle, policy, set.Name(), key, v, ok)
					}
				}
			}
			probe := uint64(writers*keysPer + 100)
			if !set.Insert(ctx, probe, 1) || !set.Contains(ctx, probe) || !set.Delete(ctx, probe) {
				t.Errorf("cycle %d %s: not operational after recovery", cycle, set.Name())
			}
		}
		if err := checkQueue(consumed, q.Drain(ctx), start, acked, dequeuing); err != nil {
			t.Errorf("cycle %d policy %d queue: %v", cycle, policy, err)
		}
		if t.Failed() {
			return
		}
	}
}

// checkQueue verifies one crash cycle of the queue, which started empty:
// consumed holds the values of completed dequeues in order, remaining the
// recovered queue's contents. Producer p's values are p<<32|n; this cycle it
// enqueued n = start[p], start[p]+1, ... and acked[p] is the last n whose
// Enqueue returned, so acked[p]+1 may be in flight. cutDequeue says the
// consumer was cut mid-Dequeue, which may have removed one element without
// reporting it.
func checkQueue(consumed, remaining []uint64, start, acked []uint64, cutDequeue bool) error {
	seen := make(map[uint64]bool)
	last := make([]uint64, len(acked)) // last n seen per producer, in queue order
	have := make([]uint64, len(acked)) // acknowledged values seen per producer
	for i, v := range append(append([]uint64(nil), consumed...), remaining...) {
		p, n := int(v>>32), v&(1<<32-1)
		where := "consumed"
		if i >= len(consumed) {
			where = "remaining"
		}
		switch {
		case p >= len(acked) || n < start[p]:
			return fmt.Errorf("%s value %#x was not enqueued this cycle", where, v)
		case seen[v]:
			return fmt.Errorf("value %#x appears twice (a completed dequeue resurfaced, or a duplicate)", v)
		case n > acked[p]+1:
			return fmt.Errorf("phantom: producer %d value %d beyond its in-flight enqueue %d", p, n, acked[p]+1)
		case n <= last[p]:
			return fmt.Errorf("producer %d out of FIFO order: %d after %d", p, n, last[p])
		}
		seen[v] = true
		last[p] = n
		if n <= acked[p] {
			have[p]++
		}
	}
	missing := uint64(0)
	for p := range acked {
		missing += acked[p] + 1 - start[p] - have[p]
	}
	if missing > 1 || (missing == 1 && !cutDequeue) {
		return fmt.Errorf("%d acknowledged enqueues lost (cut dequeue: %v)", missing, cutDequeue)
	}
	return nil
}
