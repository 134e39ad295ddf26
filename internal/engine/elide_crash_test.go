package engine

import (
	"math/rand"
	"testing"

	"mirror/internal/pmem"
)

// rootTracer is the recovery tracer for workloads that live entirely in
// the persistent root object: nothing on the heap to visit.
func rootTracer(func(Ref, int) uint64, func(Ref, int, int), func(Ref, int, uint64)) {}

// fetchAdd adds delta to a cell by a CAS loop, as a structure counts, and
// returns the cell's previous value.
func fetchAdd(e Engine, c *Ctx, ref Ref, field int, delta uint64) uint64 {
	for {
		old := e.Load(c, ref, field)
		if e.CAS(c, ref, field, old, old+delta) {
			return old
		}
	}
}

// TestFetchAddStoreCrashSweepUnderFaults crashes fetch-and-add/Store workloads
// at seeded points under the eviction+drop adversary, on every durable
// engine with the elision layer in its default (on) state. The two
// counters live in root fields 0 and 1 — cells at offsets 8 and 10, the
// same cache line — so one field's flush+fence commits the other field's
// line too, so a fence of one field can carry the other's install to the
// media ahead of its own. After recovery the Lemma 5.3–5.5 replica invariants
// must hold and each counter must be the last completed value or the
// single in-flight one: elision may skip redundant instructions, but a
// completed operation's durability must never depend on an eviction.
func TestFetchAddStoreCrashSweepUnderFaults(t *testing.T) {
	for _, k := range Kinds() {
		if !k.Durable() {
			continue
		}
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(k) + 1))
			for round := 0; round < 25; round++ {
				e := New(Config{Kind: k, Words: 1 << 18, RootFields: 4, Track: true})
				for _, d := range PersistentDevices(e) {
					d.InjectFaults(pmem.NewFaultModel(int64(round+1), pmem.FaultSpec{Evict: true, Drop: true}))
				}
				c := e.NewCtx()
				var completedAdd, completedStore uint64
				e.FreezeAfter(int64(rng.Intn(400) + 1))
				func() {
					defer func() {
						if r := recover(); r != nil && r != pmem.ErrFrozen {
							panic(r)
						}
					}()
					for i := uint64(1); i <= 1000; i++ {
						e.OpBegin(c)
						fetchAdd(e, c, Root, 0, 1)
						e.OpEnd(c)
						completedAdd = i
						e.OpBegin(c)
						e.Store(c, Root, 1, i)
						e.OpEnd(c)
						completedStore = i
					}
				}()
				e.Freeze()
				e.Crash(pmem.CrashDropAll, rng)
				e.Recover(rootTracer)

				if msg := e.CheckInvariants(Root, 2); msg != "" {
					t.Fatalf("round %d: %s", round, msg)
				}
				c2 := e.NewCtx()
				e.OpBegin(c2)
				v0 := e.Load(c2, Root, 0)
				v1 := e.Load(c2, Root, 1)
				e.OpEnd(c2)
				if v0 != completedAdd && v0 != completedAdd+1 {
					t.Fatalf("round %d: fetch-and-add counter = %d, want %d or %d",
						round, v0, completedAdd, completedAdd+1)
				}
				if v1 != completedStore && v1 != completedStore+1 {
					t.Fatalf("round %d: Store counter = %d, want %d or %d",
						round, v1, completedStore, completedStore+1)
				}
			}
		})
	}
}

// TestElisionAblationEquivalence pins that flush elision leaves no
// completed write undurable: a quiesced workload of published nodes, root
// installs and fetch-and-adds, drained and then crashed under
// CrashDropAll, reads every completed value back after recovery. Every
// skipped flush or fence must have been proven redundant — a watermark
// that vouched for a line no fence committed (an EnsureDurable that
// answers "already durable" too early) loses the root installs here.
func TestElisionAblationEquivalence(t *testing.T) {
	for _, k := range Kinds() {
		if !k.Durable() {
			continue
		}
		t.Run(k.String(), func(t *testing.T) {
			const n = 50
			e := New(Config{Kind: k, Words: 1 << 18, RootFields: 4, Track: true})
			c := e.NewCtx()
			var sum uint64
			for i := uint64(1); i <= n; i++ {
				e.OpBegin(c)
				ref := e.Alloc(c, 2)
				e.StoreInit(c, ref, 0, 100+i)
				e.StoreInit(c, ref, 1, e.Load(c, Root, 0))
				e.Publish(c, ref)
				e.CAS(c, Root, 0, e.Load(c, Root, 0), ref)
				fetchAdd(e, c, Root, 1, i)
				sum += i
				e.OpEnd(c)
			}
			e.Drain(c)
			e.Crash(pmem.CrashDropAll, nil)
			e.Recover(chainTracer(e))

			c2 := e.NewCtx()
			e.OpBegin(c2)
			defer e.OpEnd(c2)
			if got := e.Load(c2, Root, 1); got != sum {
				t.Errorf("recovered counter %d, want %d", got, sum)
			}
			ref := e.Load(c2, Root, 0)
			for i := uint64(n); i >= 1; i-- {
				if ref == 0 {
					t.Fatalf("recovered chain ends before node %d", i)
				}
				if got := e.Load(c2, ref, 0); got != 100+i {
					t.Errorf("node %d recovered %d, want %d", i, got, 100+i)
				}
				ref = e.Load(c2, ref, 1)
			}
			if ref != 0 {
				t.Error("recovered chain longer than the completed inserts")
			}
		})
	}
}
