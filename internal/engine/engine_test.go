package engine

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"mirror/internal/pmem"
)

func newTestEngine(k Kind) Engine {
	return New(Config{Kind: k, Words: 1 << 18, RootFields: 4, Track: true})
}

func forEachKind(t *testing.T, f func(t *testing.T, k Kind, e Engine)) {
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			f(t, k, newTestEngine(k))
		})
	}
}

func forEachDurable(t *testing.T, f func(t *testing.T, k Kind, e Engine)) {
	for _, k := range Kinds() {
		if !k.Durable() {
			continue
		}
		t.Run(k.String(), func(t *testing.T) {
			f(t, k, newTestEngine(k))
		})
	}
}

// recoveryLoad returns e's read of its persistent post-crash image.
func recoveryLoad(e Engine) func(Ref, int) uint64 {
	switch e := e.(type) {
	case *mirrorEngine:
		return e.recoveryLoad
	case *directEngine:
		return e.recoveryLoad
	}
	panic("engine: no recovery read for this engine")
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		OrigDRAM: "OrigDRAM", OrigNVMM: "OrigNVMM", Izraelevitz: "Izraelevitz",
		NVTraverse: "NVTraverse", MirrorDRAM: "Mirror", MirrorNVMM: "MirrorNVMM",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestDurableFlag(t *testing.T) {
	if OrigDRAM.Durable() || OrigNVMM.Durable() {
		t.Error("originals must not be durable")
	}
	for _, k := range []Kind{Izraelevitz, NVTraverse, MirrorDRAM, MirrorNVMM} {
		if !k.Durable() {
			t.Errorf("%v must be durable", k)
		}
	}
}

// TestPersistentDevices pins the crash-surviving devices PersistentDevices
// derives from Devices: none for the non-durable originals, the one device
// of a durable direct engine, rep_p alone for Mirror — and the same through
// a pass-through wrapper, which has only the roles' methods to offer.
func TestPersistentDevices(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			e := New(Config{Kind: k, Words: 1 << 14})
			var want []*pmem.Device
			switch k {
			case Izraelevitz, NVTraverse:
				want = e.Devices()
			case MirrorDRAM, MirrorNVMM:
				want = []*pmem.Device{e.(*mirrorEngine).mem.P}
			}
			if k.Durable() && (len(want) != 1 || !want[0].Persistent()) {
				t.Fatalf("want one persistent device, have %v", want)
			}
			for name, x := range map[string]Introspection{"engine": e, "wrapper": struct{ Engine }{e}} {
				if got := PersistentDevices(x); !slices.Equal(got, want) {
					t.Errorf("%s: PersistentDevices = %v, want %v", name, got, want)
				}
			}
		})
	}
}

func TestObjectLifecycle(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		e.OpBegin(c)
		ref := e.Alloc(c, 3)
		if ref == 0 {
			t.Fatal("Alloc returned nil ref")
		}
		if ref&3 != 0 {
			t.Fatalf("ref %d not 32-byte aligned", ref)
		}
		e.StoreInit(c, ref, 0, 10)
		e.StoreInit(c, ref, 1, 20)
		e.StoreInit(c, ref, 2, 30)
		e.Publish(c, ref)
		for f, want := range []uint64{10, 20, 30} {
			if got := e.Load(c, ref, f); got != want {
				t.Errorf("field %d = %d, want %d", f, got, want)
			}
			if got := e.TraversalLoad(c, ref, f); got != want {
				t.Errorf("traversal field %d = %d, want %d", f, got, want)
			}
		}
		e.OpEnd(c)
	})
}

// TestStoreCASFetchAdd pins Store and CAS on a cell, and a fetch-and-add
// built from a CAS loop on a root cell, as a structure writes one.
func TestStoreCASFetchAdd(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		e.OpBegin(c)
		ref := e.Alloc(c, 1)
		e.StoreInit(c, ref, 0, 0)
		e.Publish(c, ref)
		e.Store(c, Root, 1, 5)

		e.Store(c, ref, 0, 7)
		if got := e.Load(c, ref, 0); got != 7 {
			t.Errorf("after Store: %d, want 7", got)
		}
		if !e.CAS(c, ref, 0, 7, 8) {
			t.Error("CAS 7->8 should succeed")
		}
		if e.CAS(c, ref, 0, 7, 9) {
			t.Error("CAS 7->9 should fail")
		}
		if old := fetchAdd(e, c, Root, 1, 3); old != 5 {
			t.Errorf("fetch-and-add returned %d, want 5", old)
		}
		if got := e.Load(c, Root, 1); got != 8 {
			t.Errorf("after fetch-and-add: %d, want 8", got)
		}
		e.OpEnd(c)
	})
}

// TestCASRebuiltIsNeverPersisted pins the rebuilt write on every engine: it
// installs and is visible at once, costs no flush or fence, registers
// nothing for a later drain, and a crash that drops unfenced lines loses it.
// A rebuilt field is a plain word (Plain).
func TestCASRebuiltIsNeverPersisted(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		e.OpBegin(c)
		ref := e.Alloc(c, cellWord)
		e.StoreInit(c, ref, 0, 1)
		e.StoreInit(c, ref, word, 1)
		e.Publish(c, ref)
		e.Store(c, Root, 0, ref)
		e.OpEnd(c)
		e.Drain(c)
		e.OpBegin(c)
		f0, n0 := e.Counters()
		r0 := e.Stats().RelaxedCAS
		if !e.CASRebuilt(c, ref, word, 1, 2) || e.CASRebuilt(c, ref, word, 1, 3) {
			t.Fatal("CASRebuilt 1->2 must succeed and 1->3 then fail")
		}
		if f, n := e.Counters(); f != f0 || n != n0 || e.Stats().RelaxedCAS != r0 {
			t.Fatalf("rebuilt install cost %d flushes, %d fences, %d relaxed installs; want none",
				f-f0, n-n0, e.Stats().RelaxedCAS-r0)
		}
		if got := e.TraversalLoad(c, ref, word); got != 2 {
			t.Fatalf("rebuilt install not visible: %d", got)
		}
		e.OpEnd(c)
		e.Drain(c)
		if !k.Durable() || k == Izraelevitz {
			return // Izraelevitz persists every read, this one's too
		}
		e.Crash(pmem.CrashDropAll, rand.New(rand.NewSource(1)))
		if got := recoveryLoad(e)(ref, word); got != 1 {
			t.Fatalf("rebuilt install reached the media: %d after the crash, want 1", got)
		}
	})
}

func TestRootFields(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		e.OpBegin(c)
		root := Root
		for f := 0; f < 4; f++ {
			if got := e.Load(c, root, f); got != 0 {
				t.Errorf("fresh root field %d = %d, want 0", f, got)
			}
		}
		if !e.CAS(c, root, 2, 0, 77) {
			t.Error("root CAS should succeed")
		}
		if got := e.Load(c, root, 2); got != 77 {
			t.Errorf("root field = %d, want 77", got)
		}
		e.OpEnd(c)
	})
}

func TestCompletedWriteIsDurable(t *testing.T) {
	forEachDurable(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		e.OpBegin(c)
		root := Root
		e.Store(c, root, 0, 1234)
		e.OpEnd(c)
		// A completed operation's writes must survive even the most
		// adversarial crash (drop everything unfenced).
		e.Crash(pmem.CrashDropAll, nil)
		if got := recoveryLoad(e)(root, 0); got != 1234 {
			t.Errorf("recovery read after crash = %d, want 1234", got)
		}
	})
}

func TestPublishedObjectIsDurable(t *testing.T) {
	forEachDurable(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		e.OpBegin(c)
		ref := e.Alloc(c, 2)
		e.StoreInit(c, ref, 0, 42)
		e.StoreInit(c, ref, 1, 43)
		e.Publish(c, ref)
		e.Store(c, Root, 0, ref) // link it
		e.OpEnd(c)
		e.Crash(pmem.CrashDropAll, nil)
		if got := recoveryLoad(e)(Root, 0); got != ref {
			t.Fatalf("root link lost: %d, want %d", got, ref)
		}
		if got := recoveryLoad(e)(ref, 0); got != 42 {
			t.Errorf("published field lost: %d, want 42", got)
		}
	})
}

func TestVolatileEnginesLoseEverything(t *testing.T) {
	for _, k := range []Kind{OrigDRAM, OrigNVMM} {
		t.Run(k.String(), func(t *testing.T) {
			e := newTestEngine(k)
			c := e.NewCtx()
			e.OpBegin(c)
			e.Store(c, Root, 0, 9)
			e.OpEnd(c)
			e.Crash(pmem.CrashKeepAll, nil)
			e.Recover(nil)
			c2 := e.NewCtx()
			e.OpBegin(c2)
			if got := e.Load(c2, Root, 0); got != 0 {
				t.Errorf("volatile engine kept %d across crash", got)
			}
			e.OpEnd(c2)
		})
	}
}

// buildChain links n 2-field nodes (value, next) from root field 0 and
// returns the refs.
func buildChain(e Engine, c *Ctx, n int) []Ref {
	refs := make([]Ref, n)
	var prev Ref
	for i := n - 1; i >= 0; i-- {
		e.OpBegin(c)
		ref := e.Alloc(c, 2)
		e.StoreInit(c, ref, 0, uint64(100+i))
		e.StoreInit(c, ref, 1, prev)
		e.Publish(c, ref)
		prev = ref
		refs[i] = ref
		e.OpEnd(c)
	}
	e.OpBegin(c)
	e.Store(c, Root, 0, prev)
	e.OpEnd(c)
	return refs
}

// chainTracer walks the chain built by buildChain.
func chainTracer(e Engine) Tracer {
	return func(read func(Ref, int) uint64, visit func(Ref, int, int), _ func(Ref, int, uint64)) {
		ref := read(Root, 0)
		for ref != 0 {
			visit(ref, 2, 0)
			ref = read(ref, 1)
		}
	}
}

func TestCrashRecoverChain(t *testing.T) {
	forEachDurable(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		const n = 50
		buildChain(e, c, n)
		e.Crash(pmem.CrashDropAll, nil)
		e.Recover(chainTracer(e))

		c2 := e.NewCtx()
		e.OpBegin(c2)
		ref := e.Load(c2, Root, 0)
		for i := 0; i < n; i++ {
			if ref == 0 {
				t.Fatalf("chain broken at node %d", i)
			}
			if got := e.Load(c2, ref, 0); got != uint64(100+i) {
				t.Errorf("node %d value = %d, want %d", i, got, 100+i)
			}
			ref = e.Load(c2, ref, 1)
		}
		if ref != 0 {
			t.Error("chain longer than expected")
		}
		e.OpEnd(c2)
	})
}

func TestRecoveryReclaimsUnreachable(t *testing.T) {
	forEachDurable(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		buildChain(e, c, 10)
		// Allocate garbage that is never linked (published but
		// unreachable: leaked at crash, must be reclaimed by recovery's
		// offline GC).
		e.OpBegin(c)
		for i := 0; i < 100; i++ {
			g := e.Alloc(c, 2)
			e.StoreInit(c, g, 0, 1)
			e.StoreInit(c, g, 1, 0)
			e.Publish(c, g)
		}
		e.OpEnd(c)
		e.Crash(pmem.CrashKeepAll, nil)
		e.Recover(chainTracer(e))

		// After recovery the allocator must be able to hand out the
		// reclaimed space again without overlapping live nodes.
		c2 := e.NewCtx()
		e.OpBegin(c2)
		live := make(map[Ref]bool)
		ref := e.Load(c2, Root, 0)
		for ref != 0 {
			live[ref] = true
			ref = e.Load(c2, ref, 1)
		}
		for i := 0; i < 200; i++ {
			g := e.Alloc(c2, 2)
			if live[g] {
				t.Fatalf("allocator handed out live node %d after recovery", g)
			}
		}
		e.OpEnd(c2)
	})
}

func TestCrashMidOperationChainIntact(t *testing.T) {
	// Crash at random points while a writer extends the chain; after
	// recovery the chain must be a consistent prefix-extension: every
	// node reachable from the root is fully initialized.
	forEachDurable(t, func(t *testing.T, k Kind, e Engine) {
		rng := rand.New(rand.NewSource(99))
		c := e.NewCtx()
		buildChain(e, c, 5)

		func() {
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrFrozen {
					panic(r)
				}
			}()
			w := e.NewCtx()
			for i := 0; ; i++ {
				if i == 3 {
					e.Freeze() // freeze at an arbitrary point mid-stream
				}
				e.OpBegin(w)
				ref := e.Alloc(w, 2)
				e.StoreInit(w, ref, 0, uint64(1000+i))
				head := e.Load(w, Root, 0)
				e.StoreInit(w, ref, 1, head)
				e.Publish(w, ref)
				e.CAS(w, Root, 0, head, ref)
				e.OpEnd(w)
			}
		}()
		e.Crash(pmem.CrashRandom, rng)
		e.Recover(chainTracer(e))

		c2 := e.NewCtx()
		e.OpBegin(c2)
		ref := e.Load(c2, Root, 0)
		count := 0
		for ref != 0 {
			v := e.Load(c2, ref, 0)
			if v == 0 {
				t.Fatal("reachable node with uninitialized value after crash")
			}
			ref = e.Load(c2, ref, 1)
			count++
			if count > 100 {
				t.Fatal("chain cycle after recovery")
			}
		}
		if count < 5 {
			t.Errorf("pre-crash chain lost: %d nodes", count)
		}
		e.OpEnd(c2)
	})
}

func TestCountersGrowOnlyForDurable(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		e.OpBegin(c)
		e.Store(c, Root, 0, 1)
		e.OpEnd(c)
		fl, fe := e.Counters()
		if k.Durable() {
			if fl == 0 || fe == 0 {
				t.Errorf("durable engine issued no flushes/fences: (%d,%d)", fl, fe)
			}
		} else {
			if fl != 0 || fe != 0 {
				t.Errorf("volatile engine issued flushes/fences: (%d,%d)", fl, fe)
			}
		}
	})
}

func TestIzraelevitzPersistsReads(t *testing.T) {
	eIz := newTestEngine(Izraelevitz)
	eNVT := newTestEngine(NVTraverse)
	for _, e := range []Engine{eIz, eNVT} {
		c := e.NewCtx()
		e.OpBegin(c)
		e.Store(c, Root, 0, 1)
		e.OpEnd(c)
	}
	cIz, cNVT := eIz.NewCtx(), eNVT.NewCtx()
	fl0, _ := eIz.Counters()
	eIz.OpBegin(cIz)
	for i := 0; i < 100; i++ {
		eIz.TraversalLoad(cIz, Root, 0)
	}
	eIz.OpEnd(cIz)
	fl1, _ := eIz.Counters()

	nfl0, _ := eNVT.Counters()
	eNVT.OpBegin(cNVT)
	for i := 0; i < 100; i++ {
		eNVT.TraversalLoad(cNVT, Root, 0)
	}
	eNVT.OpEnd(cNVT)
	nfl1, _ := eNVT.Counters()

	if fl1-fl0 < 100 {
		t.Errorf("Izraelevitz traversal loads issued %d flushes, want >= 100", fl1-fl0)
	}
	if nfl1-nfl0 != 0 {
		t.Errorf("NVTraverse traversal loads issued %d flushes, want 0", nfl1-nfl0)
	}
}

func TestMirrorNeverFlushesOnLoad(t *testing.T) {
	e := newTestEngine(MirrorDRAM)
	c := e.NewCtx()
	e.OpBegin(c)
	e.Store(c, Root, 0, 1)
	fl0, fe0 := e.Counters()
	for i := 0; i < 1000; i++ {
		e.Load(c, Root, 0)
	}
	fl1, fe1 := e.Counters()
	e.OpEnd(c)
	if fl1 != fl0 || fe1 != fe0 {
		t.Errorf("Mirror loads issued persistence instructions: flush %d fence %d",
			fl1-fl0, fe1-fe0)
	}
}

func TestFreeUnpublishedReuse(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		e.OpBegin(c)
		ref := e.Alloc(c, 2)
		e.FreeUnpublished(c, ref, 2)
		got := e.Alloc(c, 2)
		if got != ref {
			t.Errorf("Alloc after FreeUnpublished = %d, want recycled %d", got, ref)
		}
		e.OpEnd(c)
	})
}

// readChain returns the (value, ref) sequence of the recovered chain.
func readChain(t *testing.T, e Engine) [][2]uint64 {
	t.Helper()
	c := e.NewCtx()
	e.OpBegin(c)
	defer e.OpEnd(c)
	var out [][2]uint64
	ref := e.Load(c, Root, 0)
	for ref != 0 {
		out = append(out, [2]uint64{e.Load(c, ref, 0), ref})
		ref = e.Load(c, ref, 1)
	}
	return out
}

func TestRecoverWithParallelMatchesSequential(t *testing.T) {
	forEachDurable(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		const n = 200
		buildChain(e, c, n)
		e.Crash(pmem.CrashDropAll, nil)

		e.Recover(chainTracer(e))
		want := readChain(t, e)
		if len(want) != n {
			t.Fatalf("sequential recovery found %d nodes, want %d", len(want), n)
		}

		for _, par := range []int{2, 4, 7} {
			// Recovery is idempotent, so re-crashing the already-recovered
			// image and recovering in parallel must reproduce it exactly.
			e.Crash(pmem.CrashDropAll, nil)
			e.RecoverWith(chainTracer(e), RecoverOptions{Parallelism: par})
			got := readChain(t, e)
			if len(got) != len(want) {
				t.Fatalf("par=%d: recovered %d nodes, want %d", par, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("par=%d: node %d = %v, want %v", par, i, got[i], want[i])
				}
			}
			for _, node := range got {
				if msg := e.CheckInvariants(node[1], 2); msg != "" {
					t.Fatalf("par=%d: %s", par, msg)
				}
			}
		}

		// The structure must remain operational after a parallel recovery:
		// extend the chain and walk it back.
		c2 := e.NewCtx()
		e.OpBegin(c2)
		head := e.Load(c2, Root, 0)
		nref := e.Alloc(c2, 2)
		e.StoreInit(c2, nref, 0, 99)
		e.StoreInit(c2, nref, 1, head)
		e.Publish(c2, nref)
		if !e.CAS(c2, Root, 0, head, nref) {
			t.Fatal("post-recovery CAS failed on quiesced engine")
		}
		e.OpEnd(c2)
		if got := readChain(t, e); len(got) != n+1 || got[0][0] != 99 {
			t.Fatalf("post-recovery insert not visible: len=%d", len(got))
		}
	})
}

// TestRecoverWithoutShardedTracerStillParallel attaches a media file at 4
// workers: the one sequential trace reads the media, and the span restores
// run on the sink goroutines beside it. Every node must come back, on every
// durable engine.
func TestRecoverWithoutShardedTracerStillParallel(t *testing.T) {
	for _, k := range durableKinds() {
		t.Run(k.String(), func(t *testing.T) {
			cfg := Config{Kind: k, Words: 1 << 16, Track: true,
				MediaPath: filepath.Join(t.TempDir(), "media.img")}
			e := New(cfg)
			c := e.NewCtx()
			const n = 100
			buildChain(e, c, n)
			e.Drain(c)

			cfg.Attach = true
			e2 := New(cfg)
			e2.RecoverWith(chainTracer(e2), RecoverOptions{Parallelism: 4})
			if got := readChain(t, e2); len(got) != n {
				t.Fatalf("recovered %d nodes, want %d", len(got), n)
			}
		})
	}
}
