package crashtest

import (
	"fmt"
	"math/rand"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures/hashtable"
)

// attemptRecover runs one recovery attempt, reporting whether the armed
// freeze cut it short (the ErrFrozen panic unwinds out of the pipeline's
// workers and re-raises here).
func attemptRecover(e engine.Engine, tr engine.Tracer, opts engine.RecoverOptions) (frozen bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == pmem.ErrFrozen {
				frozen = true
				return
			}
			panic(r)
		}
	}()
	e.RecoverWith(tr, opts)
	return false
}

// TestCrashDuringRecovery sweeps every deterministic crash point inside
// recovery itself: FreezeAfter(n) arms the persistent device so its n-th
// countable operation — for Mirror engines, the bulk range copies of the
// rebuild's sinks — panics mid-pipeline; at two and four workers the copy
// runs on a sink goroutine, so the freeze can land while the trace is still
// running and must stop it. The interrupted recovery is crashed
// again and recovery re-runs from the unchanged persistent image; it must
// be idempotent. After the first complete recovery the test verifies the
// full contents, the per-cell replica invariants (Lemmas 5.3–5.5), and
// that the structure is operational. The direct engines' recovery performs
// no countable device operations (trace reads bypass the gates), so their
// sweep degenerates to one armed-but-uninterrupted pass — still verified.
func TestCrashDuringRecovery(t *testing.T) {
	// The sweep re-runs recovery once per crash point, so its cost is
	// quadratic in the table size; keep the table small enough that the
	// full sweep stays fast under -race.
	const keys = 120
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM, engine.Izraelevitz, engine.NVTraverse} {
		for _, par := range []int{1, 2, 4} {
			t.Run(kind.String()+sizeSuffix(par), func(t *testing.T) {
				rng := rand.New(rand.NewSource(17))
				e := engine.New(engine.Config{Kind: kind, Words: 1 << 20, Track: true})
				c := e.NewCtx()
				h := hashtable.New(e, c, 64)
				for k := 1; k <= keys; k++ {
					if !h.Insert(c, uint64(k), uint64(k*3)) {
						t.Fatalf("setup insert %d failed", k)
					}
				}
				// Every attempt's trace records what it visits: after the
				// sweep, spans holds the complete recovery's objects.
				type span struct {
					ref    engine.Ref
					fields int
				}
				var spans []span
				tr := func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int), relink func(engine.Ref, int, uint64)) {
					spans = spans[:0]
					hashtable.TracerAt(e, 0)(read, func(ref engine.Ref, fields, rebuilt int) {
						spans = append(spans, span{ref, fields})
						visit(ref, fields, rebuilt)
					}, relink)
				}
				opts := engine.RecoverOptions{Parallelism: par}

				e.Crash(pmem.CrashDropAll, rng)
				crashPoints := 0
				for fa := int64(1); ; fa++ {
					e.FreezeAfter(fa)
					if !attemptRecover(e, tr, opts) {
						e.FreezeAfter(0)
						break
					}
					crashPoints++
					if crashPoints > 100000 {
						t.Fatal("crash-point sweep did not terminate")
					}
					// Re-crash the half-recovered engine; the persistent
					// image is untouched by recovery, so the next attempt
					// sees exactly the same crash state plus one more
					// op of budget.
					e.Crash(pmem.CrashDropAll, rng)
				}
				t.Logf("%d crash points", crashPoints)
				if kind == engine.MirrorDRAM || kind == engine.MirrorNVMM {
					if crashPoints == 0 {
						t.Fatal("Mirror recovery exposed no crash points; FreezeAfter gate lost")
					}
				}

				// Contents survived every interrupted attempt.
				c = e.NewCtx()
				h = hashtable.New(e, c, 64)
				for k := 1; k <= keys; k++ {
					if v, ok := h.Get(c, uint64(k)); !ok || v != uint64(k*3) {
						t.Fatalf("key %d = (%d,%v) after %d interrupted recoveries", k, v, ok, crashPoints)
					}
				}
				if h.Contains(c, keys+7) {
					t.Fatal("phantom key after recovery")
				}

				// Replica invariants hold for every object the complete
				// recovery traced.
				if len(spans) == 0 {
					t.Fatal("the complete recovery traced nothing")
				}
				for _, sp := range spans {
					if msg := e.CheckInvariants(sp.ref, sp.fields); msg != "" {
						t.Fatalf("after %d interrupted recoveries: %s", crashPoints, msg)
					}
				}

				// And the structure is operational.
				if !h.Insert(c, keys+100, 1) || !h.Delete(c, keys+100) {
					t.Fatal("structure not operational after recovery")
				}
			})
		}
	}
}

// sizeSuffix names a worker count: seq is one, par is four, and any other
// count is par and the count.
func sizeSuffix(par int) string {
	switch par {
	case 1:
		return "/seq"
	case 4:
		return "/par"
	}
	return fmt.Sprintf("/par%d", par)
}

// TestCrashDuringRecoveryRepeated re-crashes an engine in the middle of the
// rebuild phase many times at the same crash point, interleaving different
// parallelism levels, to check that no attempt sequence can corrupt the
// persistent image (recovery writes only volatile state).
func TestCrashDuringRecoveryRepeated(t *testing.T) {
	const keys = 200
	rng := rand.New(rand.NewSource(23))
	e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 20, Track: true})
	c := e.NewCtx()
	h := hashtable.New(e, c, 64)
	for k := 1; k <= keys; k++ {
		h.Insert(c, uint64(k), uint64(k))
	}
	tr := hashtable.TracerAt(e, 0)
	e.Crash(pmem.CrashDropAll, rng)
	for i := 0; i < 30; i++ {
		par := []int{1, 2, 4, 8}[i%4]
		e.FreezeAfter(int64(10 + i*7))
		if !attemptRecover(e, tr, engine.RecoverOptions{Parallelism: par}) {
			e.FreezeAfter(0)
			break
		}
		e.Crash(pmem.CrashDropAll, rng)
	}
	e.FreezeAfter(0)
	e.Recover(tr)
	c = e.NewCtx()
	h = hashtable.New(e, c, 64)
	for k := 1; k <= keys; k++ {
		if !h.Contains(c, uint64(k)) {
			t.Fatalf("key %d lost after repeated interrupted recoveries", k)
		}
	}
}
