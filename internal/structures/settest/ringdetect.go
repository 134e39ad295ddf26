package settest

// Ring-detect conformance battery: the per-client descriptor ring must stay
// authoritative for every in-flight seq across a quiesced crash at *every*
// deterministic crash point. The battery arms the deferred (batched-verdict)
// protocol, runs k detectable inserts WITHOUT ever draining — so the ring
// holds k announced-but-unverdicted entries, the exact image a killed
// pipelined server leaves behind — freezes the device at each successive
// operation count, crashes, recovers (which scrubs torn descriptor lines),
// and checks the Detect truth table before replaying the window through
// ExactlyOnce in issue order.
//
// Truth obligations checked at each crash point, for each seq in the window:
//
//   - Committed is impossible: no verdict was ever published and the window
//     never laps, so neither the entry, a lap, nor a sibling verdict can
//     vouch for the seq.
//   - NotCommitted implies the effect is absent: the announce is durable
//     before the operation can reach its linearization point.
//   - If the whole window quiesced before the freeze, every announce is
//     durable and every verdict reads Unknown — the honest answer for a cut
//     operation.
//   - Ascending ExactlyOnce replay (replayUnknown: idempotent inserts)
//     loses and duplicates nothing, and afterwards every seq reads
//     Committed with a recorded result.

import (
	"fmt"
	"math/rand"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures"
)

// ringWords keeps the sweep cheap: each crash point builds a fresh engine,
// and the battery's working set is a few dozen keys.
const ringWords = 1 << 17

// runToFreeze runs f, reporting whether it completed (true) or was cut by
// the armed freeze (false).
func runToFreeze(f func()) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == pmem.ErrFrozen {
				return
			}
			panic(r)
		}
	}()
	f()
	return true
}

// RunRingDetect executes the ring-detect battery for every durable engine
// kind, unsharded and sharded, with the ring holding k ∈ {1, 4, 8}
// announced-but-unverdicted entries at the crash.
func RunRingDetect(t *testing.T, f Factory) {
	for _, k := range engine.Kinds() {
		if !k.Durable() {
			continue
		}
		t.Run(k.String(), func(t *testing.T) {
			for _, shards := range []int{0, 2} {
				name := "Unsharded"
				if shards > 0 {
					name = fmt.Sprintf("Sharded%d", shards)
				}
				t.Run(name, func(t *testing.T) {
					for _, window := range []int{1, 4, 8} {
						t.Run(fmt.Sprintf("K%d", window), func(t *testing.T) {
							ringDetectSweep(t, f, k, shards, window)
						})
					}
				})
			}
		})
	}
}

// ringTarget is one fresh instance under test: the set, its engine (or
// sharded router), and a recover function that re-attaches after the crash.
type ringTarget struct {
	e engine.Host
	c *engine.Ctx
	s structures.Set
	// recover crashes nothing itself; it recovers the frozen image and
	// returns a fresh (ctx, set) attached to the recovered state.
	recover func() (*engine.Ctx, structures.Set)
}

func (f Factory) ringTarget(k engine.Kind, shards int) ringTarget {
	if shards == 0 {
		e := engine.New(engine.Config{
			Kind: k, Words: ringWords, Track: true, Clients: 2, DetectRing: 8,
		})
		c := e.NewCtx()
		s := f.New(e, c)
		tr := s.Tracer()
		return ringTarget{e: e, c: c, s: s, recover: func() (*engine.Ctx, structures.Set) {
			e.RecoverWith(tr, engine.RecoverOptions{Parallelism: 1})
			c := e.NewCtx()
			return c, f.New(e, c)
		}}
	}
	e := engine.NewSharded(engine.Config{
		Kind: k, Words: ringWords, Track: true, Clients: 2, DetectRing: 8, Shards: shards,
	})
	c := e.NewCtx()
	s := structures.NewSharded(e, c, f.New)
	return ringTarget{e: e, c: c, s: s, recover: func() (*engine.Ctx, structures.Set) {
		s.Recover(engine.RecoverOptions{})
		c := e.NewCtx()
		return c, structures.NewSharded(e, c, f.New)
	}}
}

// ringDetectSweep crashes a window of k announced-but-unverdicted inserts
// at every deterministic crash point.
func ringDetectSweep(t *testing.T, f Factory, kind engine.Kind, shards, k int) {
	const client = 1
	key := func(seq uint64) uint64 { return 200 + seq }
	val := func(seq uint64) uint64 { return seq * 10 }
	rng := rand.New(rand.NewSource(11))
	for fa := int64(1); ; fa++ {
		tg := f.ringTarget(kind, shards)
		if ring := engine.DetectRingOf(tg.e); ring != 8 {
			t.Fatalf("DetectRingOf = %d, want 8", ring)
		}
		// Durable prefill outside the detect window, then arm the freeze so
		// only the detectable window's operations count.
		for i := uint64(100); i < 108; i++ {
			if !tg.s.Insert(tg.c, i, i) {
				t.Fatalf("fa=%d: prefill insert %d failed", fa, i)
			}
		}
		tg.e.Drain(tg.c)
		tg.e.FreezeAfter(fa)
		completed := runToFreeze(func() {
			for seq := uint64(1); seq <= uint64(k); seq++ {
				engine.DetectBeginDeferred(tg.e, tg.c, client, seq,
					engine.DetectInsert, key(seq), val(seq), true)
				res := tg.s.Insert(tg.c, key(seq), val(seq))
				engine.DetectEndDeferred(tg.e, tg.c, res, 0)
			}
			// The ring now holds k announced entries with every verdict
			// still pending in volatile memory — no drain before the plug.
		})
		tg.e.FreezeAfter(0)
		tg.e.Crash(pmem.CrashDropAll, rng)
		c, s := tg.recover()

		// Truth table over the whole window.
		for seq := uint64(1); seq <= uint64(k); seq++ {
			d := tg.e.Detect(client, seq)
			present := s.Contains(c, key(seq))
			switch d.Verdict {
			case engine.Committed:
				t.Fatalf("fa=%d seq=%d: Committed without any published verdict", fa, seq)
			case engine.NotCommitted:
				if present {
					t.Fatalf("fa=%d seq=%d: NotCommitted but the effect survived", fa, seq)
				}
			}
			if completed && d.Verdict != engine.Unknown {
				t.Fatalf("fa=%d seq=%d: quiesced window reads %v, want Unknown (announce is durable)",
					fa, seq, d.Verdict)
			}
		}

		// Ascending ExactlyOnce replay: provably-uncommitted entries run for
		// the first time, Unknown entries re-run idempotently, and nothing
		// runs twice with an observable effect.
		for seq := uint64(1); seq <= uint64(k); seq++ {
			engine.ExactlyOnce(tg.e, c, engine.DetectOp{
				Client: client, Seq: seq, Kind: engine.DetectInsert,
				Key: key(seq), Val: val(seq),
				Run: func(cc *engine.Ctx) bool { return s.Insert(cc, key(seq), val(seq)) },
			}, true)
		}
		for seq := uint64(1); seq <= uint64(k); seq++ {
			if v, ok := s.Get(c, key(seq)); !ok || v != val(seq) {
				t.Fatalf("fa=%d seq=%d: key %d = (%d,%v) after replay, want (%d,true)",
					fa, seq, key(seq), v, ok, val(seq))
			}
			if d := tg.e.Detect(client, seq); d.Verdict != engine.Committed || !d.KnownResult {
				t.Fatalf("fa=%d seq=%d: post-replay verdict %+v, want Committed with a recorded result",
					fa, seq, d)
			}
		}
		// The prefill and general operation must have survived too.
		for i := uint64(100); i < 108; i++ {
			if !s.Contains(c, i) {
				t.Fatalf("fa=%d: durable prefill key %d lost", fa, i)
			}
		}
		if completed {
			break
		}
		if fa > 500000 {
			t.Fatal("crash-point sweep did not terminate")
		}
	}
}
