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
//   - Committed needs a verdict, a read tag or a witness, and the effect is
//     present: no verdict was ever published and the window never laps, so
//     neither the entry, a lap, nor a sibling verdict can vouch for the
//     seq, and only an install that testifies for itself (a skip-list
//     insert or delete on Mirror with no earlier verdict of its client
//     pending, engine detect.go O7) or its witness (O6) can — with result
//     true, for an effect that survived.
//   - NotCommitted implies the effect is absent (an inserted key missing, a
//     deleted key still present): the announce is durable before the
//     operation can reach its linearization point.
//   - If the whole window quiesced before the freeze, every announce is
//     durable and every verdict reads Unknown — the honest answer for a cut
//     operation — or Committed on its evidence.
//   - Ascending ExactlyOnce replay (replayUnknown: set operations are
//     idempotent) loses and duplicates nothing, and afterwards every seq
//     reads Committed with a recorded result.
//
// Three sweeps differ in the window and the crash adversary:
//
//   - DropAll: k inserts, every cut crashed under CrashDropAll.
//   - DropFlushed: deletes of prefill keys alternating with inserts, every
//     cut crashed under CrashDropFlushed, which persists never-flushed
//     writes while dropping flushed-but-unfenced lines.
//   - KeepFlushed: the same window under CrashKeepFlushed, which persists
//     flushed-but-unfenced lines and drops never-flushed writes. An
//     insert's announce is flushed by its publish fence, and the announce
//     line is flushed only by a fence (it is armed at Begin). A crash on
//     the fence of a delete's install keeps the flushed install and drops
//     an announce that no earlier fence flushed. Where the install is
//     untagged (the BST's flag, every install on a direct engine) only the
//     engine's announce barrier fences ahead of it: without that fence the
//     delete took effect and reads NotCommitted. The skip list's level-0
//     mark on Mirror skips the barrier and carries its operation's tag
//     instead; the crash leaves the marked node reachable, so recovery
//     must read the tag off it and Detect answer Unknown — a recovery that
//     ignores tags reads NotCommitted here.
//
// Every sweep runs twice: Unsharded recovers sequentially, Sharded2 at two
// workers, the copy on a sink goroutine beside the trace (see
// recoverShards). The verdicts must not depend on where the copy ran.

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

// RunRingDetect executes the three ring-detect sweeps for every durable engine
// kind, recovering sequentially and two-way sharded, with the ring holding
// k ∈ {1, 4, 8} announced-but-unverdicted entries at the crash.
func RunRingDetect(t *testing.T, f Factory) {
	sweeps := []struct {
		name    string
		policy  pmem.CrashPolicy
		deletes bool
	}{
		{"DropAll", pmem.CrashDropAll, false},
		{"DropFlushed", pmem.CrashDropFlushed, true},
		{"KeepFlushed", pmem.CrashKeepFlushed, true},
	}
	for _, k := range engine.Kinds() {
		if !k.Durable() {
			continue
		}
		t.Run(k.String(), func(t *testing.T) {
			for _, shards := range []int{1, 2} {
				name := "Unsharded"
				if shards > 1 {
					name = fmt.Sprintf("Sharded%d", shards)
				}
				t.Run(name, func(t *testing.T) {
					for _, window := range []int{1, 4, 8} {
						t.Run(fmt.Sprintf("K%d", window), func(t *testing.T) {
							for _, sw := range sweeps {
								t.Run(sw.name, func(t *testing.T) {
									ringDetectSweep(t, f, k, sw.policy, sw.deletes, shards, window)
								})
							}
						})
					}
				})
			}
		})
	}
}

// ringOp is the window's operation for one seq: an insert of a fresh key, or
// (with deletes, on odd seqs) a delete of a prefill key.
type ringOp struct {
	del      bool
	key, val uint64
}

func windowOp(seq uint64, deletes bool) ringOp {
	if deletes && seq%2 == 1 {
		return ringOp{del: true, key: 100 + seq}
	}
	return ringOp{key: 200 + seq, val: seq * 10}
}

func (op ringOp) kind() uint64 {
	if op.del {
		return engine.DetectDelete
	}
	return engine.DetectInsert
}

func (op ringOp) run(s structures.Set, c *engine.Ctx) bool {
	if op.del {
		return s.Delete(c, op.key)
	}
	return s.Insert(c, op.key, op.val)
}

// ringDetectSweep crashes a window of k announced-but-unverdicted operations
// at every deterministic crash point under the given policy, and recovers
// each cut at the given shard count.
func ringDetectSweep(t *testing.T, f Factory, kind engine.Kind, policy pmem.CrashPolicy, deletes bool, shards, k int) {
	const client = 1
	rng := rand.New(rand.NewSource(11))
	cfg := engine.Config{Kind: kind, Words: ringWords, Track: true, Clients: 2, DetectRing: 8}
	if k > cfg.DetectRing {
		t.Fatalf("window %d exceeds the ring of %d: arming would force a drain", k, cfg.DetectRing)
	}
	for fa := int64(1); ; fa++ {
		e := engine.New(cfg)
		c := e.NewCtx()
		s := f.New(e, c)
		// Durable prefill outside the detect window, then arm the freeze so
		// only the detectable window's operations count.
		for i := uint64(100); i < 108; i++ {
			if !s.Insert(c, i, i) {
				t.Fatalf("fa=%d: prefill insert %d failed", fa, i)
			}
		}
		e.Drain(c)
		e.FreezeAfter(fa)
		completed := runToFreeze(func() {
			for seq := uint64(1); seq <= uint64(k); seq++ {
				op := windowOp(seq, deletes)
				engine.DetectBeginDeferred(e, c, client, seq, op.kind(), op.key, op.val, true)
				res := op.run(s, c)
				engine.DetectEndDeferred(e, c, res, 0)
			}
			// The ring now holds k announced entries with every verdict
			// still pending in volatile memory — no drain before the plug.
		})
		e.FreezeAfter(0)
		e.Crash(policy, rng)
		recoverShards(e, s, shards)
		c = e.NewCtx()
		s = f.New(e, c)

		// Truth table over the whole window.
		for seq := uint64(1); seq <= uint64(k); seq++ {
			op := windowOp(seq, deletes)
			d := e.Detect(client, seq)
			tookEffect := s.Contains(c, op.key) != op.del
			switch d.Verdict {
			case engine.Committed:
				if !tookEffect || !d.KnownResult || !d.Result {
					t.Fatalf("fa=%d seq=%d: Committed (%+v) without a published verdict, and the effect is absent or the result not true",
						fa, seq, d)
				}
			case engine.NotCommitted:
				if tookEffect {
					t.Fatalf("fa=%d seq=%d: NotCommitted but the effect survived", fa, seq)
				}
			}
			if completed && d.Verdict == engine.NotCommitted {
				t.Fatalf("fa=%d seq=%d: quiesced window reads %v, want Unknown or Committed (announce is durable)",
					fa, seq, d.Verdict)
			}
		}

		// Ascending ExactlyOnce replay: provably-uncommitted entries run for
		// the first time, Unknown entries re-run idempotently, and nothing
		// runs twice with an observable effect.
		for seq := uint64(1); seq <= uint64(k); seq++ {
			op := windowOp(seq, deletes)
			engine.ExactlyOnce(e, c, engine.DetectOp{
				Client: client, Seq: seq, Kind: op.kind(), Key: op.key, Val: op.val,
				Run: func(cc *engine.Ctx) bool { return op.run(s, cc) },
			}, true)
		}
		deleted := make(map[uint64]bool)
		for seq := uint64(1); seq <= uint64(k); seq++ {
			op := windowOp(seq, deletes)
			if op.del {
				deleted[op.key] = true
				if s.Contains(c, op.key) {
					t.Fatalf("fa=%d seq=%d: key %d present after replaying its delete", fa, seq, op.key)
				}
			} else if v, ok := s.Get(c, op.key); !ok || v != op.val {
				t.Fatalf("fa=%d seq=%d: key %d = (%d,%v) after replay, want (%d,true)",
					fa, seq, op.key, v, ok, op.val)
			}
			if d := e.Detect(client, seq); d.Verdict != engine.Committed || !d.KnownResult {
				t.Fatalf("fa=%d seq=%d: post-replay verdict %+v, want Committed with a recorded result",
					fa, seq, d)
			}
		}
		// The rest of the durable prefill must have survived too.
		for i := uint64(100); i < 108; i++ {
			if !deleted[i] && !s.Contains(c, i) {
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

// RunAckDetect is the acknowledged-seq sweep beside RunRingDetect's three:
// two clients take turns on three hot keys with inserts and deletes, every
// frame drained on its own as the serving tier does at depth 1, and the
// persistent device is frozen at each operation count in turn and crashed
// under CrashDropAll, CrashDropFlushed, CrashKeepFlushed and a seeded
// CrashRandom. After recovery:
//
//   - every acknowledged seq still inside its ring window (its client has
//     not armed seq + Ring) reads Committed with its acknowledged result —
//     whether a verdict line, its own install's evidence or a witness
//     vouches for it (engine detect.go O6, O7);
//   - the frame the crash cut reads NotCommitted only if its effect is
//     absent, and Committed only if it is present, with the result it
//     would have returned;
//   - every other key holds what the acknowledged frames left.
//
// A small ring (4) makes windows end inside the run, so a delete finds its
// victim's insert both inside and past its window. It runs on the two
// Mirror kinds, the engines whose inserts and deletes are acknowledged on
// their own evidence; RunRingDetect covers the verdict protocol on every
// engine.
func RunAckDetect(t *testing.T, f Factory) {
	for _, k := range []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM} {
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for _, p := range []struct {
				name   string
				policy pmem.CrashPolicy
			}{
				{"DropAll", pmem.CrashDropAll},
				{"DropFlushed", pmem.CrashDropFlushed},
				{"KeepFlushed", pmem.CrashKeepFlushed},
				{"Random", pmem.CrashRandom},
			} {
				t.Run(p.name, func(t *testing.T) {
					t.Parallel()
					ackDetectSweep(t, f, k, p.policy)
				})
			}
		})
	}
}

// ackFrame is one frame of the acknowledged-seq sweep's script.
type ackFrame struct {
	client int
	seq    uint64
	op     ringOp
}

// ackScript draws the sweep's frames: the clients alternate, each frame an
// insert or a delete of one of three keys.
func ackScript(n int) []ackFrame {
	rng := rand.New(rand.NewSource(5))
	var seqs [2]uint64
	frames := make([]ackFrame, n)
	for i := range frames {
		client := i % 2
		seqs[client]++
		key := 1 + uint64(rng.Intn(3))
		frames[i] = ackFrame{client, seqs[client], ringOp{del: rng.Intn(2) == 1, key: key, val: key * 10}}
	}
	return frames
}

func ackDetectSweep(t *testing.T, f Factory, kind engine.Kind, policy pmem.CrashPolicy) {
	const ring = 4
	cfg := engine.Config{Kind: kind, Words: ringWords, Track: true, Clients: 2, DetectRing: ring}
	script := ackScript(24)
	for fa := int64(1); ; fa++ {
		e := engine.New(cfg)
		c := e.NewCtx()
		s := f.New(e, c)
		e.Drain(c)
		present := map[uint64]bool{}
		var armed [2]uint64
		acked := map[ackFrame]bool{}
		cut := -1
		e.FreezeAfter(fa)
		completed := runToFreeze(func() {
			for i, fr := range script {
				cut = i
				armed[fr.client] = fr.seq
				e.DetectBeginDeferred(c, fr.client, fr.seq, fr.op.kind(), fr.op.key, fr.op.val)
				res := fr.op.run(s, c)
				e.DetectEndDeferred(c, res, 0)
				e.DetectDrain(c)
				acked[fr] = res
				present[fr.op.key] = !fr.op.del
			}
			cut = -1
		})
		e.FreezeAfter(0)
		e.Crash(policy, rand.New(rand.NewSource(fa)))
		e.Recover(s.Tracer())
		c = e.NewCtx()
		s = f.New(e, c)

		for fr, res := range acked {
			if armed[fr.client] >= fr.seq+ring {
				continue // its window has ended
			}
			if d := e.Detect(fr.client, fr.seq); d.Verdict != engine.Committed || !d.KnownResult || d.Result != res {
				t.Fatalf("fa=%d: acknowledged (%d, %d) %+v returned %v, and reads %+v after the crash",
					fa, fr.client, fr.seq, fr.op, res, d)
			}
		}
		var cutKey uint64
		if cut >= 0 {
			fr := script[cut]
			cutKey = fr.op.key
			was := present[cutKey]
			has := s.Contains(c, cutKey)
			d := e.Detect(fr.client, fr.seq)
			switch {
			case has != was && has == fr.op.del:
				t.Fatalf("fa=%d: cut frame %+v left key %d present=%v, from %v", fa, fr.op, cutKey, has, was)
			case d.Verdict == engine.NotCommitted && has != was:
				t.Fatalf("fa=%d: cut frame (%d, %d) %+v reads NotCommitted, but its effect survived", fa, fr.client, fr.seq, fr.op)
			case d.Verdict == engine.Committed && (has != !fr.op.del || d.KnownResult && d.Result != (was == fr.op.del)):
				t.Fatalf("fa=%d: cut frame (%d, %d) %+v on key present=%v reads %+v, key now present=%v",
					fa, fr.client, fr.seq, fr.op, was, d, has)
			}
		}
		for key := uint64(1); key <= 3; key++ {
			if key != cutKey && s.Contains(c, key) != present[key] {
				t.Fatalf("fa=%d: key %d present=%v, acknowledged frames left %v", fa, key, !present[key], present[key])
			}
		}
		if completed {
			// The script must reach both kinds of evidence it checks.
			if st := e.Stats(); st.Witnesses == 0 || st.Unverdicted == 0 {
				t.Fatalf("the uncut run wrote %d witnesses and acknowledged %d frames without a verdict; want both > 0",
					st.Witnesses, st.Unverdicted)
			}
			break
		}
		if fa > 500000 {
			t.Fatal("crash-point sweep did not terminate")
		}
	}
}
