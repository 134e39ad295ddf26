package engine

import (
	"path/filepath"
	"testing"

	"mirror/internal/pmem"
)

func durableKinds() []Kind {
	return []Kind{Izraelevitz, NVTraverse, MirrorDRAM, MirrorNVMM}
}

// descRegionOf returns an engine's descriptor region.
func descRegionOf(e Engine) *descRegion {
	switch x := e.(type) {
	case *mirrorEngine:
		return x.desc
	case *directEngine:
		return x.desc
	}
	panic("unknown engine type")
}

// runDetectable runs one trivial detectable root-store op on e. A deferred
// op leaves its verdict pending for a later DetectDrain; otherwise the op
// drains its own verdict before it returns.
func runDetectable(e Engine, c *Ctx, client int, seq uint64, deferred bool, rval uint64) {
	e.OpBegin(c)
	e.DetectBeginDeferred(c, client, seq, DetectInsert, uint64(client), seq)
	e.Store(c, Root, 0, seq<<8|uint64(client))
	DetectEndDeferred(e, c, true, rval)
	e.OpEnd(c)
	if !deferred {
		DetectDrain(e, c)
	}
}

// TestDeferredDetectVerdicts pins the batched-verdict protocol: verdicts
// stay unpublished until DetectDrain, then survive a crash with their
// results and auxiliary return words intact.
func TestDeferredDetectVerdicts(t *testing.T) {
	for _, k := range durableKinds() {
		t.Run(k.String(), func(t *testing.T) {
			const clients = 6
			e := New(Config{Kind: k, Words: 1 << 14, Track: true, Clients: clients})
			c := e.NewCtx()
			for cl := 0; cl < clients; cl++ {
				runDetectable(e, c, cl, 1, true, uint64(100+cl))
			}
			for cl := 0; cl < clients; cl++ {
				if v := e.Detect(cl, 1); v.Verdict != Unknown {
					t.Fatalf("client %d before drain: %v, want Unknown", cl, v.Verdict)
				}
			}
			DetectDrain(e, c)
			e.Freeze()
			e.Crash(0 /* CrashDropAll */, nil)
			for cl := 0; cl < clients; cl++ {
				v := e.Detect(cl, 1)
				if v.Verdict != Committed || !v.KnownResult || !v.Result || v.Rval != uint64(100+cl) {
					t.Fatalf("client %d after drain+crash: %+v, want Committed/true/rval %d",
						cl, v, 100+cl)
				}
			}
		})
	}
}

// TestDeferredDetectUndrainedIsUnknown pins the other side of the crash
// contract: a SIGKILL before the batch drain leaves every deferred verdict
// unpublished, so the clients read the honest Unknown.
func TestDeferredDetectUndrainedIsUnknown(t *testing.T) {
	for _, k := range durableKinds() {
		t.Run(k.String(), func(t *testing.T) {
			e := New(Config{Kind: k, Words: 1 << 14, Track: true, Clients: 2})
			c := e.NewCtx()
			runDetectable(e, c, 0, 1, true, 7)
			e.Freeze()
			e.Crash(0, nil)
			if v := e.Detect(0, 1); v.Verdict != Unknown {
				t.Fatalf("undrained verdict after crash: %v, want Unknown", v.Verdict)
			}
		})
	}
}

// TestDeferredDetectLapForcesDrain pins the ordering guard: arming a seq
// that would lap a still-pending entry (seq - pending >= ring) must drain
// the batch first, so the entry-lapped inference stays sound. With ring 1
// this is the original single-slot rule — every same-client successor
// drains.
func TestDeferredDetectLapForcesDrain(t *testing.T) {
	for _, k := range durableKinds() {
		t.Run(k.String(), func(t *testing.T) {
			e := New(Config{Kind: k, Words: 1 << 14, Track: true, Clients: 2, DetectRing: 1})
			c := e.NewCtx()
			runDetectable(e, c, 0, 1, true, 0)
			runDetectable(e, c, 0, 2, true, 0)
			// No explicit drain: seq 1's verdict must have been forced
			// durable by seq 2's begin, while seq 2's is still pending.
			e.Freeze()
			e.Crash(0, nil)
			if v := e.Detect(0, 1); v.Verdict != Committed {
				t.Fatalf("seq 1 after forced drain: %v, want Committed", v.Verdict)
			}
			if v := e.Detect(0, 2); v.Verdict != Unknown {
				t.Fatalf("seq 2 undrained: %v, want Unknown", v.Verdict)
			}
		})
	}
}

// TestRingDeferredWindowStaysPending pins the pipelining win the ring buys:
// a client may keep a whole ring window of operations pending under one
// eventual drain — no forced drain inside the window, so a crash before
// the drain leaves every one of them honestly Unknown.
func TestRingDeferredWindowStaysPending(t *testing.T) {
	const ring = 4
	for _, k := range durableKinds() {
		t.Run(k.String(), func(t *testing.T) {
			e := New(Config{Kind: k, Words: 1 << 14, Track: true, Clients: 2, DetectRing: ring})
			c := e.NewCtx()
			for seq := uint64(1); seq <= ring; seq++ {
				runDetectable(e, c, 0, seq, true, 0)
			}
			e.Freeze()
			e.Crash(0, nil)
			for seq := uint64(1); seq <= ring; seq++ {
				if v := e.Detect(0, seq); v.Verdict != Unknown {
					t.Fatalf("seq %d with whole window pending: %v, want Unknown", seq, v.Verdict)
				}
			}
		})
	}
}

// TestRingDeferredLapDrains pins the guard at the window edge: the
// ring+1-th pending operation laps seq 1's entry, forcing the batch
// durable before the overwrite.
func TestRingDeferredLapDrains(t *testing.T) {
	const ring = 2
	for _, k := range durableKinds() {
		t.Run(k.String(), func(t *testing.T) {
			e := New(Config{Kind: k, Words: 1 << 14, Track: true, Clients: 2, DetectRing: ring})
			c := e.NewCtx()
			runDetectable(e, c, 0, 1, true, 11)
			runDetectable(e, c, 0, 2, true, 12)
			runDetectable(e, c, 0, 3, true, 13) // laps seq 1: forces the drain
			e.Freeze()
			e.Crash(0, nil)
			if v := e.Detect(0, 1); v.Verdict != Committed {
				t.Fatalf("seq 1 after lap-forced drain: %+v, want Committed", v)
			}
			if v := e.Detect(0, 2); v.Verdict != Committed || !v.KnownResult || v.Rval != 12 {
				t.Fatalf("seq 2 after lap-forced drain: %+v, want Committed/known/rval 12", v)
			}
			if v := e.Detect(0, 3); v.Verdict != Unknown {
				t.Fatalf("seq 3 undrained: %v, want Unknown", v.Verdict)
			}
		})
	}
}

// TestDrainOneLinePerClient pins the drain's verdict lines: a depth-8
// window of one client — installing and no-install operations, mixed
// results, one dequeue-like return word in the middle — drains as two
// lines (the return word's and the newest seq's), whose bits carry every
// other seq. After the drain's End fence every seq reads Committed with its
// recorded result. A crash anywhere in the window or the drain leaves, under
// DropAll, DropFlushed and KeepFlushed, a committed prefix: no seq reads
// Committed after one that does not, and every Committed seq has its
// recorded result — except the return-word seq when only the newest line
// survived, which reads Committed without one.
func TestDrainOneLinePerClient(t *testing.T) {
	const ring = 8
	type op struct {
		installs, result bool
		rval             uint64
	}
	window := [ring]op{
		{true, true, 0}, {false, false, 0}, {true, false, 0}, {false, true, 0},
		{true, true, 44}, {false, false, 0}, {true, true, 0}, {false, true, 0},
	}
	run := func(e Engine, c *Ctx) {
		e.OpBegin(c)
		for i, o := range window {
			seq := uint64(i + 1)
			e.DetectBeginDeferred(c, 0, seq, DetectDelete, seq, 0)
			if o.installs {
				e.Store(c, Root, 0, seq)
			}
			e.DetectEndDeferred(c, o.result, o.rval)
		}
		e.OpEnd(c)
		e.DetectDrain(c)
	}
	check := func(t *testing.T, e Engine, drained bool) {
		t.Helper()
		prefix := true
		for i, o := range window {
			seq := uint64(i + 1)
			v := e.Detect(0, seq)
			if v.Verdict != Committed {
				if drained {
					t.Fatalf("seq %d after the drain: %+v, want Committed", seq, v)
				}
				prefix = false
				continue
			}
			if !prefix {
				t.Fatalf("seq %d reads Committed after an earlier seq that does not", seq)
			}
			if !v.KnownResult && (drained || o.rval == 0) {
				t.Fatalf("seq %d: %+v, want its recorded result", seq, v)
			}
			if v.KnownResult && (v.Result != o.result || v.Rval != o.rval) {
				t.Fatalf("seq %d: %+v, want result %v / rval %d", seq, v, o.result, o.rval)
			}
		}
	}
	for _, k := range durableKinds() {
		t.Run(k.String(), func(t *testing.T) {
			cfg := Config{Kind: k, Words: 1 << 14, Track: true, Clients: 1, DetectRing: ring}
			e := New(cfg)
			c := e.NewCtx()
			run(e, c)
			if s := e.Stats(); s.DetectAnnounces != ring || s.DetectVerdicts != ring {
				t.Fatalf("counted %d announces and %d verdicts, want %d each", s.DetectAnnounces, s.DetectVerdicts, ring)
			}
			desc := descRegionOf(e)
			var lines []uint64
			for seq := uint64(1); seq <= ring; seq++ {
				if v, ok := desc.verdictAt(desc.entry(0, seq)); ok {
					lines = append(lines, v.seq)
				}
			}
			if len(lines) != 2 || lines[0] != 5 || lines[1] != ring {
				t.Fatalf("verdict lines for seqs %v, want [5 %d]", lines, ring)
			}
			e.Freeze()
			e.Crash(pmem.CrashDropAll, nil)
			check(t, e, true)

			for _, policy := range []pmem.CrashPolicy{pmem.CrashDropAll, pmem.CrashDropFlushed, pmem.CrashKeepFlushed} {
				for fa := int64(1); ; fa++ {
					e := New(cfg)
					c := e.NewCtx()
					e.FreezeAfter(fa)
					completed := func() (ok bool) {
						defer func() {
							if r := recover(); r != nil && r != pmem.ErrFrozen {
								panic(r)
							}
						}()
						run(e, c)
						return true
					}()
					e.FreezeAfter(0)
					e.Crash(policy, nil)
					check(t, e, completed)
					if completed {
						break
					}
				}
			}
		})
	}
}

// TestDeferredDetectSavesFences pins the amortization the serving tier is
// built on: a batch of K detectable ops under one drain issues strictly
// fewer fences than the same K ops each drained on its own.
func TestDeferredDetectSavesFences(t *testing.T) {
	const ops = 8
	for _, k := range durableKinds() {
		t.Run(k.String(), func(t *testing.T) {
			count := func(deferred bool) uint64 {
				e := New(Config{Kind: k, Words: 1 << 14, Track: true, Clients: ops})
				c := e.NewCtx()
				_, before := e.Counters()
				for cl := 0; cl < ops; cl++ {
					runDetectable(e, c, cl, 1, deferred, 0)
				}
				if deferred {
					DetectDrain(e, c)
				}
				_, after := e.Counters()
				return after - before
			}
			perOp, batched := count(false), count(true)
			if batched >= perOp {
				t.Fatalf("deferred verdicts did not save fences: batched %d >= per-op %d",
					batched, perOp)
			}
		})
	}
}

// TestAnnounceFencedAtFirstInstall pins where the announce fence sits: not
// at DetectBeginDeferred (a fence there would protect nothing when no
// install follows), but in the write path, ahead of the armed operation's
// first durable-before-visible install and only if no fence has covered the
// announce since Begin.
func TestAnnounceFencedAtFirstInstall(t *testing.T) {
	fences := func(e Engine) uint64 { _, n := e.Counters(); return n }
	for _, k := range durableKinds() {
		t.Run(k.String(), func(t *testing.T) {
			e := New(Config{Kind: k, Words: 1 << 14, Track: true, Clients: 1})
			c := e.NewCtx()
			e.OpBegin(c)
			n0 := fences(e)
			e.DetectBeginDeferred(c, 0, 1, DetectDelete, 5, 0)
			if n := fences(e); n != n0 {
				t.Fatalf("DetectBeginDeferred issued %d fences, want none", n-n0)
			}
			if k != MirrorDRAM && k != MirrorNVMM {
				return // the direct disciplines fence around reads and at OpEnd; exact counts below are Mirror's
			}

			// No install: the armed announce is dropped unflushed, and the
			// verdict commits under the drain's one End fence.
			f0, _ := e.Counters()
			e.DetectEndDeferred(c, false, 0)
			e.OpEnd(c)
			e.DetectDrain(c)
			if n := fences(e); n != n0+1 {
				t.Fatalf("no-install operation: %d fences, want 1 (End)", n-n0)
			}
			if f, _ := e.Counters(); f != f0+1 {
				t.Fatalf("no-install operation: %d flushes, want 1 (the verdict line)", f-f0)
			}

			// First install: the barrier's fence plus the install's own; a
			// second install finds the announce covered; a relaxed install
			// never trips the barrier.
			e.OpBegin(c)
			ref := e.Alloc(c, 2)
			e.StoreInit(c, ref, 0, 1)
			e.StoreInit(c, ref, 1, 1)
			e.Publish(c, ref)
			n0 = fences(e)
			e.DetectBeginDeferred(c, 0, 2, DetectDelete, 5, 0)
			if !e.CASRelaxed(c, ref, 1, 1, 2) || fences(e) != n0 {
				t.Fatalf("relaxed install: %d fences, want none", fences(e)-n0)
			}
			if !e.CAS(c, ref, 0, 1, 2) || fences(e) != n0+2 {
				t.Fatalf("first install: %d fences, want 2 (announce barrier + install)", fences(e)-n0)
			}
			if !e.CAS(c, ref, 0, 2, 3) || fences(e) != n0+3 {
				t.Fatalf("second install: %d fences in all, want 3 (no second announce fence)", fences(e)-n0)
			}
			e.DetectEndDeferred(c, true, 0)
			e.OpEnd(c)
			e.DetectDrain(c)

			// An insert's publish fence covers the announce: the install
			// pays only for itself.
			e.OpBegin(c)
			e.DetectBeginDeferred(c, 0, 3, DetectInsert, 6, 60)
			node := e.Alloc(c, 2)
			e.StoreInit(c, node, 0, 7)
			e.StoreInit(c, node, 1, 0)
			n0 = fences(e)
			e.Publish(c, node)
			if !e.CAS(c, ref, 0, 3, node) || fences(e) != n0+2 {
				t.Fatalf("publish + install: %d fences, want 2 (the publish fence carried the announce)", fences(e)-n0)
			}
			e.DetectEndDeferred(c, true, 0)
			e.OpEnd(c)
			e.DetectDrain(c)
		})
	}
}

// TestAttachAdoptsMediaFile pins the serving tier's restart path: an engine
// over a file-backed media is abandoned without any crash call (the process
// "died"), and a second engine with Config.Attach adopts the file, recovers,
// and serves the fenced state.
func TestAttachAdoptsMediaFile(t *testing.T) {
	for _, k := range durableKinds() {
		t.Run(k.String(), func(t *testing.T) {
			cfg := Config{
				Kind: k, Words: 1 << 14, Track: true,
				MediaPath: filepath.Join(t.TempDir(), "media.img"),
			}
			e := New(cfg)
			c := e.NewCtx()
			e.OpBegin(c)
			e.Store(c, Root, 0, 42)
			e.Store(c, Root, 1, 43)
			e.OpEnd(c)
			e.Drain(c)
			// e is abandoned here: no Freeze, no Crash.

			cfg.Attach = true
			e2 := New(cfg)
			e2.Recover(nil)
			c2 := e2.NewCtx()
			e2.OpBegin(c2)
			if got := e2.Load(c2, Root, 0); got != 42 {
				t.Fatalf("root field 0 after attach: %d, want 42", got)
			}
			if got := e2.Load(c2, Root, 1); got != 43 {
				t.Fatalf("root field 1 after attach: %d, want 43", got)
			}
			// The adopted engine must be fully operable, including another
			// durable store over the same file.
			e2.Store(c2, Root, 0, 44)
			e2.OpEnd(c2)
			if got := e2.Load(c2, Root, 0); got != 44 {
				t.Fatalf("store after attach: %d, want 44", got)
			}
		})
	}
}
