package structures_test

import (
	"fmt"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/structures"
	"mirror/internal/structures/queue"
	"mirror/internal/structures/skiplist"
)

// passThrough forwards every Engine method and adds nothing: the shape of
// any counting, tracing or fault-injecting wrapper.
type passThrough struct{ engine.Engine }

// TestWrapperTransparency pins that an engine behaves identically behind a
// pass-through wrapper. Every capability a structure uses is either a
// method of engine.Engine or routed on the context, never discovered from
// the engine value's dynamic type — so the same single-threaded script must
// issue the same flushes and fences, report the same statistics and leave
// the same media image.
func TestWrapperTransparency(t *testing.T) {
	type outcome struct {
		flushes, fences uint64
		stats           engine.Stats
		media           uint64
	}
	for name, build := range builders() {
		name, build := name, build
		t.Run(name+"/default", func(t *testing.T) {
			t.Parallel()
			run := func(wrap bool) outcome {
				raw := engine.New(engine.Config{
					Kind: engine.MirrorDRAM, Words: 1 << 18, Track: true,
				})
				e := raw
				if wrap {
					e = passThrough{raw}
				}
				c := e.NewCtx()
				set := build(e, c)
				// Insert, delete, re-insert: the deletes leave marked
				// nodes for the re-inserts' traversals to cross and snip.
				for k := uint64(1); k <= 200; k++ {
					set.Insert(c, k, k)
				}
				for k := uint64(1); k <= 200; k += 2 {
					set.Delete(c, k)
				}
				for k := uint64(1); k <= 200; k++ {
					set.Insert(c, k, k+1)
				}
				var o outcome
				o.flushes, o.fences = raw.Counters()
				o.stats = raw.Stats()
				raw.Drain(c)
				o.media = engine.PersistentDevices(raw)[0].MediaHash()
				return o
			}
			direct, wrapped := run(false), run(true)
			if direct != wrapped {
				t.Fatalf("the wrapper changed the engine's behaviour:\n raw     %+v\n wrapped %+v", direct, wrapped)
			}
		})
	}
}

// TestWrapperKeepsDeferredVerdict pins the detect calls behind a wrapper: a
// dequeue's value travels in DetectEndDeferred's rval, so a wrapper that
// dropped it would lose the value.
func TestWrapperKeepsDeferredVerdict(t *testing.T) {
	e := passThrough{engine.New(engine.Config{
		Kind: engine.MirrorDRAM, Words: 1 << 16, Track: true, Clients: 1,
	})}
	c := e.NewCtx()
	q := queue.New(e, c)

	e.DetectBeginDeferred(c, 0, 1, engine.DetectEnqueue, 0, 77)
	q.Enqueue(c, 77)
	e.DetectEndDeferred(c, true, 0)
	e.DetectBeginDeferred(c, 0, 2, engine.DetectDequeue, 0, 0)
	v, ok := q.Dequeue(c)
	e.DetectEndDeferred(c, ok, v)
	e.DetectDrain(c)

	if d := e.Detect(0, 2); d.Verdict != engine.Committed || !d.KnownResult || !d.Result || d.Rval != 77 {
		t.Fatalf("dequeue verdict through the wrapper = %+v, want Committed/true with rval 77", d)
	}
}

// TestServedMutationBudget pins what one served mutation costs on the
// default engine (MirrorDRAM, deferred verdicts), by kind and by tower
// height, in the serving tier's call sequence with one frame per drain. The
// engine enforces exactly two orders — announce before the first install,
// verdict after it — so the budget is: one fence for the announce iff the
// operation installs, no fence of its own precedes the install and the
// install does not carry the operation's tag (a delete's level-0 mark,
// whose own fence commits the announce with it), one fence per
// durable-before-visible install, and one End fence for the drain, which
// also carries the relaxed lines (level-0 snips) — except after an
// operation that took effect, whose tagged node or mark testifies for it and
// which writes no verdict line (engine detect.go "Evidence instead of a
// verdict"): its relaxed snips wait for the next drain. A delete whose
// victim's insert is still inside its ring window first flushes that
// insert's witness line on its mark's fence, and a delete that took effect
// owes its own witness to the drain that may free its node, if its window
// is open by then; an unarmed delete has no fence ahead of its mark's
// visibility and pays one witness fence (O6). No write
// above level 0 reaches a flush set or the relaxed registry: a tower of any
// height costs its node's lines and nothing per level, and a delete of any
// height registers only its level-0 snip. The announce line is flushed only
// by the first fence of its operation; one that installs nothing never
// flushes it, and pays one flush, its verdict line. The same numbers must
// come out behind a pass-through wrapper: the announce barrier sits in the
// engine's own write path and keys on the context.
func TestServedMutationBudget(t *testing.T) {
	type cost struct{ flushes, fences uint64 }
	for _, wrap := range []bool{false, true} {
		name := "raw"
		if wrap {
			name = "wrapped"
		}
		t.Run(name, func(t *testing.T) {
			raw := engine.New(engine.Config{
				Kind: engine.MirrorDRAM, Words: 1 << 16, Track: true, Clients: 1,
			})
			e := raw
			if wrap {
				e = passThrough{raw}
			}
			c := e.NewCtx()
			table := skiplist.New(e, c)
			e.Drain(c)
			// height reads a key's tower height off level 0.
			const rootHead = 3
			height := func(key uint64) int {
				head := raw.Load(c, engine.Root, rootHead)
				for n := structures.Unmark(raw.Load(c, head, skiplist.FieldNext)); n != 0; n = structures.Unmark(raw.Load(c, n, skiplist.FieldNext)) {
					if raw.Load(c, n, skiplist.FieldKey) == key {
						return skiplist.Height(raw.Load(c, n, skiplist.FieldTop))
					}
				}
				t.Fatalf("key %d is not on level 0", key)
				return 0
			}
			seq := uint64(0)
			insertedAt := map[uint64]uint64{}
			// open reports whether the insert of key is still inside its
			// ring window once the client has armed seq last: its entry
			// is rewritten when the client arms insertedAt + Ring.
			open := func(key, seq uint64) bool { return seq-insertedAt[key] < engine.DefaultDetectRing }
			// begin and end bracket one frame as server.worker.exec does;
			// serve adds the release of a one-frame batch.
			begin := func(kind, key uint64) {
				seq++
				e.DetectBeginDeferred(c, 0, seq, kind, key, key)
			}
			serve := func(kind, key uint64, op func() bool) (cost, bool, uint64) {
				f0, n0 := raw.Counters()
				r0 := raw.Stats().RelaxedCAS
				begin(kind, key)
				res := op()
				e.DetectEndDeferred(c, res, 0)
				e.DetectDrain(c)
				f1, n1 := raw.Counters()
				return cost{f1 - f0, n1 - n0}, res, raw.Stats().RelaxedCAS - r0
			}
			insert := func(key uint64) (cost, bool, uint64) {
				got, ok, relaxed := serve(engine.DetectInsert, key, func() bool { return table.Insert(c, key, key) })
				if ok {
					insertedAt[key] = seq
				}
				return got, ok, relaxed
			}
			remove := func(key uint64) (cost, bool, uint64) {
				return serve(engine.DetectDelete, key, func() bool { return table.Delete(c, key) })
			}
			check := func(what string, got, want cost) {
				t.Helper()
				if got != want {
					t.Errorf("%s: %d flushes, %d fences; want %d, %d", what, got.flushes, got.fences, want.flushes, want.fences)
				}
			}

			// Fresh inserts until towers of heights 1 to 4 were seen. Fences:
			// the publish fence (which covers the announce and the tagged
			// node), the level-0 link — two at any height, and no End.
			// Flushes: announce, the node's lines, the level-0 link; a node
			// of height h is two cells and h+1 plain words, 5+h words, so its
			// lines grow with h, and its upper links add nothing.
			nodeFlushes := map[int]uint64{1: 3, 2: 3, 3: 3, 4: 4}
			byHeight := map[int]uint64{}
			var key uint64
			for len(byHeight) < len(nodeFlushes) {
				key++
				got, ok, relaxed := insert(key)
				if !ok {
					t.Fatalf("insert of fresh key %d failed", key)
				}
				h := height(key)
				if got.fences != 2 || relaxed != 0 {
					t.Errorf("insert-new key %d of height %d: %d fences, %d relaxed installs; want 2, 0", key, h, got.fences, relaxed)
				}
				if want, pinned := nodeFlushes[h]; pinned {
					check(fmt.Sprintf("insert-new of height %d", h), got, cost{want, 2})
					if byHeight[h] == 0 {
						byHeight[h] = key
					}
				}
			}
			flat := byHeight[1]
			got, ok, _ := insert(flat)
			if ok {
				t.Fatal("insert of a present key succeeded")
			}
			// No fence before the verdict: the armed announce is dropped
			// unflushed, and the verdict line alone rides the End fence.
			check("insert-found", got, cost{1, 1})

			// The tagged mark, whose fence also flushes the armed announce;
			// no End. The upper marks and snips of a taller tower add
			// nothing. Flushes: announce, mark, and the insert's witness
			// line while the insert is inside its window (the last tower
			// found).
			for h := 1; h <= len(nodeFlushes); h++ {
				want := cost{2, 1}
				if open(byHeight[h], seq+1) {
					want.flushes++
				}
				got, ok, relaxed := remove(byHeight[h])
				if !ok || relaxed != 1 {
					t.Fatalf("delete of present key %d of height %d: result %v, %d relaxed installs (want the level-0 snip only)",
						byHeight[h], h, ok, relaxed)
				}
				check(fmt.Sprintf("delete-found of height %d", h), got, want)
			}
			if want := uint64(1); raw.Stats().Witnesses != want {
				t.Errorf("%d witnesses written, want %d", raw.Stats().Witnesses, want)
			}
			// The next drain commits the four relaxed level-0 snips: a flush
			// each and one fence. The deletes' own witnesses stay owed until
			// a drain may free their nodes, two reclamation epochs on.
			f0, n0 := raw.Counters()
			e.Drain(c)
			f1, n1 := raw.Counters()
			check("the deletes' snips at the next drain", cost{f1 - f0, n1 - n0}, cost{4, 1})

			got, ok, _ = remove(flat)
			if ok {
				t.Fatal("delete of an absent key succeeded")
			}
			check("delete-missing", got, cost{1, 1})

			// Depth 8: eight no-effect frames, one drain, one fence — and one
			// verdict line, the newest seq's, whose bits carry the other seven.
			f0, n0 = raw.Counters()
			for i := 0; i < 8; i++ {
				begin(engine.DetectDelete, flat)
				e.DetectEndDeferred(c, table.Delete(c, flat), 0)
			}
			e.DetectDrain(c)
			f1, n1 = raw.Counters()
			check("eight delete-missing under one drain", cost{f1 - f0, n1 - n0}, cost{1, 1})

			// The witness fallback: an unarmed delete of a key whose insert
			// is inside its window. Its mark is a plain CAS, so the witness
			// pays a fence of its own ahead of the mark's install: witness
			// and mark, a flush and a fence each; the snip stays relaxed,
			// and no verdict is written. Once the window has ended the same
			// delete costs the mark alone.
			unarmed := func(key uint64, ended bool) (cost, uint64) {
				if _, ok, _ := insert(key); !ok {
					t.Fatalf("insert of fresh key %d failed", key)
				}
				for ended && open(key, seq) {
					remove(flat) // delete-missing: a frame of the same client
				}
				f0, n0 := raw.Counters()
				w0 := raw.Stats().WitnessFences
				if !table.Delete(c, key) {
					t.Fatalf("unarmed delete of %d failed", key)
				}
				f1, n1 := raw.Counters()
				return cost{f1 - f0, n1 - n0}, raw.Stats().WitnessFences - w0
			}
			got, wf := unarmed(1001, false)
			check("unarmed delete-found inside the insert's window", got, cost{2, 2})
			if wf != 1 {
				t.Errorf("unarmed delete inside the window: %d witness fences, want 1", wf)
			}
			got, wf = unarmed(1002, true)
			check("unarmed delete-found after the insert's window", got, cost{1, 1})
			if wf != 0 {
				t.Errorf("unarmed delete after the window: %d witness fences, want 0", wf)
			}

		})
	}
}

// TestDrainWindowBudget pins the verdict lines of a depth-8 window under one
// drain: two clients, each with an insert, a delete and a dequeue among its
// four frames, in the serving tier's call sequence. A frame that takes
// effect is acknowledged on its tagged node or mark, with no line, when no
// earlier frame of its client awaits a verdict: always under a drain per
// frame (the two inserts and the delete), and only client 0's leading
// insert under one drain. The drain writes one verdict line per client's
// newest frame plus one per dequeue that is not it — 2 + 2 here — where a
// drain per frame writes five, and pays one End fence where the five drains
// with a verdict pay five; everything else is the same work.
func TestDrainWindowBudget(t *testing.T) {
	type frame struct {
		client int
		kind   uint64
		key    uint64
	}
	window := []frame{
		{0, engine.DetectInsert, 1001}, // insert-new
		{1, engine.DetectEnqueue, 7},
		{0, engine.DetectDequeue, 0},   // returns a value: a line of its own
		{1, engine.DetectDelete, 2},    // delete-found
		{0, engine.DetectDelete, 999},  // delete-missing
		{1, engine.DetectDequeue, 0},   // returns a value: a line of its own
		{0, engine.DetectInsert, 3},    // insert-found
		{1, engine.DetectInsert, 1002}, // insert-new
	}
	run := func(drainEach bool) (flushes, fences uint64) {
		e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 16, Track: true, Clients: 2})
		c := e.NewCtx()
		table := skiplist.NewAt(e, c, 0)
		q := queue.NewAt(e, c, 4)
		for k := uint64(1); k <= 4; k++ {
			table.Insert(c, k, k)
		}
		q.Enqueue(c, 101)
		q.Enqueue(c, 102)
		e.Drain(c)
		var seqs [2]uint64
		f0, n0 := e.Counters()
		for _, fr := range window {
			seqs[fr.client]++
			e.DetectBeginDeferred(c, fr.client, seqs[fr.client], fr.kind, fr.key, fr.key)
			var ok bool
			var rval uint64
			switch fr.kind {
			case engine.DetectInsert:
				ok = table.Insert(c, fr.key, fr.key)
			case engine.DetectDelete:
				ok = table.Delete(c, fr.key)
			case engine.DetectEnqueue:
				q.Enqueue(c, fr.key)
				ok = true
			case engine.DetectDequeue:
				rval, ok = q.Dequeue(c)
				if !ok || rval == 0 {
					t.Fatalf("dequeue returned (%d, %v), want a value", rval, ok)
				}
			}
			e.DetectEndDeferred(c, ok, rval)
			if drainEach {
				e.DetectDrain(c)
			}
		}
		e.DetectDrain(c)
		f1, n1 := e.Counters()
		for client, last := range seqs {
			for seq := uint64(1); seq <= last; seq++ {
				if d := e.Detect(client, seq); d.Verdict != engine.Committed || !d.KnownResult {
					t.Fatalf("client %d seq %d after the drain: %+v, want Committed with its result", client, seq, d)
				}
			}
		}
		return f1 - f0, n1 - n0
	}
	const evidencedEach, lines = 3, 2 + 2
	fl, fe := run(false)
	flEach, feEach := run(true)
	if flEach-fl != uint64(len(window)-evidencedEach-lines) || feEach-fe != uint64(len(window)-evidencedEach-1) {
		t.Errorf("one drain saved %d flushes and %d fences over a drain per frame, want %d and %d",
			flEach-fl, feEach-fe, len(window)-evidencedEach-lines, len(window)-evidencedEach-1)
	}
	// The delete-found frame's tagged mark commits its announce: no
	// barrier fence.
	if fl != 21 || fe != 13 {
		t.Errorf("window under one drain: %d flushes, %d fences; want 21, 13", fl, fe)
	}
}
