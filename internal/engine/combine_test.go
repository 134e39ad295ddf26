package engine

import (
	"testing"

	"mirror/internal/pmem"
)

func newCombineEngine(t *testing.T, clients int) Engine {
	t.Helper()
	return New(Config{Kind: MirrorDRAM, Words: 1 << 16, Track: true, Clients: clients, Combine: true})
}

// allocLine allocates an 8-field object (16 words in the two-word cell
// layout), so consecutive allocations never share a cache line and each
// CAS below buffers a distinct line.
func allocLine(e Engine, c *Ctx) Ref {
	ref := e.Alloc(c, 8)
	for f := 0; f < 8; f++ {
		e.StoreInit(c, ref, f, 1)
	}
	e.Publish(c, ref)
	return ref
}

// TestCombineDrainCapacityPinned pins the capacity drain to the exact
// instruction count: eight combined CASes on eight distinct lines cost
// zero fences until the eighth CombineAdd trips the line-capacity
// trigger, whose drain issues exactly one flush per buffered line and a
// single fence — (8 flushes, 1 fence) for 8 linearizing installs, where
// the eager path pays (8, 8).
func TestCombineDrainCapacityPinned(t *testing.T) {
	e := newCombineEngine(t, 0)
	c := e.NewCtx()
	e.OpBegin(c)
	refs := make([]Ref, 8)
	for i := range refs {
		refs[i] = allocLine(e, c)
	}
	f0, n0 := e.Counters()
	for i, ref := range refs {
		if !e.CAS(c, ref, 0, 1, 2) {
			t.Fatalf("CAS %d failed", i)
		}
		if i < 7 {
			if f, n := e.Counters(); f != f0 || n != n0 {
				t.Fatalf("CAS %d issued persistence ops early: flushes %d->%d fences %d->%d", i, f0, f, n0, n)
			}
		}
	}
	f1, n1 := e.Counters()
	if f1-f0 != 8 || n1-n0 != 1 {
		t.Fatalf("capacity drain: got (%d flushes, %d fences), want (8, 1)", f1-f0, n1-n0)
	}
	s := e.Stats()
	if s.CombinedFences != 8 {
		t.Fatalf("CombinedFences = %d, want 8", s.CombinedFences)
	}
	if s.DrainCauses.Capacity != 1 || s.DrainCauses != (pmem.DrainCauses{Capacity: 1}) {
		t.Fatalf("drain causes = %+v, want exactly one capacity drain", s.DrainCauses)
	}
	e.OpEnd(c)
}

// TestCombineDrainEpochPinned pins the epoch drain: one buffered CAS
// rides through seven operation boundaries fence-free; the eighth OpEnd
// pulse drains it with exactly one flush and one fence.
func TestCombineDrainEpochPinned(t *testing.T) {
	e := newCombineEngine(t, 0)
	c := e.NewCtx()
	e.OpBegin(c)
	ref := allocLine(e, c)
	f0, n0 := e.Counters()
	if !e.CAS(c, ref, 0, 1, 2) {
		t.Fatal("CAS failed")
	}
	e.OpEnd(c)               // pulse 1
	for i := 0; i < 6; i++ { // pulses 2..7
		e.OpBegin(c)
		e.OpEnd(c)
	}
	if f, n := e.Counters(); f != f0 || n != n0 {
		t.Fatalf("drained before the epoch elapsed: flushes %d->%d fences %d->%d", f0, f, n0, n)
	}
	e.OpBegin(c)
	e.OpEnd(c) // pulse 8: epoch drain
	f1, n1 := e.Counters()
	if f1-f0 != 1 || n1-n0 != 1 {
		t.Fatalf("epoch drain: got (%d flushes, %d fences), want (1, 1)", f1-f0, n1-n0)
	}
	if s := e.Stats(); s.DrainCauses != (pmem.DrainCauses{Epoch: 1}) {
		t.Fatalf("drain causes = %+v, want exactly one epoch drain", s.DrainCauses)
	}
}

// TestCombineDrainConflictPinned pins the conflict probe: a reader that
// observes another thread's buffered line commits it with exactly one
// flush and one fence, and the owner's later explicit drain then elides
// everything — the committed line costs nothing twice.
func TestCombineDrainConflictPinned(t *testing.T) {
	e := newCombineEngine(t, 0)
	c1 := e.NewCtx()
	e.OpBegin(c1)
	ref := allocLine(e, c1)
	if !e.CAS(c1, ref, 0, 1, 2) {
		t.Fatal("CAS failed")
	}
	e.OpEnd(c1)

	c2 := e.NewCtx()
	f0, n0 := e.Counters()
	e.OpBegin(c2)
	if v := e.Load(c2, ref, 0); v != 2 {
		t.Fatalf("Load = %d, want 2", v)
	}
	e.OpEnd(c2)
	f1, n1 := e.Counters()
	if f1-f0 != 1 || n1-n0 != 1 {
		t.Fatalf("conflict probe: got (%d flushes, %d fences), want (1, 1)", f1-f0, n1-n0)
	}
	if s := e.Stats(); s.DrainCauses != (pmem.DrainCauses{Conflict: 1}) {
		t.Fatalf("drain causes = %+v, want exactly one conflict drain", s.DrainCauses)
	}

	// The owner's combine drain finds its only line already committed by
	// the prober: the flush is elided against the watermark and the fence
	// is skipped outright — the committed line costs nothing twice. (The
	// full engine Drain additionally runs CommitRelaxed, whose registry
	// conservatively re-commits the line; this pins the combine layer.)
	me := e.(*mirrorEngine)
	me.mem.P.CombineDrain(&c1.pa.FS, pmem.DrainExplicit)
	f2, n2 := e.Counters()
	if f2 != f1 || n2 != n1 {
		t.Fatalf("owner drain after probe still issued (%d flushes, %d fences)", f2-f1, n2-n1)
	}
	if s := e.Stats(); s.DrainCauses.Explicit != 1 {
		t.Fatalf("drain causes = %+v, want the explicit drain recorded", s.DrainCauses)
	}
	if last, drained := CombineTickets(c1); last != 1 || drained != 1 {
		t.Fatalf("owner tickets = (%d, %d), want (1, 1) after the elided drain", last, drained)
	}
}

// TestCombineDrainDetectPinned pins the pre-verdict drain: a detectable
// operation's linearizing CAS buffers its fence, and the verdict publish
// in Linearized must drain the buffer (cause: detect) before the verdict
// can reach media — the verdict is never durable before the install.
func TestCombineDrainDetectPinned(t *testing.T) {
	e := newCombineEngine(t, 1)
	c := e.NewCtx()
	e.OpBegin(c)
	ref := allocLine(e, c)
	e.DetectBegin(c, 0, 1, DetectInsert, 7, 7)
	f0, n0 := e.Counters()
	if !e.CAS(c, ref, 0, 1, 2) {
		t.Fatal("CAS failed")
	}
	// The one fence is the announce barrier: nothing fenced between Begin
	// and this install, so the write path orders the announce first. (The
	// pin used to read 0: it armed with deferAnnounce and no publish fence
	// followed, so nothing ever ordered the announce before the install.)
	// The install itself still buffers — no flush, no fence of its own.
	if f, n := e.Counters(); f != f0 || n != n0+1 {
		t.Fatalf("combined CAS: flushes %d->%d fences %d->%d, want +0 flushes and the +1 announce fence", f0, f, n0, n)
	}
	e.Linearized(c, true)
	if s := e.Stats(); s.DrainCauses.Detect != 1 {
		t.Fatalf("drain causes = %+v, want a detect drain before the verdict", s.DrainCauses)
	}
	e.DetectEnd(c, true)
	e.OpEnd(c)
	if v := e.Detect(0, 1); v.Verdict != Committed || !v.Result {
		t.Fatalf("Detect = %+v, want Committed/true", v)
	}
}

// TestCombineAdoptWitnessPinned pins write-path adoption to the exact
// instruction counts. An update traversal crossing a foreign buffered
// install adopts the line into its own buffer at zero immediate cost
// (where the probing load pays a (1, 1) conflict drain on the spot);
// the adopted line counts as owned, so the exposure gate sees it; a
// no-effect verdict with no undrained ticket of its own then commits
// the witness with exactly one flush and one fence (cause: expose), and
// a second witness after the drain is free. A walker that *does* hold
// an undrained ticket pays nothing — its verdict vanishes with the
// ticket.
func TestCombineAdoptWitnessPinned(t *testing.T) {
	e := newCombineEngine(t, 0)
	owner := e.NewCtx()
	e.OpBegin(owner)
	ref := allocLine(e, owner)
	if !e.CAS(owner, ref, 0, 1, 2) {
		t.Fatal("owner CAS failed")
	}
	e.OpEnd(owner)

	// Ticketless walker: adopt is free, the witness drain is not.
	walker := e.NewCtx()
	e.OpBegin(walker)
	f0, n0 := e.Counters()
	if v := TraversalLoadAdopt(e, walker, ref, 0); v != 2 {
		t.Fatalf("TraversalLoadAdopt = %d, want 2", v)
	}
	if f, n := e.Counters(); f != f0 || n != n0 {
		t.Fatalf("adopt issued persistence ops: flushes %d->%d fences %d->%d", f0, f, n0, n)
	}
	if !CombineOwnsField(walker, ref, 0) {
		t.Fatal("adopted line not owned by the walker's buffer")
	}
	CommitWitness(walker)
	f1, n1 := e.Counters()
	if f1-f0 != 1 || n1-n0 != 1 {
		t.Fatalf("witness drain: got (%d flushes, %d fences), want (1, 1)", f1-f0, n1-n0)
	}
	if s := e.Stats(); s.DrainCauses.Expose != 1 {
		t.Fatalf("drain causes = %+v, want an expose drain for the witness", s.DrainCauses)
	}
	CommitWitness(walker) // drained: nothing left to witness
	if f, n := e.Counters(); f != f1 || n != n1 {
		t.Fatalf("second witness issued (%d flushes, %d fences)", f-f1, n-n1)
	}
	e.OpEnd(walker)

	// The owner's own drain finds its line already committed by the
	// walker's witness: flush elided, fence skipped.
	me := e.(*mirrorEngine)
	me.mem.P.CombineDrain(&owner.pa.FS, pmem.DrainExplicit)
	if f, n := e.Counters(); f != f1 || n != n1 {
		t.Fatalf("owner drain after witness still issued (%d flushes, %d fences)", f-f1, n-n1)
	}

	// Ticketed walker: a fresh foreign pending line is adopted, but the
	// walker's own buffered install means its verdicts may vanish with
	// the ticket — the witness is free.
	e.OpBegin(owner)
	ref2 := allocLine(e, owner)
	if !e.CAS(owner, ref2, 0, 1, 2) {
		t.Fatal("owner CAS failed")
	}
	e.OpEnd(owner)
	ticketed := e.NewCtx()
	e.OpBegin(ticketed)
	own := allocLine(e, ticketed)
	if !e.CAS(ticketed, own, 0, 1, 2) {
		t.Fatal("walker CAS failed")
	}
	f2, n2 := e.Counters()
	if v := TraversalLoadAdopt(e, ticketed, ref2, 0); v != 2 {
		t.Fatalf("TraversalLoadAdopt = %d, want 2", v)
	}
	CommitWitness(ticketed)
	if f, n := e.Counters(); f != f2 || n != n2 {
		t.Fatalf("ticketed witness issued (%d flushes, %d fences), want (0, 0)", f-f2, n-n2)
	}
	e.OpEnd(ticketed)
}
