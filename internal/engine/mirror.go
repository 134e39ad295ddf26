package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"mirror/internal/palloc"
	"mirror/internal/patomic"
	"mirror/internal/pmem"
)

// mirrorEngine implements the paper's transformation. Every mutable field
// is a patomic cell — two words (value, sequence number) present at the
// same offset on a persistent device (rep_p) and a volatile device (rep_v);
// every write-once or rebuilt field is a plain word at the same offset of
// both (Plain). MirrorDRAM places rep_v on DRAM (§6.2); MirrorNVMM places
// both replicas on NVMM-speed memory (§6.3) while still treating the second
// as volatile.
type mirrorEngine struct {
	detector   // per-client op descriptors on rep_p
	mem        patomic.Mem
	rootFields int

	mu    sync.Mutex
	alloc *palloc.Allocator
	recl  *palloc.Reclaimer
	cold  bool // rep_p's view is empty until recovery restores it (Config.Attach)

	// orphans holds the witnesses closed contexts still owed (O6): their
	// limbo passed to other contexts, whose drains pay them.
	orphanMu sync.Mutex
	orphans  []owedWitness
	orphaned atomic.Bool
}

func newMirror(cfg Config) *mirrorEngine {
	vModel := pmem.NVMMModel()
	if cfg.Kind == MirrorDRAM {
		vModel = pmem.DRAMModel()
	}
	p := pmem.New(pmem.Config{
		Name:       cfg.Kind.String() + "-rep_p",
		Words:      cfg.Words,
		Persistent: true,
		Track:      cfg.Track,
		Model:      pmem.NVMMModel(),
		MediaPath:  cfg.MediaPath,
	})
	v := pmem.New(pmem.Config{
		Name:  cfg.Kind.String() + "-rep_v",
		Words: cfg.Words,
		Model: vModel,
	})
	e := &mirrorEngine{
		mem:        patomic.Mem{P: p, V: v},
		rootFields: cfg.RootFields,
		recl:       palloc.NewReclaimer(),
	}
	e.eng = e
	// The descriptor region (when configured) sits between the roots and
	// the allocator base, on rep_p only: descriptors are raw words of the
	// persistent replica, never mirrored and never traced.
	descBase, allocBase := cfg.layout()
	if cfg.Clients > 0 {
		// A delete's mark names its operation (detect.go "Tags"): a helper
		// that mirrors one persists the announce line it names first.
		e.desc = newDescRegion(p, descBase, cfg.Clients, cfg.DetectRing, true)
		e.tagging = true
		e.mem.Witness = e.desc.witness
	}
	e.alloc = palloc.New(palloc.Config{
		Base: allocBase,
		End:  uint64(p.Size()),
	})
	if cfg.Attach {
		// Adopting a previous incarnation's media: its root cells are
		// already initialized there, and any construction-time write would
		// clobber surviving state. The engine is left crashed-but-unfrozen
		// with rep_p's view empty; the caller's Recover restores what it
		// reaches and rebuilds rep_v and the allocator.
		if !cfg.Track {
			panic("engine: Attach requires Config.Track")
		}
		e.cold = true
		return e
	}
	// Root cells start initialized so the sequence-number invariants hold
	// from the first operation.
	var ctx patomic.Ctx
	for f := 0; f < cfg.RootFields; f++ {
		e.mem.InitCell(&ctx, mirrorAddr(Root, f), 0)
	}
	e.mem.PublishFence(&ctx)
	return e
}

func (e *mirrorEngine) NewCtx() *Ctx {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := &Ctx{Cache: palloc.NewCache(e.alloc, e.recl)}
	// Before a drain batch frees anything, commit everything deferred: the
	// media must never hold a pointer into reused memory, nor miss the
	// witness of a delete whose node the batch frees (O6).
	c.Cache.PreFree = func() { e.Drain(c) }
	if e.desc != nil {
		c.pa.AfterTagged = func(off uint64) { e.nameMark(c, off) }
		c.onClose = func() {
			// The limbo passes to other contexts: so do the witnesses it
			// owes, which their drains pay before freeing it.
			if len(c.owed) > 0 {
				e.orphanMu.Lock()
				e.orphans = append(e.orphans, c.owed...)
				e.orphaned.Store(true)
				e.orphanMu.Unlock()
				c.owed = nil
			}
		}
	}
	return c
}

// mirrorAddr maps a field to its offset on both replicas: its patomic
// cell's, or its plain word's.
func mirrorAddr(ref Ref, field int) uint64 {
	return ref + uint64(span(field, patomic.CellWords))
}

func (e *mirrorEngine) OpBegin(c *Ctx) { c.Cache.Enter() }

// OpEnd needs no durability barrier: every Mirror write is durable before
// it is visible, so a completed operation is durable by construction.
func (e *mirrorEngine) OpEnd(c *Ctx) { c.Cache.Exit() }

func (e *mirrorEngine) Alloc(c *Ctx, fields int) Ref {
	return c.Cache.Alloc(span(fields, patomic.CellWords))
}

func (e *mirrorEngine) StoreInit(c *Ctx, ref Ref, field int, v uint64) {
	if field < Plain {
		e.mem.InitCell(&c.pa, mirrorAddr(ref, field), v)
		return
	}
	if c.det.nodeTag && v>>TagShift == c.det.tag {
		e.name(c, mirrorAddr(ref, field))
	}
	e.mem.InitWord(&c.pa, mirrorAddr(ref, field), v)
}

// name records in the armed operation's announce the word that testifies
// for it (O7), before the fence that commits both: the fence flushes the
// line if it is still armed there, else the line is flushed now. It names
// nothing while an earlier seq of the client awaits its verdict on the
// context: the word would commit the operation ahead of that seq, and a
// client's committed seqs must form a prefix. The operation then keeps its
// verdict.
func (e *mirrorEngine) name(c *Ctx, word uint64) bool {
	c.det.nodeTag = false
	if c.verdictPending(c.det.client) {
		return false
	}
	c.det.named = true
	e.desc.name(c.det.client, c.det.seq, word)
	if fs := &c.pa.FS; !c.det.annOpen || !fs.Armed() {
		e.mem.P.Flush(fs, e.desc.entry(c.det.client, c.det.seq))
	}
	return true
}

// nameMark is the context's patomic AfterTagged hook: the armed
// operation's tagged mark reached rep_p, so it names the mark's word, as
// a mark, before the mark's own fence commits both.
func (e *mirrorEngine) nameMark(c *Ctx, off uint64) {
	c.det.marked = e.name(c, off|namedMark)
}

func (e *mirrorEngine) Publish(c *Ctx, ref Ref) {
	e.mem.PublishFence(&c.pa)
}

func (e *mirrorEngine) FreeUnpublished(c *Ctx, ref Ref, fields int) {
	c.Cache.Free(ref, span(fields, patomic.CellWords))
}

// Retire of the node whose mark is the armed operation's own evidence
// leaves the context a witness owed: the node's memory is reused only
// after a pre-free drain of the context, which pays it first (O6).
func (e *mirrorEngine) Retire(c *Ctx, ref Ref, fields int) {
	if c.det.marked {
		c.det.marked = false
		c.owed = append(c.owed, owedWitness{client: c.det.client, seq: c.det.seq, epoch: e.recl.Epoch()})
	}
	c.Cache.Retire(ref, span(fields, patomic.CellWords))
}

// Load is Figure 5: it reads rep_v's value word of a cell, or its plain
// word — one 8-byte read either way. It reads the device itself, which is
// what patomic.Mem.Load does, one call shallower.
func (e *mirrorEngine) Load(c *Ctx, ref Ref, field int) uint64 {
	return e.mem.V.Load(mirrorAddr(ref, field))
}

// TraversalLoad is identical to Load: Mirror never persists reads, which is
// precisely why it needs no traversal/critical distinction.
func (e *mirrorEngine) TraversalLoad(c *Ctx, ref Ref, field int) uint64 {
	return e.mem.V.Load(mirrorAddr(ref, field))
}

func (e *mirrorEngine) Store(c *Ctx, ref Ref, field int, v uint64) {
	checkKind(field, false)
	e.announceBarrier(c)
	e.mem.Store(&c.pa, mirrorAddr(ref, field), v)
}

// CAS passes the announce barrier first, unless it installs the armed
// operation's own tag: then its own fence commits the announce with the
// install (detect.go "Tags", O1). A CAS that dooms a tagged word (Ctx.Doom)
// witnesses it first (O6).
func (e *mirrorEngine) CAS(c *Ctx, ref Ref, field int, old, new uint64) bool {
	checkKind(field, false)
	in := patomic.Full
	if e.ownTag(c, new) {
		in = patomic.Tagged
	} else {
		e.announceBarrier(c)
	}
	if c.doom.w != 0 {
		e.witnessDoomed(c, in == patomic.Tagged)
	}
	ok, _ := e.mem.CAS(&c.pa, mirrorAddr(ref, field), old, new, in)
	return ok
}

// witnessDoomed writes O6's witness for the word the next install dooms.
// A tagged install's own fence commits the line before the install is
// visible, and a helper that mirrors the install persists it first; any
// other install fences it now, ahead of its rep_p install.
func (e *mirrorEngine) witnessDoomed(c *Ctx, tagged bool) {
	d := c.doom
	c.doom = doomed{}
	line := e.desc.witnessInsert(&c.pa.FS, mirrorAddr(d.ref, d.field), d.w)
	switch {
	case tagged:
		e.desc.witnessLines[e.desc.index(c.det.client, c.det.seq)].Store(line)
	case line != 0:
		e.desc.witnessFences.Add(1)
		e.mem.P.Fence(&c.pa.FS)
	}
}

func (e *mirrorEngine) CASRelaxed(c *Ctx, ref Ref, field int, old, new uint64) bool {
	checkKind(field, false)
	ok, _ := e.mem.CAS(&c.pa, mirrorAddr(ref, field), old, new, patomic.Auxiliary)
	return ok
}

// CASRebuilt is one word CAS on rep_v: a rebuilt word has no sequence
// number and no durable value, so there is nothing to validate, help or
// persist, and rep_p is neither read nor written.
func (e *mirrorEngine) CASRebuilt(c *Ctx, ref Ref, field int, old, new uint64) bool {
	checkKind(field, true)
	return e.mem.V.CAS(mirrorAddr(ref, field), old, new)
}

func (e *mirrorEngine) MakePersistent(c *Ctx, ref Ref, fields int) {}

// Drain commits the relaxed-line registry, the witnesses the context owes
// for the nodes a drain batch may free now (O6), and anything flushed on
// the context that no fence covered yet; it fences only when there is
// something to commit.
func (e *mirrorEngine) Drain(c *Ctx) {
	fs := &c.pa.FS
	if len(c.owed) > 0 {
		c.owed = e.desc.payOwed(fs, c.owed, e.recl.Epoch())
	}
	if e.orphaned.Load() {
		e.orphanMu.Lock()
		e.orphans = e.desc.payOwed(fs, e.orphans, e.recl.Epoch())
		e.orphaned.Store(len(e.orphans) > 0)
		e.orphanMu.Unlock()
	}
	e.mem.P.CommitPending(fs)
}

func (e *mirrorEngine) Freeze() {
	e.mem.P.Freeze()
	e.mem.V.Freeze()
}

func (e *mirrorEngine) FreezeAfter(n int64) { e.mem.P.FreezeAfter(n) }

func (e *mirrorEngine) Crash(policy pmem.CrashPolicy, rng *rand.Rand) {
	e.mem.P.Freeze()
	e.mem.V.Freeze()
	e.mem.P.Crash(policy, rng)
	e.mem.V.Crash(policy, rng) // volatile: wiped
}

// Recover implements §4.3.3 sequentially; it is RecoverWith with zero
// options.
func (e *mirrorEngine) Recover(tr Tracer) { e.RecoverWith(tr, RecoverOptions{}) }

// RecoverWith implements §4.3.3 as one streamed pass (rebuild): resurrect
// the roots, then walk the persistent post-crash image once from them; each
// batch of reachable spans the walk visits is copied from rep_p to rep_v at
// the same offsets (bulk range copies, which stop before a span's rebuilt
// words) and folded into an allocator scan, while the walk goes on. The
// walk writes the rebuilt words it recovers straight into rep_v (relink).
// The scans then rebuild the allocator — everything unreachable is
// reclaimed, the offline GC.
//
// Over an adopted media file (Config.Attach) rep_p's view starts empty: the
// roots and descriptor region are restored first, the trace reads the media
// itself, and each span is restored just before it is mirrored, so attach
// copies what is live and nothing else. A rebuilt word is never restored:
// rep_p's view of it stays empty, and nothing reads it there.
//
// The pass is idempotent: it only writes the volatile replica, the view of
// what rep_p already holds, and volatile allocator metadata, so a crash
// during recovery simply means recovery runs again from the unchanged
// persistent image.
func (e *mirrorEngine) RecoverWith(tr Tracer, opts RecoverOptions) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recl = palloc.NewReclaimer()

	read, cold := e.recoveryLoad, e.cold
	if cold {
		read = restoreFixed(e.mem.P, e.alloc, mirrorAddr)
	}
	e.mem.RecoverRange(Root, e.rootFields*patomic.CellWords)
	var traced func()
	if e.desc != nil {
		// Torn descriptor lines can never yield a verdict again; replace
		// them with the canonical empty encoding before clients ask.
		e.desc.Scrub()
		// The trace collects the tags its reads return (O3, O7).
		read, traced = e.desc.traceTags(read)
	}
	rebuild(read, tr, e.relink, opts.Workers(), e.alloc, patomic.CellWords, func(ref Ref, words int) {
		if cold {
			e.mem.P.Restore(ref, words)
		}
		e.mem.RecoverRange(ref, words)
	})
	if traced != nil {
		traced()
	}
	e.cold = false
}

// relink is the trace's write of a rebuilt word: rep_v only, where
// CASRebuilt keeps it (W2).
func (e *mirrorEngine) relink(ref Ref, field int, v uint64) {
	checkKind(field, true)
	e.mem.V.WriteRebuilt(mirrorAddr(ref, field), v)
}

// recoveryLoad reads a field of rep_p's post-crash image; only valid
// between Crash and the end of Recover.
func (e *mirrorEngine) recoveryLoad(ref Ref, field int) uint64 {
	return e.mem.P.ReadRaw(mirrorAddr(ref, field))
}

func (e *mirrorEngine) descFlushSet(c *Ctx) *pmem.FlushSet { return &c.pa.FS }

// settle: a Mirror install is durable before it is visible, so only deferred
// durability can trail a verdict, and that is nothing a verdict testifies to:
// the relaxed-line registry holds Auxiliary lines only. A drain merely
// flushes it into the context's flush set and lets the lines commit under
// the verdicts' own End fence.
func (e *mirrorEngine) settle(c *Ctx) { e.mem.P.FlushRelaxed(&c.pa.FS) }

// CheckInvariants verifies the per-cell replica invariants (Lemmas 5.3–5.5)
// for every cell of an object. Its plain words have none: a write-once word
// is equal on both replicas by W1, and a rebuilt one may differ by W2.
func (e *mirrorEngine) CheckInvariants(ref Ref, fields int) string {
	cells := fields
	if fields >= Plain {
		cells = fields / Plain
	}
	for f := 0; f < cells; f++ {
		if msg := e.mem.CheckInvariants(mirrorAddr(ref, f)); msg != "" {
			return fmt.Sprintf("ref %d field %d: %s", ref, f, msg)
		}
	}
	return ""
}

func (e *mirrorEngine) Devices() []*pmem.Device { return []*pmem.Device{e.mem.P, e.mem.V} }

func (e *mirrorEngine) Stats() Stats {
	h, r := e.mem.Stats()
	ef, en, rx := e.mem.P.ElisionCounters()
	s := Stats{
		Helps: h, Retries: r,
		ElidedFlushes: ef, ElidedFences: en, RelaxedCAS: rx,
	}
	if e.desc != nil {
		e.desc.stats(&s)
	}
	return s
}

func (e *mirrorEngine) Counters() (uint64, uint64) {
	f1, n1 := e.mem.P.Counters()
	f2, n2 := e.mem.V.Counters()
	return f1 + f2, n1 + n2
}

func (e *mirrorEngine) Footprint() (uint64, int) {
	return e.alloc.LiveWords(), 2
}
