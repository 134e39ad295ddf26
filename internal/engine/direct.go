package engine

import (
	"math/rand"
	"sync"

	"mirror/internal/palloc"
	"mirror/internal/pmem"
)

// directEngine implements the four single-replica engines: the two
// non-durable originals and the Izraelevitz and NVTraverse transformations.
// One word per field, cell or plain word alike, directly on one device.
type directEngine struct {
	detector // per-client op descriptors
	kind     Kind
	dev      *pmem.Device

	mu    sync.Mutex
	alloc *palloc.Allocator
	recl  *palloc.Reclaimer
	cold  bool // the device's view is empty until recovery restores it (Config.Attach)
}

func newDirect(cfg Config) *directEngine {
	model, persistent := pmem.NVMMModel(), cfg.Kind.Durable()
	if cfg.Kind == OrigDRAM {
		model = pmem.DRAMModel()
	}
	if cfg.MediaPath != "" && !persistent {
		panic("engine: Config.MediaPath on a non-durable engine")
	}
	dev := pmem.New(pmem.Config{
		Name:       cfg.Kind.String(),
		Words:      cfg.Words,
		Persistent: persistent,
		Track:      cfg.Track,
		Elide:      true,
		Model:      model,
		MediaPath:  cfg.MediaPath,
	})
	if cfg.Attach && (!persistent || !cfg.Track) {
		panic("engine: Attach requires a durable engine with Config.Track")
	}
	// Attach adopts the media image of a previous incarnation with the
	// device's view empty; the caller's Recover restores what it reaches and
	// rebuilds the allocator. (The direct engines write nothing at
	// construction, so there is no init to skip.)
	e := &directEngine{
		kind: cfg.Kind,
		dev:  dev,
		recl: palloc.NewReclaimer(),
		cold: cfg.Attach,
	}
	e.eng = e
	// Descriptor region between the roots and the allocator base. On the
	// non-durable originals the region exists but never flushes: it is
	// wiped at a crash, and every verdict honestly reads NotCommitted —
	// exactly what a volatile structure's client should be told.
	descBase, allocBase := cfg.layout()
	if cfg.Clients > 0 {
		e.desc = newDescRegion(dev, descBase, cfg.Clients, cfg.DetectRing, e.durable())
	}
	e.alloc = palloc.New(palloc.Config{
		Base: allocBase,
		End:  uint64(dev.Size()),
	})
	return e
}

func (e *directEngine) NewCtx() *Ctx {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := &Ctx{Cache: palloc.NewCache(e.alloc, e.recl)}
	if e.elides() {
		c.Cache.PreFree = func() { e.dev.CommitRelaxed(&c.fs) }
	}
	return c
}

func (e *directEngine) addr(ref Ref, field int) uint64 { return ref + uint64(span(field, 1)) }

// persistsReads reports whether every shared read must be flushed+fenced
// (the Izraelevitz discipline).
func (e *directEngine) persistsReads() bool { return e.kind == Izraelevitz }

// durable reports whether writes must reach the media.
func (e *directEngine) durable() bool { return e.kind == Izraelevitz || e.kind == NVTraverse }

// elides reports whether the flush-elision layer applies. Only the
// traversal transformation opts in: Izraelevitz *is* the blanket
// flush-everything discipline, and eliding it would misrepresent the
// paper's baseline.
func (e *directEngine) elides() bool { return e.kind == NVTraverse }

func (e *directEngine) OpBegin(c *Ctx) { c.Cache.Enter() }

func (e *directEngine) OpEnd(c *Ctx) {
	if e.durable() {
		// Deferred inits of an object that was never published
		// (FreeUnpublished): it never became reachable, nothing to persist.
		c.fs.DropInit()
		// Both transformations issue a final fence before an operation
		// returns, so completed operations are durable; the eliding one
		// lets the device skip a fence that would commit nothing.
		if e.elides() {
			e.dev.FenceOrElide(&c.fs)
		} else {
			e.dev.Fence(&c.fs)
		}
	}
	c.Cache.Exit()
}

func (e *directEngine) Alloc(c *Ctx, fields int) Ref {
	return c.Cache.Alloc(span(fields, 1))
}

func (e *directEngine) StoreInit(c *Ctx, ref Ref, field int, v uint64) {
	a := e.addr(ref, field)
	e.dev.StoreInit(a, v)
	if e.durable() {
		if e.elides() {
			c.fs.DeferInit(a)
		} else {
			e.dev.Flush(&c.fs, a)
		}
	}
}

func (e *directEngine) Publish(c *Ctx, ref Ref) {
	if !e.durable() {
		return
	}
	if e.elides() {
		e.dev.PublishInit(&c.fs)
		return
	}
	e.dev.Fence(&c.fs)
}

func (e *directEngine) FreeUnpublished(c *Ctx, ref Ref, fields int) {
	c.Cache.Free(ref, span(fields, 1))
}

func (e *directEngine) Retire(c *Ctx, ref Ref, fields int) {
	c.Cache.Retire(ref, span(fields, 1))
}

func (e *directEngine) Load(c *Ctx, ref Ref, field int) uint64 {
	a := e.addr(ref, field)
	v := e.dev.Load(a)
	if e.durable() {
		// Critical reads are persisted: under Izraelevitz every read,
		// under NVTraverse the reads around the destination (callers
		// use TraversalLoad during search).
		e.dev.Flush(&c.fs, a)
		e.dev.Fence(&c.fs)
	}
	return v
}

func (e *directEngine) TraversalLoad(c *Ctx, ref Ref, field int) uint64 {
	if e.persistsReads() {
		return e.Load(c, ref, field)
	}
	return e.dev.Load(e.addr(ref, field))
}

func (e *directEngine) Store(c *Ctx, ref Ref, field int, v uint64) {
	checkKind(field, false)
	e.announceBarrier(c)
	a := e.addr(ref, field)
	switch {
	case e.kind == Izraelevitz:
		// Fence before every write (orders prior flushed reads/writes),
		// flush after (Izraelevitz et al.'s construction).
		e.dev.Fence(&c.fs)
		e.dev.Store(a, v)
		e.dev.Flush(&c.fs, a)
	case e.kind == NVTraverse:
		// Critical-section writes persist in order.
		e.dev.Store(a, v)
		e.dev.Flush(&c.fs, a)
		e.dev.Fence(&c.fs)
	default:
		e.dev.Store(a, v)
	}
}

func (e *directEngine) CAS(c *Ctx, ref Ref, field int, old, new uint64) bool {
	checkKind(field, false)
	e.announceBarrier(c)
	a := e.addr(ref, field)
	switch {
	case e.kind == Izraelevitz:
		e.dev.Fence(&c.fs)
		ok := e.dev.CAS(a, old, new)
		e.dev.Flush(&c.fs, a)
		return ok
	case e.kind == NVTraverse:
		ok := e.dev.CAS(a, old, new)
		e.dev.Flush(&c.fs, a)
		e.dev.Fence(&c.fs)
		return ok
	default:
		return e.dev.CAS(a, old, new)
	}
}

// CASRelaxed defers the install's durability to the relaxed-line registry
// on the eliding traversal engine; the pre-free drain commits it. Every
// other direct engine keeps its full CAS discipline.
func (e *directEngine) CASRelaxed(c *Ctx, ref Ref, field int, old, new uint64) bool {
	if !e.elides() {
		return e.CAS(c, ref, field, old, new)
	}
	checkKind(field, false)
	a := e.addr(ref, field)
	ok := e.dev.CAS(a, old, new)
	if ok {
		e.dev.NoteRelaxed(&c.fs, a)
	} else {
		e.dev.Flush(&c.fs, a)
		e.dev.Fence(&c.fs)
	}
	return ok
}

// CASRebuilt is a plain device CAS on every direct engine: recovery rebuilds
// the field, so nothing needs its value on the media.
func (e *directEngine) CASRebuilt(c *Ctx, ref Ref, field int, old, new uint64) bool {
	checkKind(field, true)
	return e.dev.CAS(e.addr(ref, field), old, new)
}

func (e *directEngine) MakePersistent(c *Ctx, ref Ref, fields int) {
	if e.kind != NVTraverse {
		return
	}
	e.dev.FlushRange(&c.fs, ref, span(fields, 1))
	e.dev.Fence(&c.fs)
}

// Drain commits the relaxed-line registry on the eliding traversal
// engine; the other direct engines defer nothing.
func (e *directEngine) Drain(c *Ctx) {
	if e.elides() {
		e.dev.CommitRelaxed(&c.fs)
	}
}

func (e *directEngine) Freeze() { e.dev.Freeze() }

func (e *directEngine) FreezeAfter(n int64) { e.dev.FreezeAfter(n) }

func (e *directEngine) Crash(policy pmem.CrashPolicy, rng *rand.Rand) {
	e.dev.Freeze()
	e.dev.Crash(policy, rng)
}

func (e *directEngine) Recover(tr Tracer) { e.RecoverWith(tr, RecoverOptions{}) }

// RecoverWith runs the recovery pipeline on a single-replica engine. The
// durable engines have no replica to copy, so the streamed pass degenerates
// to the trace, its relinks into the device and the allocator scan — and,
// over an adopted media file, the restore of the fixed regions and of every
// traced span, up to its rebuilt words, into the view.
func (e *directEngine) RecoverWith(tr Tracer, opts RecoverOptions) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recl = palloc.NewReclaimer()
	if !e.durable() {
		// Nothing survived; reinitialize empty.
		e.alloc.Rebuild(nil)
		return
	}
	read := e.recoveryLoad
	var restore func(Ref, int)
	if e.cold {
		read, restore = restoreFixed(e.dev, e.alloc, e.addr), e.dev.Restore
	}
	if e.desc != nil {
		e.desc.Scrub()
	}
	rebuild(read, tr, e.relink, opts.Workers(), e.alloc, 1, restore)
	e.cold = false
}

// relink is the trace's write of a rebuilt word: the device's view only,
// never flushed, as CASRebuilt leaves it (W2).
func (e *directEngine) relink(ref Ref, field int, v uint64) {
	checkKind(field, true)
	e.dev.WriteRebuilt(e.addr(ref, field), v)
}

// recoveryLoad reads a field from the persistent post-crash image; only
// valid between Crash and the end of Recover.
func (e *directEngine) recoveryLoad(ref Ref, field int) uint64 {
	return e.dev.ReadRaw(e.addr(ref, field))
}

// CheckInvariants is vacuous: one replica, nothing to tie together.
func (e *directEngine) CheckInvariants(ref Ref, fields int) string { return "" }

func (e *directEngine) descFlushSet(c *Ctx) *pmem.FlushSet { return &c.fs }

// settle: NVTraverse fences inside its CAS, and OpEnd's fence commits an
// Izraelevitz install (flushed, but fenced only before the next access)
// before the operation returns. A drain may still trail the eliding
// engine's relaxed-line registry and any flushed-but-unfenced line; both
// commit under their own fence before any verdict line can persist. The
// non-durable originals settle nothing.
func (e *directEngine) settle(c *Ctx) {
	if e.durable() {
		e.dev.CommitPending(&c.fs)
	}
}

func (e *directEngine) Devices() []*pmem.Device { return []*pmem.Device{e.dev} }

func (e *directEngine) Counters() (uint64, uint64) {
	return e.dev.Counters()
}

// Stats has no help protocol to report for the direct engines; the durable
// ones carry the elision counters.
func (e *directEngine) Stats() Stats {
	var s Stats
	if e.durable() {
		ef, en, pb, rx := e.dev.ElisionCounters()
		s = Stats{
			ElidedFlushes: ef, ElidedFences: en,
			PiggybackedFences: pb, RelaxedCAS: rx,
		}
	}
	if e.desc != nil {
		e.desc.stats(&s)
	}
	return s
}

func (e *directEngine) Footprint() (uint64, int) {
	return e.alloc.LiveWords(), 1
}
