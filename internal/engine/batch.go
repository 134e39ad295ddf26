package engine

import "mirror/internal/pmem"

// BatchCtx batches the initialization of one or more new objects so their
// fields persist with relaxed (deferred) flushes and a single trailing
// fence — the single-fence-per-operation argument of Mirror §5 packaged as
// an API. Under an eliding engine each StoreInit only records its dirty
// line; Commit issues one flush per distinct line and one fence (and skips
// the fence entirely when nothing is pending). Under a non-eliding engine
// it degrades to the engine's ordinary StoreInit/Publish discipline.
//
// The batch must be committed before any of its objects is made reachable:
// Commit is the Publish barrier for every object initialized through it.
// A BatchCtx is a value; it holds no resources. A batch commits exactly
// once: a StoreInit after Commit would land in the *next* operation's
// deferred-flush drain (its durability silently reassigned to a fence that
// may never come), and a second Commit would publish that corrupted batch —
// with pmem debug checks enabled, both misuses panic instead.
type BatchCtx struct {
	e    Memory
	c    *Ctx
	last Ref
	done bool
}

// Batch starts an initialization batch on c.
func Batch(e Memory, c *Ctx) BatchCtx { return BatchCtx{e: e, c: c} }

// StoreInit writes a field of an unpublished object within the batch.
func (b *BatchCtx) StoreInit(ref Ref, field int, v uint64) {
	if b.done && pmem.DebugChecksEnabled() {
		panic("engine: BatchCtx.StoreInit after Commit (start a new batch)")
	}
	b.e.StoreInit(b.c, ref, field, v)
	b.last = ref
}

// Commit issues the batch's single durability barrier. Every object
// initialized through the batch is durable when it returns.
func (b *BatchCtx) Commit() {
	if b.done && pmem.DebugChecksEnabled() {
		panic("engine: BatchCtx.Commit called twice")
	}
	b.done = true
	b.e.Publish(b.c, b.last)
}
