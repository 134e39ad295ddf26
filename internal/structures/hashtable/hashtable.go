// Package hashtable implements the paper's lock-free hash table: a fixed
// array of buckets, each holding a Harris linked list (§6.1, "based on
// Harris et al.'s with a linked-list in every bucket").
//
// The bucket array is a single engine object whose fields are the bucket
// head references; the array reference and the bucket count live in the
// engine's persistent root object, so recovery can re-trace everything.
package hashtable

import (
	"math/bits"

	"mirror/internal/engine"
	"mirror/internal/structures"
	"mirror/internal/structures/list"
)

// Default root fields used by the table (NewAt overrides).
const (
	rootArr     = 0
	rootBuckets = 1
)

// fibMul is the 64-bit Fibonacci hashing multiplier.
const fibMul = 11400714819323198485

// Table is a lock-free hash table with separate chaining.
type Table struct {
	e       engine.Engine
	arr     engine.Ref
	buckets int
	shift   uint
	rootF   int
}

// New creates a table with the given power-of-two bucket count, or adopts
// the existing table if the root already references one (recovery). The
// table uses root fields 0 and 1.
func New(e engine.Engine, c *engine.Ctx, buckets int) *Table {
	return NewAt(e, c, buckets, rootArr)
}

// NewAt is New with an explicit pair of root fields (rootField holds the
// bucket-array reference, rootField+1 the bucket count).
func NewAt(e engine.Engine, c *engine.Ctx, buckets int, rootField int) *Table {
	if buckets <= 0 || buckets&(buckets-1) != 0 || buckets >= engine.Plain {
		panic("hashtable: bucket count must be a power of two below engine.Plain")
	}
	t := &Table{e: e, rootF: rootField}
	e.OpBegin(c)
	defer e.OpEnd(c)
	if arr := e.Load(c, engine.Root, rootField); arr != 0 {
		t.arr = arr
		t.buckets = int(e.Load(c, engine.Root, rootField+1))
	} else {
		t.arr = e.Alloc(c, buckets)
		for i := 0; i < buckets; i++ {
			e.StoreInit(c, t.arr, i, 0)
			if i%1024 == 1023 {
				// Bound the pending flush set during large inits.
				e.Publish(c, t.arr)
			}
		}
		e.Publish(c, t.arr)
		e.Store(c, engine.Root, rootField+1, uint64(buckets))
		e.Store(c, engine.Root, rootField, t.arr)
		t.buckets = buckets
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(t.buckets)))
	return t
}

// Name implements structures.Set.
func (t *Table) Name() string { return "hashtable" }

func (t *Table) bucket(key uint64) *list.List {
	idx := int((key * fibMul) >> t.shift)
	return list.NewAt(t.e, t.arr, idx)
}

// Insert implements structures.Set.
func (t *Table) Insert(c *engine.Ctx, key, val uint64) bool {
	return t.bucket(key).Insert(c, key, val)
}

// Delete implements structures.Set.
func (t *Table) Delete(c *engine.Ctx, key uint64) bool {
	return t.bucket(key).Delete(c, key)
}

// Contains implements structures.Set.
func (t *Table) Contains(c *engine.Ctx, key uint64) bool {
	return t.bucket(key).Contains(c, key)
}

// Get implements structures.Set.
func (t *Table) Get(c *engine.Ctx, key uint64) (uint64, bool) {
	return t.bucket(key).Get(c, key)
}

// Len counts unmarked nodes across all buckets (quiesced use only).
func (t *Table) Len(c *engine.Ctx) int {
	n := 0
	for i := 0; i < t.buckets; i++ {
		n += list.NewAt(t.e, t.arr, i).Len(c)
	}
	return n
}

// Tracer implements structures.Set: visit the bucket array, then every
// chain.
func (t *Table) Tracer() engine.Tracer {
	return TracerAt(t.e, t.rootF)
}

// TracerAt returns the table's recovery tracer without attaching to the
// (possibly not yet recovered) structure; it needs only the root slot.
func TracerAt(e engine.Engine, rootField int) engine.Tracer {
	return func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int), _ func(engine.Ref, int, uint64)) {
		arr := read(engine.Root, rootField)
		if arr == 0 {
			return
		}
		buckets := int(read(engine.Root, rootField+1))
		visit(arr, buckets, 0)
		for i := 0; i < buckets; i++ {
			list.TraceFrom(arr, i, read, visit)
		}
	}
}

var _ structures.Set = (*Table)(nil)
