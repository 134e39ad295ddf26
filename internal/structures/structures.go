// Package structures defines the common interface of the lock-free sets
// evaluated in the paper (§6.1): a Harris linked list, a hash table with a
// Harris list per bucket, a Natarajan–Mittal external binary search tree,
// and a Fraser-style skip list.
//
// Every structure is implemented once against the engine.Engine interface
// and is written in *traversal form*: searches use TraversalLoad and the
// destination nodes are passed to MakePersistent before the critical
// section. Under the Mirror and Izraelevitz engines those hints are no-ops
// or redundant, so the same code realizes each transformation exactly as
// the corresponding paper prescribes.
package structures

import "mirror/internal/engine"

// KeyMax is the largest usable key. Larger values are reserved for
// sentinels inside the structures. Keys must also be nonzero.
const KeyMax = uint64(1)<<62 - 1

// Set is a durable (engine permitting) concurrent set with associated
// values. All methods are linearizable and safe for concurrent use; the
// Ctx identifies the calling thread and must not be shared.
type Set interface {
	// Insert adds key with the given value; it returns false if the key
	// was already present (the value is not updated).
	Insert(c *engine.Ctx, key, val uint64) bool
	// Delete removes key, reporting whether it was present.
	Delete(c *engine.Ctx, key uint64) bool
	// Contains reports whether key is present.
	Contains(c *engine.Ctx, key uint64) bool
	// Get returns the value stored for key.
	Get(c *engine.Ctx, key uint64) (uint64, bool)
	// Tracer returns the recovery tracing operation for this structure
	// (the user-supplied routine required by §3.2).
	Tracer() engine.Tracer
	// Name identifies the structure in benchmark output.
	Name() string
}

// mark helpers shared by the list-based structures: bit 0 of a stored Ref
// marks the *containing* node as logically deleted (Harris). A mark may
// also carry the deleting operation's tag in the bits from engine.TagShift
// up (MarkTagged); no Ref reaches them.
const (
	markBit = uint64(1)
	tagBits = ^uint64(0) >> engine.TagShift << engine.TagShift
)

// Marked reports whether a stored reference carries the delete mark.
func Marked(ref uint64) bool { return ref&markBit != 0 }

// Unmark strips the delete mark and its tag.
func Unmark(ref uint64) uint64 { return ref &^ (markBit | tagBits) }

// Mark sets the delete mark.
func Mark(ref uint64) uint64 { return ref | markBit }

// MarkTagged sets the delete mark with the tag of the operation armed on c
// (engine.Ctx.MarkTag), which claims c's next CAS as the mark's install.
// Without an armed operation on a tagging engine it is Mark.
func MarkTagged(c *engine.Ctx, ref uint64) uint64 { return ref | markBit | c.MarkTag() }
