// Package zuriel implements the hand-made durable sets of Zuriel et al.
// [OOPSLA 2019] that the paper benchmarks against: Link-Free and SOFT.
// Both avoid persisting pointers entirely — only node *contents* (key,
// value, alive-state) are ever flushed, one flush+fence per update and none
// per lookup — and recovery reconstructs the links by scanning the node
// heap for valid nodes.
//
//   - Link-Free keeps single nodes on NVMM; the next pointers live in the
//     same nodes but are simply never flushed.
//   - SOFT splits each element into a persistent node (PNode: contents
//     only) and a volatile list node (VNode) holding the links — the
//     "split nodes" whose extra space the paper remarks on (§6.2.3). Both
//     halves live at NVMM speed, as in the original artifact, but only
//     PNodes are ever flushed.
//
// The originals guard recycled nodes against torn initialization at crash
// time with a per-incarnation validity-bit scheme; this implementation
// simulates it with a content checksum folded into the state word, which
// detects any torn subset of a node's words at recovery with the same
// effect (see DESIGN.md). Deletions mark the volatile link first (the
// linearization point), persist the node's deleted state before the
// operation returns, and any operation that observes a marked node helps
// persist that deletion before relying on it — Zuriel's helping rule, which
// is what makes the sets durably linearizable.
package zuriel

import (
	"fmt"
	"math/rand"

	"mirror/internal/palloc"
	"mirror/internal/pmem"
	"mirror/internal/recovery"
)

// Node states stored in the low bits of the meta word.
const (
	stateInvalid  = uint64(0)
	stateInserted = uint64(1)
	stateDeleted  = uint64(2)
	stateMask     = uint64(3)
)

// mix produces the 62-bit content checksum standing in for the validity
// bits: recovery accepts a node only if its state word checksums its key
// and value, so any torn persistence of a recycled node is rejected.
func mix(key, val uint64) uint64 {
	x := key*0x9e3779b97f4a7c15 ^ val
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x >> 2
}

func metaFor(state, key, val uint64) uint64 { return state | mix(key, val)<<2 }

// metaState validates meta against the node contents and returns the state,
// or stateInvalid if the checksum does not match.
func metaState(meta, key, val uint64) uint64 {
	if meta>>2 != mix(key, val) {
		return stateInvalid
	}
	return meta & stateMask
}

// markBit marks a (volatile) next reference as logically deleted.
const markBit = uint64(1)

func marked(ref uint64) bool   { return ref&markBit != 0 }
func unmark(ref uint64) uint64 { return ref &^ markBit }

// Ctx is the per-thread context for a zuriel set.
type Ctx struct {
	p  *palloc.Cache // persistent-node cache
	v  *palloc.Cache // volatile-node cache (SOFT only)
	fs pmem.FlushSet
}

// Set is the common interface of the two hand-made durable sets.
type Set interface {
	Name() string
	NewCtx() *Ctx
	Insert(c *Ctx, key, val uint64) bool
	Delete(c *Ctx, key uint64) bool
	Contains(c *Ctx, key uint64) bool
	Get(c *Ctx, key uint64) (uint64, bool)
	// InjectFaults installs an adversarial persistence fault model on the
	// set's persistent device (nil removes it); see pmem.FaultModel.
	InjectFaults(fm *pmem.FaultModel)
	// Freeze unwinds in-flight operations; Crash takes the power failure;
	// Recover rebuilds the set from the persistent node heap.
	Freeze()
	Crash(policy pmem.CrashPolicy, rng *rand.Rand)
	Recover()
	// RecoverParallel is Recover with the heap scan, sanitize, and
	// re-insert phases partitioned across the given number of workers;
	// RecoverParallel(1) is exactly Recover.
	RecoverParallel(workers int)
	// Counters reports cumulative flushes and fences.
	Counters() (flushes, fences uint64)
	// Devices returns the set's devices, NVMM-priced (SOFT's volatile half
	// too, as in the original artifact).
	Devices() []*pmem.Device
}

// Config describes a zuriel set instance.
type Config struct {
	Words   int  // device capacity in words
	Buckets int  // 0 = plain list; otherwise power-of-two hash table
	Track   bool // maintain media (crash tests)
}

// setDefaults fills in the defaults and checks the bucket count.
func (c *Config) setDefaults() {
	if c.Words == 0 {
		c.Words = 1 << 20
	}
	if c.Buckets < 0 || (c.Buckets > 0 && c.Buckets&(c.Buckets-1) != 0) {
		panic("zuriel: bucket count must be a power of two")
	}
}

// kv is one surviving element found by the recovery heap scan.
type kv struct{ key, val uint64 }

// scanLive sweeps the node heap [base, frontier) for checksum-valid
// inserted nodes, with the slot range partitioned across workers. The
// per-segment results are merged in ascending offset order through one
// seen-set, so the surviving (key, value) list — first valid node per key
// wins — is identical to the sequential scan's regardless of worker count.
func scanLive(dev *pmem.Device, base, frontier uint64, size, keyF, valF, metaF, workers int) []kv {
	slots := 0
	if frontier > base {
		slots = int(frontier-base) / size
	}
	segs := recovery.Chunks(slots, workers)
	found := make([][]kv, len(segs))
	recovery.Run(workers, len(segs), func(i int) {
		for slot := segs[i][0]; slot < segs[i][1]; slot++ {
			off := base + uint64(slot*size)
			key := dev.ReadRaw(off + uint64(keyF))
			val := dev.ReadRaw(off + uint64(valF))
			meta := dev.ReadRaw(off + uint64(metaF))
			if metaState(meta, key, val) == stateInserted {
				found[i] = append(found[i], kv{key, val})
			}
		}
	})
	var live []kv
	seen := make(map[uint64]bool)
	for _, part := range found {
		for _, e := range part {
			if !seen[e.key] {
				seen[e.key] = true
				live = append(live, e)
			}
		}
	}
	return live
}

// sanitizeHeap zeroes the old node heap (workers splitting the range) and
// persists the wipe, so stale valid-looking nodes beyond the fresh
// allocator's frontier can never be resurrected by a later scan.
func sanitizeHeap(dev *pmem.Device, base, frontier uint64, workers int) {
	if frontier <= base {
		return
	}
	n := int(frontier - base)
	segs := recovery.Chunks(n, workers)
	recovery.Run(workers, len(segs), func(i int) {
		for off := base + uint64(segs[i][0]); off < base+uint64(segs[i][1]); off++ {
			dev.WriteRaw(off, 0)
		}
	})
	dev.PersistRange(base, n)
}

// reinsert replays the surviving elements through insert, partitioned
// across workers (each with its own context); the elements are already
// deduplicated, so a duplicate report means the scan is broken.
func reinsert(live []kv, workers int, newCtx func() *Ctx, insert func(*Ctx, uint64, uint64) bool) {
	chunks := recovery.Chunks(len(live), workers)
	recovery.Run(workers, len(chunks), func(i int) {
		c := newCtx()
		for _, e := range live[chunks[i][0]:chunks[i][1]] {
			if !insert(c, e.key, e.val) {
				panic(fmt.Sprintf("zuriel: duplicate key %d during recovery re-insert", e.key))
			}
		}
	})
}
