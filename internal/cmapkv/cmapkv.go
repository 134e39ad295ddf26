// Package cmapkv implements a lock-based persistent concurrent hash map in
// the style of Intel pmemkv's Cmap engine, the lock-based competitor of
// §6.2.7 (Figures 6(m) and 6(n)).
//
// The map lives entirely on NVMM: the bucket array and the chain links are
// persistent, so recovery is a simple trace over the buckets with no
// rebuild of contents. Each bucket is guarded by a reader-writer lock;
// updates persist their writes in unlink-safe order (content before link,
// link before free) with a flush+fence at each step, and hold the lock
// until the final fence so completed operations are durable. The locks
// themselves are volatile — after a crash they simply reinitialize — but
// lock-based updates serialize per bucket, which is exactly the scalability
// handicap the paper measures against Mirror.
package cmapkv

import (
	"math/rand"
	"sync"

	"mirror/internal/palloc"
	"mirror/internal/pmem"
)

// Node layout (4 words).
const (
	fKey  = 0
	fVal  = 1
	fNext = 2
	fSize = 4
)

// bucketBase is the device offset of the persistent bucket array.
const bucketBase = 8

// Config describes a Map.
type Config struct {
	Words   int  // device capacity in words
	Buckets int  // power of two
	Track   bool // maintain media (crash tests)
}

// Map is the lock-based persistent hash map.
type Map struct {
	dev     *pmem.Device
	buckets int
	shift   uint
	locks   []sync.RWMutex

	mu    sync.Mutex
	alloc *palloc.Allocator
}

// Ctx is a per-thread context.
type Ctx struct {
	cache *palloc.Cache
	fs    pmem.FlushSet
}

// New creates a map, or adopts the persistent image if the device already
// holds one (recovery constructs a fresh Map over a crashed device).
func New(cfg Config) *Map {
	if cfg.Words == 0 {
		cfg.Words = 1 << 20
	}
	if cfg.Buckets <= 0 || cfg.Buckets&(cfg.Buckets-1) != 0 {
		panic("cmapkv: bucket count must be a positive power of two")
	}
	m := &Map{
		dev: pmem.New(pmem.Config{
			Name: "Cmap", Words: cfg.Words,
			Persistent: true, Track: cfg.Track, Model: pmem.NVMMModel(),
		}),
		buckets: cfg.Buckets,
		locks:   make([]sync.RWMutex, cfg.Buckets),
	}
	for m.shift = 64; 1<<(64-m.shift) != uint64(cfg.Buckets); m.shift-- {
	}
	base := (uint64(bucketBase+cfg.Buckets) + palloc.AlignWords - 1) &^ (palloc.AlignWords - 1)
	m.alloc = palloc.New(palloc.Config{Base: base, End: uint64(m.dev.Size())})
	// Persist the empty bucket array.
	m.dev.PersistRange(bucketBase, cfg.Buckets)
	return m
}

// Devices returns the map's one device, NVMM-priced.
func (m *Map) Devices() []*pmem.Device { return []*pmem.Device{m.dev} }

// NewCtx creates a per-thread context.
func (m *Map) NewCtx() *Ctx {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Lock-based structure: objects are freed immediately under the
	// bucket lock, so the reclaimer exists only to satisfy the cache.
	return &Ctx{cache: palloc.NewCache(m.alloc, palloc.NewReclaimer())}
}

func (m *Map) bucketOf(key uint64) int {
	return int((key * 11400714819323198485) >> m.shift)
}

func (m *Map) slot(b int) uint64 { return uint64(bucketBase + b) }

// persist flushes one location and fences.
func (m *Map) persist(c *Ctx, off uint64) {
	m.dev.Flush(&c.fs, off)
	m.dev.Fence(&c.fs)
}

// findLocked walks a chain under its lock, returning the slot referencing
// the node with the key and the node itself (0 if absent).
func (m *Map) findLocked(slot uint64, key uint64) (predSlot, node uint64) {
	predSlot = slot
	node = m.dev.Load(predSlot)
	for node != 0 {
		if m.dev.Load(node+fKey) == key {
			return predSlot, node
		}
		predSlot = node + fNext
		node = m.dev.Load(predSlot)
	}
	return predSlot, 0
}

// Put inserts or overwrites key's value (pmemkv semantics). It reports
// whether the key was newly inserted.
func (m *Map) Put(c *Ctx, key, val uint64) bool {
	b := m.bucketOf(key)
	m.locks[b].Lock()
	defer m.locks[b].Unlock()
	slot := m.slot(b)
	_, node := m.findLocked(slot, key)
	if node != 0 {
		m.dev.Store(node+fVal, val)
		m.persist(c, node+fVal)
		return false
	}
	node = c.cache.Alloc(fSize)
	head := m.dev.Load(slot)
	m.dev.Store(node+fKey, key)
	m.dev.Store(node+fVal, val)
	m.dev.Store(node+fNext, head)
	m.persist(c, node) // content durable before the link
	m.dev.Store(slot, node)
	m.persist(c, slot) // link durable before the operation returns
	return true
}

// Delete removes key, reporting whether it was present.
func (m *Map) Delete(c *Ctx, key uint64) bool {
	b := m.bucketOf(key)
	m.locks[b].Lock()
	defer m.locks[b].Unlock()
	predSlot, node := m.findLocked(m.slot(b), key)
	if node == 0 {
		return false
	}
	m.dev.Store(predSlot, m.dev.Load(node+fNext))
	m.persist(c, predSlot) // unlink durable before the node is reused
	c.cache.Free(node, fSize)
	return true
}

// Get returns the value stored for key.
func (m *Map) Get(c *Ctx, key uint64) (uint64, bool) {
	b := m.bucketOf(key)
	m.locks[b].RLock()
	defer m.locks[b].RUnlock()
	_, node := m.findLocked(m.slot(b), key)
	if node == 0 {
		return 0, false
	}
	return m.dev.Load(node + fVal), true
}

// Contains reports whether key is present.
func (m *Map) Contains(c *Ctx, key uint64) bool {
	_, ok := m.Get(c, key)
	return ok
}

// Len counts entries (quiesced use only).
func (m *Map) Len() int {
	n := 0
	for b := 0; b < m.buckets; b++ {
		node := m.dev.ReadRaw(m.slot(b))
		for node != 0 {
			n++
			node = m.dev.ReadRaw(node + fNext)
		}
	}
	return n
}

// Freeze unwinds in-flight operations for a crash.
func (m *Map) Freeze() { m.dev.Freeze() }

// Crash simulates a power failure.
func (m *Map) Crash(policy pmem.CrashPolicy, rng *rand.Rand) {
	m.dev.Freeze()
	m.dev.Crash(policy, rng)
}

// Recover rebuilds the volatile allocator metadata by tracing the
// persistent buckets; the map contents need no reconstruction because all
// links are persistent.
func (m *Map) Recover() {
	var extents []palloc.Extent
	for b := 0; b < m.buckets; b++ {
		node := m.dev.ReadRaw(m.slot(b))
		for node != 0 {
			extents = append(extents, palloc.Extent{Off: node, Words: fSize})
			node = m.dev.ReadRaw(node + fNext)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alloc.Rebuild(extents)
	m.locks = make([]sync.RWMutex, m.buckets)
}

// Counters reports cumulative flushes and fences.
func (m *Map) Counters() (uint64, uint64) { return m.dev.Counters() }
