// Package durablequeue implements a hand-made durable lock-free FIFO queue
// in the style of Friedman, Herlihy, Marathe and Petrank [PPoPP 2018] —
// the paper's reference [18] and the natural hand-optimized baseline for
// the Mirror-transformed Michael–Scott queue in
// internal/structures/queue.
//
// Like the hand-made durable sets, it persists selectively instead of
// mirroring: a node's content is flushed before it is linked, the link
// itself is flushed before the enqueue returns, and the head reference is
// flushed after every dequeue. The tail reference is auxiliary data —
// never flushed — and is reconstructed by walking to the end of the
// persisted chain at recovery (§4.3's critical/auxiliary data split).
package durablequeue

import (
	"math/rand"
	"sync"

	"mirror/internal/engine"
	"mirror/internal/palloc"
	"mirror/internal/pmem"
)

// Node layout (4 words on NVMM).
const (
	fVal  = 0
	fNext = 1
	fSize = 4
)

// Fixed device offsets for the persistent root slots.
const (
	headSlot = 8
	tailSlot = 9 // auxiliary: recovered, never flushed
)

// Queue is the hand-made durable FIFO queue.
type Queue struct {
	dev     *pmem.Device
	det     *engine.DescRegion // nil when Config.Clients == 0
	clients int

	mu    sync.Mutex
	alloc *palloc.Allocator
	recl  *palloc.Reclaimer
}

// Ctx is a per-thread context.
type Ctx struct {
	cache *palloc.Cache
	fs    pmem.FlushSet
	det   detState // in-flight detectable-operation bracket
}

// detState tracks one context's armed detectable operation.
type detState struct {
	armed, delivered bool
	client           int
	seq              uint64
}

// Config describes a queue instance.
type Config struct {
	Words int
	Track bool
	// Clients reserves per-client operation-descriptor slots below the node
	// heap for detectable operations; 0 leaves the layout unchanged.
	Clients int
}

// New creates an empty durable queue.
func New(cfg Config) *Queue {
	if cfg.Words == 0 {
		cfg.Words = 1 << 20
	}
	q := &Queue{
		dev: pmem.New(pmem.Config{
			Name: "DurableQueue", Words: cfg.Words,
			Persistent: true, Track: cfg.Track, Model: pmem.NVMMModel(), Elide: true,
		}),
	}
	// Descriptor slots sit between the root slots and the node heap; the
	// base (16) is already line-aligned.
	heapBase := uint64(16)
	if cfg.Clients > 0 {
		q.det = engine.NewDescRegion(q.dev, heapBase, cfg.Clients, 1, true)
		q.clients = cfg.Clients
		heapBase += q.det.Words()
	}
	q.alloc = palloc.New(palloc.Config{Base: heapBase, End: uint64(q.dev.Size())})
	q.recl = palloc.NewReclaimer()
	// Durable dummy node.
	boot := q.NewCtx()
	dummy := boot.cache.Alloc(fSize)
	q.dev.Store(dummy+fVal, 0)
	q.dev.Store(dummy+fNext, 0)
	q.persist(boot, dummy)
	q.dev.Store(headSlot, dummy)
	q.dev.Store(tailSlot, dummy)
	q.persist(boot, headSlot)
	return q
}

// Devices returns the queue's one device, NVMM-priced.
func (q *Queue) Devices() []*pmem.Device { return []*pmem.Device{q.dev} }

// NewCtx creates a per-thread context.
func (q *Queue) NewCtx() *Ctx {
	q.mu.Lock()
	defer q.mu.Unlock()
	return &Ctx{cache: palloc.NewCache(q.alloc, q.recl)}
}

// persist makes the current content of off durable. It routes through the
// elision layer's three-way discipline (mirroring patomic.ensureDurable):
// a line already committed by a fence after we observed it needs nothing;
// a line whose commit is in flight on another thread is waited for
// (piggybacking on that thread's fence); otherwise we flush and fence
// ourselves. The enqueue helper path used to take an unconditional
// flush+fence here, paying a full fence for links that the owning
// enqueuer had already persisted.
func (q *Queue) persist(c *Ctx, off uint64) {
	tag := q.dev.PersistEpoch()
	if q.dev.Persisted(off, tag) {
		q.dev.NoteElided(&c.fs, 1, 1)
		return
	}
	if t := q.dev.CommitTicket(off); t > tag && q.dev.WaitPersisted(off, t) {
		q.dev.NotePiggyback(&c.fs)
		return
	}
	q.dev.Flush(&c.fs, off)
	q.dev.Fence(&c.fs)
}

// Enqueue appends v; it is durable when the call returns.
func (q *Queue) Enqueue(c *Ctx, v uint64) {
	c.cache.Enter()
	defer c.cache.Exit()
	node := c.cache.Alloc(fSize)
	q.dev.Store(node+fVal, v)
	q.dev.Store(node+fNext, 0)
	q.persist(c, node) // content durable before it is reachable
	for {
		tail := q.dev.Load(tailSlot)
		next := q.dev.Load(tail + fNext)
		if next != 0 {
			// Help: persist the lagging link, then swing the tail.
			q.persist(c, tail+fNext)
			q.dev.CAS(tailSlot, tail, next)
			continue
		}
		if q.dev.CAS(tail+fNext, 0, node) {
			// The linearizing link is durable before we return; the
			// tail swing is auxiliary.
			q.persist(c, tail+fNext)
			// The link fence just made the enqueue durable: the detectable
			// verdict may publish (no-op when unarmed).
			q.detectLinearized(c, true, 0)
			q.dev.CAS(tailSlot, tail, node)
			return
		}
	}
}

// Dequeue removes and returns the oldest element; the removal is durable
// when the call returns.
func (q *Queue) Dequeue(c *Ctx) (uint64, bool) {
	c.cache.Enter()
	defer c.cache.Exit()
	for {
		head := q.dev.Load(headSlot)
		tail := q.dev.Load(tailSlot)
		next := q.dev.Load(head + fNext)
		if head == tail {
			if next == 0 {
				return 0, false
			}
			// Tail catch-up: the head must not pass the tail, so the
			// lagging link becomes durable and the tail swings over it.
			q.persist(c, tail+fNext)
			q.dev.CAS(tailSlot, tail, next)
			continue
		}
		v := q.dev.Load(next + fVal)
		if q.dev.CAS(headSlot, head, next) {
			q.persist(c, headSlot)
			// The head swing is durable: publish the verdict with the
			// dequeued value so a replay after a crash can return it.
			q.detectLinearized(c, true, v)
			c.cache.Retire(head, fSize)
			return v, true
		}
	}
}

// Len counts elements (quiesced use only).
func (q *Queue) Len() int {
	n := 0
	node := q.dev.ReadRaw(headSlot)
	for {
		node = q.dev.ReadRaw(node + fNext)
		if node == 0 {
			return n
		}
		n++
	}
}

// Freeze unwinds in-flight operations for a crash.
func (q *Queue) Freeze() { q.dev.Freeze() }

// Crash simulates a power failure.
func (q *Queue) Crash(policy pmem.CrashPolicy, rng *rand.Rand) {
	q.dev.Freeze()
	q.dev.Crash(policy, rng)
}

// Recover rebuilds the auxiliary state: the tail is re-derived by walking
// the persisted chain from the head, lagging links are re-persisted, and
// the allocator is rebuilt from the reachable nodes.
func (q *Queue) Recover() {
	head := q.dev.ReadRaw(headSlot)
	var extents []palloc.Extent
	node := head
	last := head
	for node != 0 {
		extents = append(extents, palloc.Extent{Off: node, Words: fSize})
		last = node
		node = q.dev.ReadRaw(node + fNext)
	}
	q.dev.WriteRaw(tailSlot, last)
	// The chain we walked is the durable truth; persist it wholesale so
	// a crash during recovery re-reads the same state.
	for _, e := range extents {
		q.dev.PersistRange(e.Off, e.Words)
	}
	q.dev.PersistRange(headSlot, 1)
	if q.det != nil {
		q.det.Scrub()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.alloc.Rebuild(extents)
	q.recl = palloc.NewReclaimer()
}

// Counters reports cumulative flushes and fences.
func (q *Queue) Counters() (uint64, uint64) { return q.dev.Counters() }

// Clients reports the number of reserved descriptor slots (0 = off).
func (q *Queue) Clients() int { return q.clients }

// DetectBegin durably announces operation (client, seq) before it runs;
// kind is engine.DetectEnqueue (val = the enqueued value) or
// engine.DetectDequeue (val ignored). Enqueue announces are deferred onto
// the operation's own pre-link content fence — the linearizing link CAS
// cannot execute, let alone persist, before that fence commits the
// announce. Dequeue announces fence eagerly: the head-swing CAS could be
// evicted to media before any fence of ours.
func (q *Queue) DetectBegin(c *Ctx, client int, seq, kind, val uint64) {
	if q.det == nil {
		panic("durablequeue: detectability is disabled (Config.Clients == 0)")
	}
	if c.det.armed {
		panic("durablequeue: DetectBegin inside an armed detectable operation")
	}
	c.det = detState{armed: true, client: client, seq: seq}
	q.det.Begin(&c.fs, client, seq, kind, 0, val)
	if kind != engine.DetectEnqueue {
		q.dev.Fence(&c.fs)
	}
}

// detectLinearized publishes the verdict once the operation's effect is
// durable; a no-op without an armed bracket.
func (q *Queue) detectLinearized(c *Ctx, result bool, rval uint64) {
	if q.det == nil || !c.det.armed || c.det.delivered {
		return
	}
	q.det.Publish(&c.fs, c.det.client, c.det.seq, result, rval)
	c.det.delivered = true
}

// DetectEnd publishes the verdict if the operation never linearized (an
// empty dequeue) and issues the terminal verdict fence.
func (q *Queue) DetectEnd(c *Ctx, result bool) {
	if q.det == nil || !c.det.armed {
		return
	}
	if !c.det.delivered {
		q.det.Publish(&c.fs, c.det.client, c.det.seq, result, 0)
	}
	q.det.End(&c.fs)
	c.det = detState{}
}

// Detect answers whether (client, seq) committed, from the quiesced,
// crashed, or recovered queue. Authoritative only for the client's most
// recently issued operation; a Committed dequeue's DetectResult.Rval
// carries the dequeued value.
func (q *Queue) Detect(client int, seq uint64) engine.DetectResult {
	if q.det == nil {
		panic("durablequeue: Detect with detectability disabled (Config.Clients == 0)")
	}
	return q.det.Detect(client, seq)
}
