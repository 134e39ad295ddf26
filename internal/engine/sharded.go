package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"mirror/internal/pmem"
	"mirror/internal/recovery"
)

// Sharded spans N independent device shards, each a complete sub-engine of
// the configured kind: its own devices, allocator, reclaimer, descriptor
// slots, and elision watermarks. The keyspace is hash-partitioned
// across the shards (pmem.ShardOf), and every property the
// single-device engines establish — durable-before-visible installs, the
// pre-free drain gate, descriptor soundness — holds per shard because each
// shard *is* a single-device engine. The parent is a router: it owns no
// device and no refs, so it is a Host but not an Engine — it has no Memory
// role (callers route by key to a shard sub-engine instead, Route/Sub, as
// the structures.Sharded wrapper does) and no single-tracer Recovery role
// (RecoverShards takes one tracer per shard).
//
// Per-shard allocators fall out of the composition: each sub-engine owns
// its allocator, so PreFree drain gating is shard-local — a drain batch on
// shard i commits only shard i's relaxed lines, never stalling on another
// shard's device.
type Sharded struct {
	kind    Kind
	shards  int
	clients int // total logical clients across all shards
	ring    int // per-client descriptor ring size (the sub-engines')
	subs    []shardEngine
	numa    *pmem.NUMA // nil without the NUMA latency preset

	// nextHome deals NewCtx home shards round-robin, so a balanced thread
	// set spreads its homes across the shard set (the NUMA preset's
	// per-socket thread pinning).
	nextHome atomic.Int64
}

// NewSharded builds a sharded engine with cfg.Shards sub-engines (at least
// one). Config.Words sizes each shard's devices; Config.Clients descriptor
// slots are dealt across the shards — client c's slot lives on shard
// c mod Shards, at per-shard slot c div Shards.
func NewSharded(cfg Config) *Sharded {
	cfg.setDefaults()
	if cfg.MediaPath != "" || cfg.Attach {
		panic("engine: file-backed media attach is unsharded-only")
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	e := &Sharded{kind: cfg.Kind, shards: n, clients: cfg.Clients, ring: cfg.DetectRing}
	if cfg.NUMARemoteNS > 0 {
		e.numa = pmem.NUMAModel(cfg.NUMARemoteNS)
	}
	sub := cfg
	sub.Shards = 0
	sub.NUMARemoteNS = 0
	if cfg.Clients > 0 {
		// Every shard reserves the worst-case slot count, so the layout is
		// identical across shards and independent of which clients run.
		sub.Clients = (cfg.Clients + n - 1) / n
	}
	e.subs = make([]shardEngine, n)
	for i := range e.subs {
		e.subs[i] = newSingle(sub)
	}
	return e
}

// Shards returns the shard count.
func (e *Sharded) Shards() int { return e.shards }

// Sub returns shard i's sub-engine.
func (e *Sharded) Sub(i int) Engine { return e.subs[i] }

// Map returns the engine's keyspace partition.
func (e *Sharded) Map() pmem.ShardMap { return pmem.ShardMap{Shards: e.shards} }

// Route returns the home shard of key and the per-shard context to operate
// with, charging the NUMA preset's remote-socket penalty when the key
// routes off the calling thread's home shard.
func (e *Sharded) Route(c *Ctx, key uint64) (int, *Ctx) {
	s := pmem.ShardOf(key, e.shards)
	if s != c.home && e.numa != nil {
		e.numa.Penalize()
	}
	return s, c.sub[s]
}

// Kind identifies the implementation (the sub-engines' kind).
func (e *Sharded) Kind() Kind { return e.kind }

// NewCtx creates a router context holding one real per-shard context per
// sub-engine (a FlushSet binds to exactly one device, so each shard needs
// its own). Home shards are dealt round-robin.
func (e *Sharded) NewCtx() *Ctx {
	c := &Ctx{
		sub:  make([]*Ctx, e.shards),
		home: int(e.nextHome.Add(1)-1) % e.shards,
	}
	for i, s := range e.subs {
		c.sub[i] = s.NewCtx()
	}
	return c
}

// Drain commits every shard's deferred obligations for this context.
func (e *Sharded) Drain(c *Ctx) {
	for i, s := range e.subs {
		s.Drain(c.sub[i])
	}
}

// Freeze freezes every shard's devices.
func (e *Sharded) Freeze() {
	for _, s := range e.subs {
		s.Freeze()
	}
}

// FreezeAfter arms the countdown on every shard's persistent device:
// whichever shard reaches its n-th subsequent operation first takes the
// freeze, so a crash can land mid-operation on any shard.
func (e *Sharded) FreezeAfter(n int64) {
	for _, s := range e.subs {
		s.FreezeAfter(n)
	}
}

// Crash freezes every shard first — no shard keeps running while another
// has lost power — then crashes each in shard order. Per-shard fault
// models (pmem.ShardFaultModels) keep the media damage independent.
func (e *Sharded) Crash(policy pmem.CrashPolicy, rng *rand.Rand) {
	e.Freeze()
	for _, s := range e.subs {
		s.Crash(policy, rng)
	}
}

// RecoverShards rebuilds every shard after a crash, shard-concurrent:
// shards recover in parallel (one recovery.Run task each) while each
// shard's own trace/rebuild pipeline runs with opts.Parallelism workers,
// exactly as an unsharded RecoverWith would. trs[i] is shard i's tracer —
// it must trace only shard i's sub-structure. Recovery writes only
// volatile replicas and allocator state, so the persistent media is
// untouched and the result is independent of both the shard interleaving
// and the per-shard worker count.
func (e *Sharded) RecoverShards(trs []Tracer, opts RecoverOptions) {
	if len(trs) != e.shards {
		panic(fmt.Sprintf("engine: RecoverShards needs one tracer per shard (%d != %d)", len(trs), e.shards))
	}
	recovery.Run(e.shards, e.shards, func(i int) {
		e.subs[i].RecoverWith(trs[i], RecoverOptions{Parallelism: opts.Parallelism})
	})
}

// PersistentDevices returns every shard's persistent devices, concatenated
// in shard order (the order pmem.ShardedDevice composes fingerprints in).
func (e *Sharded) PersistentDevices() []*pmem.Device {
	var devs []*pmem.Device
	for _, s := range e.subs {
		devs = append(devs, s.PersistentDevices()...)
	}
	return devs
}

// Clients returns the total logical client count across all shards.
func (e *Sharded) Clients() int { return e.clients }

// DetectRing returns the per-client descriptor ring size (0 with
// detectability off). Every client's ring lives wholly on its slot shard.
func (e *Sharded) DetectRing() int {
	if e.clients == 0 {
		return 0
	}
	return e.ring
}

// clientSlot maps a logical client id to its slot shard and per-shard slot.
func (e *Sharded) clientSlot(client int) (shard, slot int) {
	return client % e.shards, client / e.shards
}

// DetectBegin announces (client, seq) on the client's slot shard and fences
// the announce at once. An engine's announce barrier sits in its write path,
// on the context the install runs with; here the ring lives on the slot
// shard and the install lands on the key's shard, so no write on the slot
// shard's context would ever trip it — and a fence on the effect shard's
// device never orders a line of the slot shard's. The router therefore
// forces the barrier right after the sub-engine's Begin.
func (e *Sharded) DetectBegin(c *Ctx, client int, seq, kind, key, val uint64) {
	sh, slot := e.clientSlot(client)
	e.subs[sh].DetectBegin(c.sub[sh], slot, seq, kind, key, val)
	e.subs[sh].announceBarrier(c.sub[sh])
	// The router remembers which client is armed so DetectEnd can find the
	// slot shard again; the protocol state proper lives on the slot shard's
	// sub-context. The router has no Linearized hook: the operation's effect
	// lands on a shard it cannot identify, so the verdict publishes in
	// DetectEnd, after every shard's deferred durability has drained. (A
	// sub-structure's own Linearized call still fires on its shard; when the
	// effect shard happens to be the slot shard, that publishes the verdict
	// mid-operation exactly as an unsharded engine would.)
	c.det = descState{armed: true, client: client, seq: seq}
}

// DetectEnd completes the armed operation's descriptor protocol. Before the
// verdict may persist, the operation's effect must be durable wherever it
// landed: the direct durable engines fenced it at the sub-operation's
// OpEnd, and Mirror installs are durable before visible — except for
// deferred durability (relaxed lines), which Drain commits on every shard
// first. Then the slot shard publishes and fences the verdict.
func (e *Sharded) DetectEnd(c *Ctx, result bool) {
	if !c.det.armed {
		return
	}
	e.Drain(c)
	sh, _ := e.clientSlot(c.det.client)
	e.subs[sh].DetectEnd(c.sub[sh], result)
	c.det = descState{}
}

// DetectBeginDeferred arms (client, seq) in batched-verdict mode on the
// client's slot shard. The announce is fenced at once (see DetectBegin), and
// the lap guard runs here rather than in the sub-engine because a lapped
// pending verdict may testify to an effect on a *different* shard: the
// forced drain must commit every shard, not just the slot shard.
func (e *Sharded) DetectBeginDeferred(c *Ctx, client int, seq, kind, key, val uint64) {
	sh, slot := e.clientSlot(client)
	if ringCollision(c.sub[sh].detPending, slot, seq, e.ring) {
		e.DetectDrain(c)
	}
	e.subs[sh].DetectBeginDeferred(c.sub[sh], slot, seq, kind, key, val)
	e.subs[sh].announceBarrier(c.sub[sh])
	c.det = descState{armed: true, deferred: true, client: client, seq: seq}
}

// DetectEndDeferred records the armed operation's verdict on its slot
// shard for the next drain.
func (e *Sharded) DetectEndDeferred(c *Ctx, result bool, rval uint64) {
	if !c.det.armed {
		return
	}
	sh, _ := e.clientSlot(c.det.client)
	e.subs[sh].DetectEndDeferred(c.sub[sh], result, rval)
	c.det = descState{}
}

// DetectDrain publishes every verdict deferred on c, across all slot
// shards. Verdicts publish only after every touched shard drains: the
// batch's effects land wherever their keys hash, so one all-shard Drain
// commits them all before any verdict line is written — the same
// effect-before-verdict order DetectEnd enforces per operation.
func (e *Sharded) DetectDrain(c *Ctx) {
	pending := false
	for _, sc := range c.sub {
		if len(sc.detPending) > 0 {
			pending = true
			break
		}
	}
	if !pending {
		return
	}
	e.Drain(c)
	for i, s := range e.subs {
		s.DetectDrain(c.sub[i])
	}
}

// Detect answers for (client, seq) from the client's slot shard.
func (e *Sharded) Detect(client int, seq uint64) DetectResult {
	sh, slot := e.clientSlot(client)
	return e.subs[sh].Detect(slot, seq)
}

// Counters sums flush and fence counts across all shards.
func (e *Sharded) Counters() (flushes, fences uint64) {
	for _, s := range e.subs {
		f, n := s.Counters()
		flushes += f
		fences += n
	}
	return flushes, fences
}

// ShardCounters reports each shard's cumulative (flushes, fences) — the
// per-shard benchmark panels.
func (e *Sharded) ShardCounters() (flushes, fences []uint64) {
	flushes = make([]uint64, e.shards)
	fences = make([]uint64, e.shards)
	for i, s := range e.subs {
		flushes[i], fences[i] = s.Counters()
	}
	return flushes, fences
}

// addStats accumulates b into a field-wise.
func addStats(a *Stats, b Stats) {
	a.Helps += b.Helps
	a.Retries += b.Retries
	a.ElidedFlushes += b.ElidedFlushes
	a.ElidedFences += b.ElidedFences
	a.PiggybackedFences += b.PiggybackedFences
	a.RelaxedCAS += b.RelaxedCAS
	a.DetectAnnounces += b.DetectAnnounces
	a.DetectVerdicts += b.DetectVerdicts
}

// Stats rolls the shards' statistics up field-wise.
func (e *Sharded) Stats() Stats {
	var total Stats
	for _, s := range e.subs {
		addStats(&total, s.Stats())
	}
	return total
}

// ShardStats reports each shard's statistics separately.
func (e *Sharded) ShardStats() []Stats {
	out := make([]Stats, e.shards)
	for i, s := range e.subs {
		out[i] = s.Stats()
	}
	return out
}

// Footprint sums live words across shards; the replica count is the
// sub-engines' (identical on every shard).
func (e *Sharded) Footprint() (words uint64, replicas int) {
	for _, s := range e.subs {
		w, r := s.Footprint()
		words += w
		replicas = r
	}
	return words, replicas
}
