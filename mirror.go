// Package mirror is a Go reproduction of "Mirror: Making Lock-Free Data
// Structures Persistent" (Friedman, Petrank, Ramalhete — PLDI 2021).
//
// Mirror converts any linearizable lock-free data structure into a durably
// linearizable one by keeping two replicas of every mutable word: a
// persistent replica on NVMM — updated first, with an explicit flush and
// fence — and a volatile replica (ideally on DRAM) from which all reads are
// served. A per-word sequence number updated by double-word CAS keeps the
// replicas in lock step; reads never need to be persisted because nothing
// becomes readable before it is durable.
//
// Go exposes neither persistent memory nor cache-line flushes, so this
// package runs the full system against a simulated memory substrate
// (internal/pmem): word-addressable devices with clwb/sfence semantics, a
// crash model with an eviction adversary, and a calibrated latency model
// reproducing the DRAM/NVMM cost ratios of the paper's platform. Every
// mechanism of the paper — the patomic cell protocol, the dual-replica
// allocator, trace-based recovery with offline GC, and the baseline
// transformations it is evaluated against — is implemented underneath this
// facade; see DESIGN.md for the inventory.
//
// # Quick start
//
//	rt := mirror.New(mirror.Options{})        // MirrorDRAM runtime
//	ctx := rt.NewCtx()                        // one per goroutine
//	set := rt.NewHashTable(ctx, 1024)         // durable lock-free hash table
//	set.Insert(ctx, 42, 100)
//	rt.Crash(mirror.CrashDropAll, 0)          // simulated power failure
//	rt.Recover()                              // trace, copy, rebuild
//	ctx = rt.NewCtx()                         // contexts do not survive crashes
//	_, ok := set.Get(ctx, 42)                 // true: the insert was durable
package mirror

import (
	"fmt"
	"math/rand"
	"sync"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures"
	"mirror/internal/structures/bst"
	"mirror/internal/structures/hashtable"
	"mirror/internal/structures/list"
	"mirror/internal/structures/queue"
	"mirror/internal/structures/skiplist"
)

// Kind selects the persistence engine a runtime uses. MirrorDRAM is the
// paper's contribution; the others are the baselines it is evaluated
// against, runnable through the identical API — the transformation is a
// one-line change, as §3.2 promises.
type Kind = engine.Kind

// Engine kinds.
const (
	// OrigDRAM runs the original non-durable structures on DRAM.
	OrigDRAM = engine.OrigDRAM
	// OrigNVMM runs the original non-durable structures on NVMM.
	OrigNVMM = engine.OrigNVMM
	// Izraelevitz applies the flush-everything general transformation.
	Izraelevitz = engine.Izraelevitz
	// NVTraverse applies the traversal-form transformation (PLDI'20).
	NVTraverse = engine.NVTraverse
	// MirrorDRAM is Mirror with the volatile replica on DRAM (§6.2).
	MirrorDRAM = engine.MirrorDRAM
	// MirrorNVMM is Mirror with both replicas on NVMM (§6.3).
	MirrorNVMM = engine.MirrorNVMM
)

// Ctx is a per-goroutine operation context (thread handle). Contexts are
// invalidated by Crash/Recover; create fresh ones afterwards.
type Ctx = engine.Ctx

// Set is a durable (engine permitting) concurrent set with values.
type Set = structures.Set

// CrashPolicy selects the eviction adversary applied at a simulated power
// failure.
type CrashPolicy = pmem.CrashPolicy

// Crash policies.
const (
	// CrashDropAll loses every unfenced write.
	CrashDropAll = pmem.CrashDropAll
	// CrashKeepAll persists every write, fenced or not.
	CrashKeepAll = pmem.CrashKeepAll
	// CrashRandom flips a coin per 8-byte word.
	CrashRandom = pmem.CrashRandom
)

// KeyMax is the largest usable key; keys must also be nonzero.
const KeyMax = structures.KeyMax

// Options configure a Runtime.
type Options struct {
	// Kind is the persistence engine (default MirrorDRAM).
	Kind Kind
	// Words is the capacity of each simulated device in 8-byte words
	// (default 4Mi words = 32 MiB per device).
	Words int
	// Latency applies the DRAM/NVMM latency models; leave it off except
	// for benchmarking (default off).
	Latency bool
	// DisableTracking turns off the persistent media image; crashes
	// become unavailable but every operation gets a little faster.
	DisableTracking bool
}

// Runtime owns the simulated devices, the allocator, and the persistent
// roots. All structures created from one runtime share its memory and are
// recovered together.
type Runtime struct {
	eng engine.Engine

	mu         sync.Mutex
	structures []recoverable
	nextRoot   int
}

// recoverable is one structure's whole recovery obligation, registered as a
// unit so that no caller can run one half without the other: the tracer
// that enumerates its reachable objects, and the attach-time repair pass
// that restores the invariants a crash may legally break (relaxed
// auxiliary updates can persist out of order; see skiplist.NewAt and
// bst.NewAt). repair is nil for structures with nothing to repair.
type recoverable struct {
	tracer engine.Tracer
	repair func(c *Ctx)
}

// rootFieldsPerRuntime bounds how many structures one runtime can hold
// (the hash table takes two root fields, the others one).
const rootFieldsPerRuntime = 16

// New creates a runtime.
func New(opts Options) *Runtime {
	words := opts.Words
	if words == 0 {
		words = 1 << 22
	}
	return &Runtime{eng: engine.New(engine.Config{
		Kind:       opts.Kind,
		Words:      words,
		RootFields: rootFieldsPerRuntime,
		Latency:    opts.Latency,
		Track:      !opts.DisableTracking,
	})}
}

// Engine exposes the underlying persistence engine for advanced use.
func (r *Runtime) Engine() engine.Engine { return r.eng }

// Kind returns the runtime's engine kind.
func (r *Runtime) Kind() Kind { return r.eng.Kind() }

// NewCtx creates a per-goroutine context.
func (r *Runtime) NewCtx() *Ctx { return r.eng.NewCtx() }

func (r *Runtime) takeRoots(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nextRoot+n > rootFieldsPerRuntime {
		panic("mirror: too many structures for one runtime")
	}
	f := r.nextRoot
	r.nextRoot += n
	return f
}

func (r *Runtime) register(tr engine.Tracer, repair func(c *Ctx)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.structures = append(r.structures, recoverable{tracer: tr, repair: repair})
}

// NewList creates a durable Harris linked list.
func (r *Runtime) NewList(c *Ctx) Set {
	f := r.takeRoots(1)
	s := list.New(r.eng, f)
	r.register(s.Tracer(), nil)
	return s
}

// NewHashTable creates a durable hash table with the given power-of-two
// bucket count.
func (r *Runtime) NewHashTable(c *Ctx, buckets int) Set {
	f := r.takeRoots(2)
	s := hashtable.NewAt(r.eng, c, buckets, f)
	r.register(s.Tracer(), nil)
	return s
}

// NewBST creates a durable Natarajan–Mittal binary search tree.
func (r *Runtime) NewBST(c *Ctx) Set {
	f := r.takeRoots(1)
	s := bst.NewAt(r.eng, c, f)
	// Attaching to a recovered tree is what runs its repair passes; the
	// handle s holds only the sentinel refs, which never move.
	r.register(s.Tracer(), func(c *Ctx) { bst.NewAt(r.eng, c, f) })
	return s
}

// NewSkipList creates a durable Fraser-style skip list.
func (r *Runtime) NewSkipList(c *Ctx) Set {
	f := r.takeRoots(1)
	s := skiplist.NewAt(r.eng, c, f)
	// As for the tree: re-attaching repairs, and s holds only the head ref.
	r.register(s.Tracer(), func(c *Ctx) { skiplist.NewAt(r.eng, c, f) })
	return s
}

// Queue is a durable lock-free Michael–Scott FIFO queue — the
// transformation applied beyond sets (see internal/structures/queue).
type Queue = queue.Queue

// NewQueue creates a durable FIFO queue.
func (r *Runtime) NewQueue(c *Ctx) *Queue {
	f := r.takeRoots(2)
	q := queue.NewAt(r.eng, c, f)
	r.register(q.Tracer(), nil)
	return q
}

// Freeze makes every device operation panic, unwinding in-flight
// operations so a crash can be taken at an arbitrary moment. Only crash
// tests and demos need it; Crash freezes implicitly.
func (r *Runtime) Freeze() { r.eng.Freeze() }

// Crash simulates a full-system power failure: volatile devices are wiped,
// and unfenced persistent writes survive according to the policy. All
// goroutines operating on the runtime must have unwound (see Freeze).
func (r *Runtime) Crash(policy CrashPolicy, seed int64) {
	r.eng.Crash(policy, rand.New(rand.NewSource(seed)))
}

// Recover rebuilds all volatile state after Crash: the registered tracers
// enumerate every reachable object, the volatile replica is reconstructed,
// unreachable memory is reclaimed (§4.3.3), and every structure's repair
// pass runs. Structures created before the crash remain usable afterwards
// (on a durable engine — under the non-durable baselines nothing survives);
// contexts do not — create fresh ones. It is RecoverParallel(1).
func (r *Runtime) Recover() { r.RecoverParallel(1) }

// RecoverParallel is Recover with a bounded worker pool: the registered
// tracers are dealt round-robin across parallelism shards, and the trace,
// volatile-replica rebuild, and allocator reconstruction all run on that
// many goroutines (see internal/recovery). Structures within one shard are
// traced sequentially; a runtime holding a single large structure gains
// nothing here — trace it through engine.RecoverWith with its ShardedTracer
// instead. The repair passes run afterwards, sequentially.
func (r *Runtime) RecoverParallel(parallelism int) {
	r.mu.Lock()
	structs := append([]recoverable(nil), r.structures...)
	r.mu.Unlock()
	sharded := func(shard, shards int) engine.Tracer {
		return func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int)) {
			for i := shard; i < len(structs); i += shards {
				structs[i].tracer(read, visit)
			}
		}
	}
	r.eng.RecoverWith(sharded(0, 1), engine.RecoverOptions{
		Parallelism: parallelism,
		Sharded:     sharded,
	})
	c := r.eng.NewCtx()
	for _, st := range structs {
		if st.repair != nil {
			st.repair(c)
		}
	}
}

// Counters reports the cumulative number of flush and fence instructions
// issued by the runtime's devices.
func (r *Runtime) Counters() (flushes, fences uint64) { return r.eng.Counters() }

// Report summarizes the runtime's resource and persistence activity.
type Report struct {
	Kind      Kind
	LiveWords uint64 // allocated words in the engine's cell layout
	Replicas  int    // device copies holding them (bytes = LiveWords*8*Replicas)
	Flushes   uint64
	Fences    uint64
}

// String renders the report for logs and examples.
func (rep Report) String() string {
	return fmt.Sprintf("%v: %d live words x%d replicas (%.1f MiB), %d flushes, %d fences",
		rep.Kind, rep.LiveWords, rep.Replicas,
		float64(rep.LiveWords*uint64(rep.Replicas))*8/(1<<20),
		rep.Flushes, rep.Fences)
}

// Report returns a snapshot of the runtime's activity.
func (r *Runtime) Report() Report {
	words, replicas := r.eng.Footprint()
	fl, fe := r.eng.Counters()
	return Report{
		Kind: r.eng.Kind(), LiveWords: words, Replicas: replicas,
		Flushes: fl, Fences: fe,
	}
}
