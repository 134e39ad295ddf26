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
// crash model with an eviction adversary, and per-device DRAM/NVMM cost
// tables that price exact access counts at the paper's platform ratios. Every
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
//
// Open does the same over a media file, which survives kill -9:
//
//	rt, err := mirror.Open("app.img", mirror.Options{}) // attaches to app.img if it holds an image
//	if err != nil { ... }
//	defer rt.Close()
//	set := rt.NewHashTable(rt.NewCtx(), 1024) // the set the last run created, recovered
package mirror

import (
	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/rt"
	"mirror/internal/structures"
	"mirror/internal/structures/queue"
)

// Kind selects the persistence engine a runtime uses. MirrorDRAM is the
// paper's contribution; the others are the baselines it is evaluated
// against, runnable through the identical API — the transformation is a
// one-line change, as §3.2 promises.
type Kind = engine.Kind

// Engine kinds.
const (
	OrigDRAM    = engine.OrigDRAM    // the original non-durable structures on DRAM
	OrigNVMM    = engine.OrigNVMM    // the original non-durable structures on NVMM
	Izraelevitz = engine.Izraelevitz // the flush-everything general transformation
	NVTraverse  = engine.NVTraverse  // the traversal-form transformation (PLDI'20)
	MirrorDRAM  = engine.MirrorDRAM  // Mirror with the volatile replica on DRAM (§6.2)
	MirrorNVMM  = engine.MirrorNVMM  // Mirror with both replicas on NVMM (§6.3)
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
	CrashDropAll = pmem.CrashDropAll // loses every unfenced write
	CrashKeepAll = pmem.CrashKeepAll // persists every write, fenced or not
	CrashRandom  = pmem.CrashRandom  // flips a coin per 8-byte word
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
	// DisableTracking turns off the persistent media image; crashes
	// become unavailable but every operation gets a little faster. Open
	// ignores it: a media file is the image.
	DisableTracking bool
}

// Runtime owns the simulated devices, the allocator, and the persistent
// roots. All structures created from one runtime share its memory and are
// recovered together; each structure's tracer (which relinks the skip
// list's towers) and repair pass are registered with its constructor, so
// no caller can run one without the other. Close releases a runtime's
// media file.
type Runtime = rt.Runtime

// Queue is a durable lock-free Michael–Scott FIFO queue — the
// transformation applied beyond sets (see internal/structures/queue).
type Queue = queue.Queue

// config is the runtime's engine: 16 root fields bound how many structures
// it holds (the hash table and the queue take two, the others one).
func (o Options) config(path string) engine.Config {
	cfg := engine.Config{Kind: o.Kind, Words: o.Words, RootFields: 16,
		Track: !o.DisableTracking || path != "", MediaPath: path}
	if cfg.Words == 0 {
		cfg.Words = 1 << 22
	}
	return cfg
}

// New creates a runtime whose image lives in process memory: it survives
// simulated crashes (Crash, Recover), not the process. It panics on Options
// whose Words cannot hold the runtime's layout.
func New(opts Options) *Runtime {
	r, err := rt.Open(opts.config(""))
	if err != nil {
		panic(err)
	}
	return r
}

// Open creates a runtime whose persistent image lives in the file at path,
// so it survives the process: a later Open of the same path with the same
// options attaches to it, recovers every structure the earlier incarnation
// created, and its k-th New* call returns the structure the earlier k-th
// call created (a different kind there is refused). Open keeps a sidecar
// record at path+".meta"; media without one is wiped and starts fresh, and
// media written under different options is refused with an error that
// says "different configuration". Durable kinds only.
func Open(path string, opts Options) (*Runtime, error) {
	return rt.Open(opts.config(path))
}
