// Package engine defines the persistence-engine abstraction that every
// lock-free data structure in this repository is written against, together
// with the six implementations the paper evaluates:
//
//   - OrigDRAM, OrigNVMM — the original, non-durable structures running on
//     DRAM or NVMM (the "ListOriginalDRAM/NVMM" baselines of §6.2.1);
//   - Izraelevitz — the general transformation of Izraelevitz et al.:
//     flush+fence around every shared access;
//   - NVTraverse — the traversal-form transformation (Friedman et al.,
//     PLDI'20): nothing is persisted during traversal, the destination
//     nodes are persisted just before the critical section;
//   - MirrorDRAM — the paper's contribution with the volatile replica on
//     DRAM (§6.2);
//   - MirrorNVMM — Mirror with both replicas on NVMM (§6.3).
//
// A data structure manipulates objects made of uint64 fields through Refs
// (logical object handles). The engine owns the field-to-word layout: a
// mutable Mirror field is a two-word (value, sequence) cell mirrored on two
// devices, a write-once or rebuilt one a plain word (see Plain); every other
// engine stores one word per field on one device.
// Because layout is hidden behind this interface, a single implementation
// of each data structure runs unmodified under every engine — which is the
// "automatic transformation" claim of the paper made concrete.
package engine

import (
	"fmt"
	"math/bits"
	"math/rand"

	"mirror/internal/palloc"
	"mirror/internal/patomic"
	"mirror/internal/pmem"
	"mirror/internal/recovery"
)

// Ref is a logical object handle: the word offset of the object on the
// engine's reference device. 0 is nil. Objects are at least 32-byte
// aligned, so data structures may use the two low bits of stored Refs for
// marks, flags, and tags.
type Ref = uint64

// Plain is the unit of a plain word's field index. An object's mutable
// fields are cells and come first, so every cell keeps the 16-byte alignment
// DWCAS needs; its write-once and rebuilt fields are plain words after them.
// On Mirror a cell is a (value, sequence) pair on both replicas and a plain
// word is one word with no sequence number, never the target of the Figure 4
// loop (DESIGN.md "Plain words", W1–W2). The direct engines give both kinds
// one word.
//
// Every field index below Plain names a cell; cells*Plain + j names plain
// word j of an object whose first cells fields are cells (cells ≥ 1). An
// object's size — what Alloc, FreeUnpublished, Retire, MakePersistent,
// CheckInvariants and a tracer's visit take — is written the same way: n is
// n cells, and cells*Plain + n is cells cells followed by n plain words.
const Plain = 1 << plainShift

const plainShift = 28

// span returns the words the fields below field f occupy when a cell is cw
// words wide: the offset of field f within its object, or, for a size, the
// object's words. Every field access runs it, so it does not branch: isCell
// is 1 when f names a cell (then words is f) and 0 when it names a plain
// word.
func span(f, cw int) int {
	cells, words := f>>plainShift, f&(Plain-1)
	isCell := int((uint(cells) - 1) >> (bits.UintSize - 1))
	return cells*cw + words + words*(cw-1)*isCell
}

// checkKind panics, under pmem debug checks, when a write does not fit its
// field's kind: Store, CAS and CASRelaxed write cells only, since
// nothing writes a write-once word after its publish (W1), and CASRebuilt
// writes plain words only, since a rebuilt word lives outside the Figure 4
// loop (W2).
func checkKind(field int, rebuilt bool) {
	if pmem.DebugChecksEnabled() && (field >= Plain) != rebuilt {
		panic(fmt.Sprintf("engine: field %d is the wrong kind for this write (plain word: %v, CASRebuilt: %v)", field, field >= Plain, rebuilt))
	}
}

// Kind selects an engine implementation.
type Kind int

// MirrorDRAM is the zero value, so it is the default everywhere.
const (
	MirrorDRAM Kind = iota
	MirrorNVMM
	OrigDRAM
	OrigNVMM
	Izraelevitz
	NVTraverse
)

// String returns the engine's short display name as used in the paper's
// figure legends.
func (k Kind) String() string {
	switch k {
	case OrigDRAM:
		return "OrigDRAM"
	case OrigNVMM:
		return "OrigNVMM"
	case Izraelevitz:
		return "Izraelevitz"
	case NVTraverse:
		return "NVTraverse"
	case MirrorDRAM:
		return "Mirror"
	case MirrorNVMM:
		return "MirrorNVMM"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Durable reports whether structures under this engine survive a crash.
func (k Kind) Durable() bool {
	switch k {
	case Izraelevitz, NVTraverse, MirrorDRAM, MirrorNVMM:
		return true
	}
	return false
}

// Kinds lists every engine kind.
func Kinds() []Kind {
	return []Kind{OrigDRAM, OrigNVMM, Izraelevitz, NVTraverse, MirrorDRAM, MirrorNVMM}
}

// Ctx is the per-thread context: allocation cache, epoch announcement, and
// flush sets. A Ctx must be used by one goroutine at a time.
type Ctx struct {
	Cache *palloc.Cache
	fs    pmem.FlushSet // direct engines: flush set of the single device
	pa    patomic.Ctx   // mirror engines: persistent-replica flush set

	// det is the armed detectable-operation state (see detect.go);
	// detPending holds verdicts awaiting the next DetectDrain, and
	// detLines is the drain's scratch for the verdict lines it writes.
	det        descState
	detPending []pendingVerdict
	detLines   []drainLine
	// doom is the tagged word the next CAS starts to unlink (Doom).
	doom doomed
	// owed lists the operations whose retired node may be reused only
	// once their witness is durable (detect.go O6); onClose, when set,
	// hands them on with the context's limbo.
	owed    []owedWitness
	onClose func()
}

// Close ends the context's life: its allocation cache hands its limbo and
// free lists on (palloc.Cache.Close). The context must not be used after.
func (c *Ctx) Close() {
	if c.onClose != nil {
		c.onClose()
	}
	c.Cache.Close()
}

// Tracer walks a data structure's reachable objects during recovery. It is
// the "tracing operation" the paper requires the user to provide (§3.2):
// read reads a field of an object from the persistent post-crash image, and
// visit must be called exactly once per reachable object with its size
// (Plain) and how many of its trailing plain words are rebuilt (W2, see
// CASRebuilt). No recovery copy or restore covers a rebuilt word: the
// allocator still accounts for the whole object, but the word's recovered
// value is whatever the trace writes with relink, into the replica reads
// see (rep_v on Mirror, the device on the direct engines). A rebuilt word
// the trace does not relink must not be read before something writes it.
// Because no copy covers a rebuilt word, relink may run before or after the
// visit of the object it writes, and at any worker count.
type Tracer func(read func(ref Ref, field int) uint64, visit func(ref Ref, fields, rebuilt int), relink func(ref Ref, field int, v uint64))

// RecoverOptions tunes the recovery pipeline of §4.3.3. The zero value is
// the sequential recovery — identical in behavior to Recover.
type RecoverOptions = recovery.Options

// Memory is the role a data structure is written against: object
// allocation and initialization and the loads and writes of the engine's
// persistence discipline. It has no detectability method: the engine's
// write path orders a detectable operation's descriptor lines by itself.
type Memory interface {
	// OpBegin/OpEnd bracket every data-structure operation; they manage
	// the reclamation epoch and any end-of-operation durability barrier.
	OpBegin(c *Ctx)
	OpEnd(c *Ctx)

	// Alloc creates an uninitialized object of the given size (Plain:
	// cells, then plain words). Initialize every field with StoreInit and
	// call Publish before making the object reachable.
	Alloc(c *Ctx, fields int) Ref
	// StoreInit writes a field of an unpublished object (no concurrency,
	// no sequence bump beyond the initial one). It is the only write a
	// write-once plain word ever takes.
	StoreInit(c *Ctx, ref Ref, field int, v uint64)
	// Publish is the durability barrier between initializing an object
	// and linking it into the structure.
	Publish(c *Ctx, ref Ref)
	// FreeUnpublished returns an object that was never made reachable.
	FreeUnpublished(c *Ctx, ref Ref, fields int)
	// Retire schedules an unlinked object for epoch-based reclamation.
	Retire(c *Ctx, ref Ref, fields int)

	// Load reads a field with the engine's full persistence discipline
	// (a "critical" read in NVTraverse terms).
	Load(c *Ctx, ref Ref, field int) uint64
	// TraversalLoad reads a field during a search phase; engines that
	// distinguish traversal from critical reads skip persistence here.
	TraversalLoad(c *Ctx, ref Ref, field int) uint64
	// Store durably writes a cell.
	Store(c *Ctx, ref Ref, field int, v uint64)
	// CAS durably compares-and-swaps a cell. It is the call for every
	// linearization point (marks, level-0 links, flags).
	CAS(c *Ctx, ref Ref, field int, old, new uint64) bool
	// CASRelaxed compares-and-swaps a field whose update is only
	// retire-gated: an auxiliary physical update (snip of a marked node,
	// bst excision) whose loss at a crash leaves a state some earlier
	// crash could also have left. Mirror and NVTraverse make the install
	// visible before it is durable, deferring the commit to the
	// relaxed-line registry, which is drained before any retired object
	// is freed. Linearization points must use CAS. Izraelevitz, which
	// elides nothing, and the volatile engines treat it as CAS exactly.
	CASRelaxed(c *Ctx, ref Ref, field int, old, new uint64) bool
	// CASRebuilt compares-and-swaps a plain word that recovery rebuilds
	// and never reads: a skip list's links and marks above level 0. The
	// install is never flushed, fenced or registered; on Mirror it is one
	// word CAS on rep_v, and rep_p keeps the word's StoreInit value. After
	// a crash the word's media value may therefore be stale or point into
	// freed memory: the structure's tracer must not follow it, must name it
	// as rebuilt in its visit so that no recovery copy covers it, and
	// relinks it to its recovered value before anything reads it. Every
	// write to such a word after StoreInit, outside recovery, must use
	// this call.
	CASRebuilt(c *Ctx, ref Ref, field int, old, new uint64) bool
	// MakePersistent ensures the words of an object's first fields (a
	// size, as Alloc takes) are durable; traversal data structures call it
	// on the destination nodes before their critical section (the
	// NVTraverse barrier). No-op elsewhere.
	MakePersistent(c *Ctx, ref Ref, fields int)
}

// Lifecycle is the role a harness drives an engine through: contexts,
// quiescing, and the simulated power failure.
type Lifecycle interface {
	// NewCtx creates a per-thread context.
	NewCtx() *Ctx
	// Drain commits every durability obligation this context has
	// deferred: the device's relaxed-line registry. Quiesce points and
	// media-hash pins call it; a no-op when nothing is deferred.
	Drain(c *Ctx)

	// Freeze makes all device operations panic, unwinding in-flight
	// operations so a crash can be taken.
	Freeze()
	// FreezeAfter arms a countdown on the persistent device: its n-th
	// subsequent operation freezes it. Deterministic crash placement for
	// the exhaustive crash-point tests.
	FreezeAfter(n int64)
	// Crash simulates a power failure (devices must be quiesced).
	Crash(policy pmem.CrashPolicy, rng *rand.Rand)
}

// Recovery is the post-crash role: one tracer walks the structure from the
// persistent root object.
type Recovery interface {
	// Recover rebuilds volatile state after Crash using the structure's
	// tracer; for non-durable engines it reinitializes empty state. It is
	// RecoverWith with zero options (sequential).
	Recover(tr Tracer)
	// RecoverWith is Recover with an explicit pipeline configuration: tr
	// traces once, sequentially, on the caller, and the rest of the pass —
	// the replica copy, the span restore of an attach and the allocator
	// scan — follows it batch by batch, on up to opts.Parallelism-1 other
	// goroutines while the trace continues (inline at one worker).
	RecoverWith(tr Tracer, opts RecoverOptions)
	// CheckInvariants verifies, on a quiesced engine, the invariants that
	// tie an object's replicas together — what recovery must re-establish
	// for every reachable object, given its size. It returns a description
	// of the first violation, or "". Only cells have invariants to check;
	// engines with a single replica have none at all.
	CheckInvariants(ref Ref, fields int) string
}

// Detector is the detectability role: per-client operation descriptors
// answering "did (client, seq) commit?" after a crash (see detect.go). One
// call family brackets every detectable operation: DetectBeginDeferred …
// DetectEndDeferred records its verdict in the context, and DetectDrain
// publishes the verdicts of a run of operations — across clients — under
// one trailing End fence, after the engine settles whatever durability it
// deferred. An operation that must be answered before the next one starts
// is simply a drain of one. The caller never decides when to fence the
// announce: the engine's write path does it, before the armed operation's
// first install and only then.
//
// Detectability is on when Config.Clients > 0; with it off, Detect and
// DetectBeginDeferred panic. The ring a client may fill is Config.DetectRing
// after SetDefaults.
type Detector interface {
	// Detect answers whether (client, seq) committed, from the descriptor
	// region's post-crash words; valid on a quiesced, crashed, or
	// recovered engine.
	Detect(client int, seq uint64) DetectResult

	// DetectBeginDeferred announces operation (client, seq) with its
	// payload before the operation body runs. The announce line is written
	// here, flushed by the operation's first fence and made durable by the
	// engine before the operation's first durable-before-visible install —
	// by that install's own preceding fence when it has one (an insert's
	// publish), by the install's own fence when the install carries the
	// operation's tag (Ctx.MarkTag: a skip-list delete's mark on Mirror),
	// else by one fence just ahead of it; an operation that installs
	// nothing never flushes it. Client sequence numbers must be
	// strictly increasing per client, starting at 1. A client may hold up
	// to Config.DetectRing pending verdicts; only arming a seq that would lap a
	// still-pending entry forces a drain first — the entry-lapped
	// inference of Detect requires the lapped operation's effect and
	// verdict to be durable before the overwriting announce can be.
	DetectBeginDeferred(c *Ctx, client int, seq, kind, key, val uint64)
	// DetectEndDeferred records the armed operation's verdict, with the
	// auxiliary return word rval (a dequeued value), for publication at
	// the next DetectDrain — unless the operation linked the object whose
	// tagged word its announce names (Ctx.NodeTag), whose evidence is
	// already durable and needs no verdict. The operation's response must
	// not be released to the client before that drain.
	DetectEndDeferred(c *Ctx, result bool, rval uint64)
	// DetectDrain publishes every verdict deferred on c. After it returns,
	// every response recorded by DetectEndDeferred on c may be released.
	// No-op when nothing is pending.
	DetectDrain(c *Ctx)
}

// Introspection is the read-only accounting role.
type Introspection interface {
	// Counters reports cumulative flush and fence counts across all
	// devices (for the ablation benchmarks).
	Counters() (flushes, fences uint64)
	// Stats reports the engine's cumulative protocol and elision
	// statistics.
	Stats() Stats
	// Footprint reports the live allocated words (in the engine's cell
	// layout) and how many device replicas hold them, so total memory is
	// words × replicas × 8 bytes — the space-overhead account of §6.2.5.
	Footprint() (words uint64, replicas int)
	// Devices returns every device the engine runs on (rep_p then rep_v for
	// Mirror), each with the cost table of its medium; a counted pass
	// (pmem.Count) over them prices an operation.
	Devices() []*pmem.Device
}

// PersistentDevices returns the devices of e whose contents survive a crash
// (pmem.Device.Persistent): the one device of a durable direct engine, rep_p
// for Mirror, none for the non-durable originals. Fault injectors install
// adversaries and fingerprint post-crash media images through it.
func PersistentDevices(e Introspection) []*pmem.Device {
	var ds []*pmem.Device
	for _, d := range e.Devices() {
		if d.Persistent() {
			ds = append(ds, d)
		}
	}
	return ds
}

// Engine is a complete persistence engine: the union of the five roles.
// Everything a role's caller may need is a method of that role — there are
// no optional capabilities discovered by type assertion, so a pass-through
// wrapper (struct{ Engine }) behaves exactly like the engine it wraps.
// DESIGN.md "Persistence seam" draws who uses which role.
type Engine interface {
	Memory
	Lifecycle
	Recovery
	Detector
	Introspection
}

// Stats aggregates an engine's protocol and elision statistics.
type Stats struct {
	// Helps and Retries are the Mirror protocol's help completions and
	// restarts (patomic.Mem.Stats); zero for engines without a help
	// protocol.
	Helps, Retries uint64
	// ElidedFlushes and ElidedFences count persistence instructions the
	// flush-elision layer skipped because the persisted-epoch watermark,
	// a batched-init line dedup, an empty pending set, or the
	// relaxed-line registry proved them redundant.
	ElidedFlushes, ElidedFences uint64
	// PiggybackedFences counts fences avoided by riding a concurrent
	// fence's commit ticket instead of issuing one.
	PiggybackedFences uint64
	// RelaxedCAS counts retire-gated installs whose durability was
	// deferred to the relaxed-line registry (committed at drain time).
	RelaxedCAS uint64
	// DetectAnnounces and DetectVerdicts count descriptor-region announces
	// written and verdicts published, one per operation each (zero with
	// detectability off); how many descriptor lines that cost shows in the
	// flush count.
	DetectAnnounces, DetectVerdicts uint64
	// AnnounceFences counts the fences the announce barrier issued: one
	// per installing operation that no fence of its own covered first.
	AnnounceFences uint64
	// Witnesses counts the records of an insert's seq written before an
	// install that dooms its evidence, and WitnessFences the fences such a
	// record paid for itself because no fence of the install came ahead of
	// its visibility (detect.go O6). Unverdicted counts the operations
	// acknowledged on their own install's evidence, with no verdict line.
	Witnesses, WitnessFences, Unverdicted uint64
}

// Config describes an engine instance.
type Config struct {
	Kind Kind
	// Words is the capacity of each device in 8-byte words.
	Words int
	// RootFields is the number of fields of the persistent root object.
	RootFields int
	// Track maintains the persistent media image so Crash/Recover work.
	// Benchmarks that never crash can disable it.
	Track bool
	// Clients reserves a per-client operation-descriptor region (Clients
	// rings of DetectRing entries) between the roots and the allocator
	// base, enabling the detectability protocol (DetectBeginDeferred/
	// DetectEndDeferred/DetectDrain/Detect). Zero leaves the layout
	// unchanged and detectability off.
	Clients int
	// DetectRing is the per-client descriptor ring size: how many
	// operations one client may have in flight with Detect still
	// authoritative for each (the serving tier's pipeline window bound).
	// Zero defaults to DefaultDetectRing when Clients > 0.
	DetectRing int
	// MediaPath backs the persistent device's media image with a
	// MAP_SHARED mmap of this file (pmem.Config.MediaPath), so the fenced
	// image survives abrupt process death — the serving tier's substrate.
	// Durable engines only; requires Track.
	MediaPath string
	// Attach adopts an existing media image instead of initializing a
	// fresh engine: construction skips the root-cell initialization
	// writes and copies nothing, leaving the engine as immediately after
	// a Crash whose cache view is still empty. The caller must run
	// Recover (or RecoverWith), which restores the roots, the descriptor
	// region and every traced span from the media — work that follows
	// the live data, not the capacity — before using it. Requires Track;
	// normally paired with MediaPath pointing at the previous
	// incarnation's file.
	Attach bool
}

// SetDefaults fills the zero fields that have defaults: Words, RootFields
// and, with Clients > 0, DetectRing. New applies it, so the defaulted config
// describes the engine's layout.
func (c *Config) SetDefaults() {
	if c.Words == 0 {
		c.Words = 1 << 20
	}
	if c.RootFields == 0 {
		c.RootFields = 8
	}
	if c.Clients > 0 && c.DetectRing == 0 {
		c.DetectRing = DefaultDetectRing
	}
}

// DetectBeginDeferred is e.DetectBeginDeferred. The trailing argument is
// ignored: it used to say whether the announce fence could be deferred,
// which the engine now decides in its write path. It stays only because the
// frozen benchmark passes it; drop it together with server.Config.BatchWait
// in the next benchmark-only change.
func DetectBeginDeferred(e Detector, c *Ctx, client int, seq, kind, key, val uint64, _ bool) {
	e.DetectBeginDeferred(c, client, seq, kind, key, val)
}

// DetectEndDeferred is e.DetectEndDeferred.
func DetectEndDeferred(e Detector, c *Ctx, result bool, rval uint64) {
	e.DetectEndDeferred(c, result, rval)
}

// DetectDrain is e.DetectDrain.
func DetectDrain(e Detector, c *Ctx) { e.DetectDrain(c) }

// Validate reports why New cannot build an engine from the defaulted c: a
// descriptor ring outside [1, MaxDetectRing], more ring entries than a tag
// can name, a device beyond MaxWords (a Ref would reach the tag bits), or a
// device that cannot hold the roots, the descriptor region and one
// allocator chunk.
func (c *Config) Validate() error {
	if c.Clients > 0 && (c.DetectRing < 1 || c.DetectRing > MaxDetectRing) {
		return fmt.Errorf("engine: descriptor ring %d outside [1, %d]", c.DetectRing, MaxDetectRing)
	}
	if c.Clients > 0 && c.Clients*c.DetectRing > maxTagEntries {
		return fmt.Errorf("engine: %d clients of %d ring entries exceed the %d entries a tag can name",
			c.Clients, c.DetectRing, maxTagEntries)
	}
	if c.Words > MaxWords {
		return fmt.Errorf("engine: a device of %d words reaches the tag bits (at most %d words)", c.Words, MaxWords)
	}
	if _, base := c.layout(); c.Words <= 0 || uint64(c.Words) < base+palloc.ChunkWords {
		return fmt.Errorf("engine: a device of %d words cannot hold the roots, the descriptor region and one allocator chunk (%d words)",
			c.Words, base+palloc.ChunkWords)
	}
	return nil
}

// New creates an engine. It panics on a config Validate refuses.
func New(cfg Config) Engine {
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	switch cfg.Kind {
	case OrigDRAM, OrigNVMM, Izraelevitz, NVTraverse:
		return newDirect(cfg)
	case MirrorDRAM, MirrorNVMM:
		return newMirror(cfg)
	default:
		panic(fmt.Sprintf("engine: unknown kind %v", cfg.Kind))
	}
}

// rebuild is the recovery pipeline after the fixed regions, in one streamed
// pass (recovery.Stream): the trace of tr over read runs on the caller,
// writing every rebuilt word it recovers with relink, and each batch of
// spans it visits goes to a sink that applies restore to every span's words
// up to its rebuilt ones (nil: nothing to copy) and folds the batch, whole
// objects, into its allocator scan; the scans rebuild the allocator at the
// end. At one worker the sink runs inline, in trace order; at more, the copy
// and the scan run on other goroutines while the trace continues — which
// cannot reorder a relink against a copy, since no copy covers a rebuilt
// word. cellW turns fields into words. Attach and an in-process Recover
// take this one path on every durable engine.
func rebuild(read func(Ref, int) uint64, tr Tracer, relink func(Ref, int, uint64), workers int, alloc *palloc.Allocator, cellW int, restore func(ref Ref, words int)) {
	scans := recovery.Stream(workers, alloc.NewScan, func(emit func(palloc.Extent)) {
		if tr != nil {
			tr(read, func(ref Ref, fields, rebuilt int) {
				emit(palloc.Extent{Off: ref, Words: span(fields, cellW), Rebuilt: rebuilt})
			}, relink)
		}
	}, func(s *palloc.Scan, batch []palloc.Extent) {
		if restore != nil {
			for _, sp := range batch {
				restore(sp.Off, sp.Words-sp.Rebuilt)
			}
		}
		s.Add(batch)
	})
	alloc.RebuildFrom(scans...)
}

// restoreFixed starts recovery over an adopted media file, whose device view
// is empty: it restores the roots and the descriptor region — everything
// below the allocator base — and returns the trace's read, which reads the
// media itself through the engine's field-to-word map addr. Nothing the
// trace does not reach is ever copied.
func restoreFixed(dev *pmem.Device, alloc *palloc.Allocator, addr func(Ref, int) uint64) func(Ref, int) uint64 {
	dev.Restore(Root, int(alloc.Base()-Root))
	return func(ref Ref, field int) uint64 { return dev.PersistedWord(addr(ref, field)) }
}

// Root is the persistent root object (Config.RootFields cells), at the same
// device offset on every engine. It leaves word 0 unused (nil) and keeps the
// root 32-byte aligned.
const Root Ref = 8

// layout returns the device offsets of the descriptor region and of the
// allocator base for the defaulted c. The root object (RootFields cells)
// comes first, rounded so the allocator base stays aligned; with Clients > 0
// the cache-line-aligned descriptor region follows it and the allocator base
// moves up by its size.
func (c *Config) layout() (descBase, allocBase uint64) {
	cellW := 1
	if c.Kind == MirrorDRAM || c.Kind == MirrorNVMM {
		cellW = patomic.CellWords
	}
	allocBase = (uint64(c.RootFields*cellW) + Root + palloc.AlignWords - 1) &^ (palloc.AlignWords - 1)
	if c.Clients > 0 {
		descBase = (allocBase + pmem.WordsPerLine - 1) &^ (pmem.WordsPerLine - 1)
		allocBase = descBase + descWords(c.Clients, c.DetectRing)
	}
	return descBase, allocBase
}
