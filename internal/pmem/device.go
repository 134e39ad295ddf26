// Package pmem simulates the memory devices of the paper's platform: a
// byte-addressable non-volatile main memory (NVMM) with explicit write-back
// instructions, and a conventional volatile DRAM. Go offers no cache-line
// flush control and its GC-managed heap cannot survive a process "crash",
// so this substrate reifies the hardware model of §2.1–2.2 in software:
//
//   - A Device is a word-addressable array. The array contents play the
//     role of the cache hierarchy's current view of memory.
//   - A persistent Device additionally keeps a media image: the content
//     that would survive a power failure. Words reach the media only via
//     Flush+Fence (clwb+sfence, §2.2) — or nondeterministically at crash
//     time, modeling implicit cache evictions.
//   - Crash applies the eviction adversary to the media, then resets the
//     device's current view from the media (persistent device) or wipes it
//     (volatile device).
//
// Addresses are word offsets (8 bytes per word). Offset 0 is reserved so it
// can serve as a null pointer. Each device carries a CostModel — the DRAM
// or NVMM cost table of the real platform — that a counted pass (Count)
// multiplies by its exact access counts; no access ever waits.
//
// The device fast path is built to disappear from profiles (DESIGN.md
// "Substrate hot path"): one packed atomic state word gates the
// freeze/countdown/counting machinery, and flush/fence counters live in
// per-FlushSet shards summed on demand.
package pmem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"

	"mirror/internal/dwcas"
)

// WordsPerLine is the cache-line size in words (64 bytes).
const WordsPerLine = 8

const lineShift = 3 // log2(WordsPerLine)

// ErrFrozen is the panic value raised by every device operation after
// Freeze; the crash harness recovers it to unwind in-flight operations at an
// arbitrary instruction boundary, simulating a full-system power failure.
var ErrFrozen = errors.New("pmem: device frozen (simulated power failure)")

// CrashPolicy selects how the eviction adversary treats words that were
// written but never explicitly flushed and fenced before the crash.
type CrashPolicy int

const (
	// CrashDropAll loses every unfenced write: the most adversarial
	// outcome for algorithms that forget a flush.
	CrashDropAll CrashPolicy = iota
	// CrashKeepAll persists every write, as if the cache had eagerly
	// evicted everything: the most adversarial outcome for algorithms
	// that rely on writes *not* persisting.
	CrashKeepAll
	// CrashRandom flips an independent coin per word (8-byte persist
	// granularity, matching x86 persistence atomicity).
	CrashRandom
	// CrashDropFlushed persists every unfenced write except those on lines
	// a FlushSet has flushed and not yet fenced: the most adversarial
	// outcome for algorithms that treat a flush as an ordering point — a
	// later, never-flushed write reaches the media (an eviction) while the
	// flushed line does not.
	CrashDropFlushed
	// CrashKeepFlushed is its mirror image: it persists every line a
	// FlushSet has flushed and not yet fenced and drops every never-flushed
	// write — the most adversarial outcome for algorithms that count on a
	// fence still to come to flush a line (FlushAhead) before anything
	// flushed ahead of it can persist.
	CrashKeepFlushed
)

// Config describes a Device.
type Config struct {
	Name       string    // for diagnostics
	Words      int       // capacity in 8-byte words (offset 0 reserved)
	Persistent bool      // survives Crash via its media image
	Track      bool      // maintain the media image (required for Crash)
	Model      CostModel // cost table of the medium (cost.go)

	// Elide is ignored.
	//
	// Deprecated: it switched on a per-line persisted-epoch watermark that
	// let EnsureDurable skip a flush and fence; no device keeps one now.
	// Every persistent device records its pending lines and keeps the
	// relaxed-line registry (elide.go). The field remains only so that
	// callers that set it (the benchmark's micro pass) keep compiling.
	Elide bool

	// MediaPath backs the media image with a MAP_SHARED mmap of this file
	// instead of an anonymous slice (mediafile.go), so the fenced image
	// survives abrupt process death. Requires Persistent && Track. An
	// existing file of the right size is adopted as-is, under an empty
	// current view that recovery restores (Restore); a new one starts zeroed.
	MediaPath string
}

// Packed state-word bits. state == 0 is the running steady state, so the
// per-operation gate is a single atomic load and one predictable branch;
// any set bit diverts to the out-of-line slow path.
const (
	stateFrozen uint64 = 1 << 0 // device frozen: every op panics ErrFrozen
	stateArmed  uint64 = 1 << 1 // FreezeAfter countdown armed
	stateCount  uint64 = 1 << 2 // counted pass: loads and stores are tallied
	stateFault  uint64 = 1 << 3 // fault model installed: ops consult the adversary
	stateCold   uint64 = 1 << 4 // debug checks: reads of unrestored words panic (debug.go)
)

// Device is one simulated memory device. All word accesses are atomic; the
// two-word operations are atomic via internal/dwcas. A Device is safe for
// concurrent use.
type Device struct {
	name       string
	persistent bool
	track      bool
	model      CostModel

	// loads and stores count accesses while counting (stateCount); they are
	// never written otherwise.
	loads, stores atomic.Uint64

	words  []uint64 // current (cache) view; 16-byte aligned base
	media  []uint64 // persisted image, nil unless track && persistent
	mapped bool     // media is a file mapping (Config.MediaPath) until Close

	// base and limit cache &words[0] and len(words)-1 so the fast-path
	// methods fit the compiler's inline budget: the backing array is
	// allocated once in New and never moves, so indexing through base is
	// equivalent to &d.words[off] minus the per-access slice-header loads.
	base  unsafe.Pointer
	limit uint64

	// gate fuses the state test and the bounds test into one word: it
	// holds limit while state == 0 and 0 while any state bit is set, so
	// the steady-state per-access check is a single atomic load and one
	// fused compare (off-1 underflows for the reserved offset 0). Every
	// state transition republishes the gate; an access racing with a
	// transition may pass the old gate, which linearizes it before the
	// transition — the same window the state word itself would allow.
	// Accessed only via atomic.LoadUint64/StoreUint64; a plain uint64
	// (rather than atomic.Uint64) keeps Load/Store at the compiler's
	// inline budget of 80, which they meet exactly.
	gate uint64

	// state packs the frozen flag, the countdown-armed flag, the counting
	// flag and the fault flag into one word; the countdown itself is touched
	// only on the armed slow path.
	state     atomic.Uint64
	countdown atomic.Int64
	gen       atomic.Uint64 // crash generation, for FlushSet recycle checks

	// fault is the installed adversarial persistence fault model (nil when
	// absent); see InjectFaults. While installed, stateFault keeps the gate
	// closed so every operation consults it on the slow path.
	fault *FaultModel

	// cold records which words of an adopted media file's view are restored
	// or written, with debug checks on; stateCold keeps the gate closed for
	// it until the next Crash resets the whole view (debug.go).
	cold *coldView

	// Flush/fence counters are sharded across the FlushSets that have used
	// this device; Counters sums the shards. The registry only grows (one
	// entry per thread context), so summation stays cheap and exact.
	shardMu sync.Mutex
	shards  []*FlushSet

	// lineMu serializes the media copies of one line (commitLines): the
	// copy of line l holds lineMu[l%lineStripes].
	lineMu [lineStripes]sync.Mutex

	// The relaxed-line registry (elide.go), on every persistent device.
	relaxedMu    sync.Mutex
	relaxedLines []uint64 // registered lines in first-registration order
	relaxedSet   map[uint64]struct{}
}

// New creates a Device. Words is rounded up to a whole number of cache
// lines and must be at least one line.
func New(cfg Config) *Device {
	if cfg.Words < WordsPerLine {
		cfg.Words = WordsPerLine
	}
	words := (cfg.Words + WordsPerLine - 1) &^ (WordsPerLine - 1)
	d := &Device{
		name:       cfg.Name,
		persistent: cfg.Persistent,
		track:      cfg.Track && cfg.Persistent,
		model:      cfg.Model,
		words:      alignedWords(words),
	}
	d.base = unsafe.Pointer(&d.words[0])
	d.limit = uint64(len(d.words)) - 1
	if d.track {
		if cfg.MediaPath != "" {
			m, adopted, err := mapMediaFile(cfg.MediaPath, words)
			if err != nil {
				panic(err)
			}
			d.media, d.mapped = m, true
			if adopted && debugChecks {
				d.cold = newColdView(words)
				d.state.Store(stateCold)
			}
		} else {
			d.media = alignedWords(words)
		}
	} else if cfg.MediaPath != "" {
		panic("pmem: Config.MediaPath requires Persistent && Track")
	}
	d.syncGate()
	if d.persistent {
		d.relaxedSet = make(map[uint64]struct{})
	}
	return d
}

// alignedWords allocates a word slice whose element 0 is 16-byte aligned,
// so any even offset is a legal DWCAS address.
func alignedWords(n int) []uint64 {
	buf := make([]uint64, n+1)
	if uintptr(unsafe.Pointer(&buf[0]))&15 != 0 {
		return buf[1 : n+1]
	}
	return buf[:n]
}

// Name returns the device's diagnostic name.
func (d *Device) Name() string { return d.name }

// Size returns the device capacity in words.
func (d *Device) Size() int { return len(d.words) }

// Persistent reports whether the device keeps its media across Crash.
func (d *Device) Persistent() bool { return d.persistent }

// fastOK is the per-operation gate: one atomic load of the fused gate word
// and one compare. Any set state bit (gate = 0) or bad offset fails over to
// checkSlow. Load and Store repeat this expression inline rather than
// calling fastOK — the call-shaped form costs a few extra inline-budget
// points that push them past the limit.
func (d *Device) fastOK(off uint64) bool {
	return off-1 < atomic.LoadUint64(&d.gate)
}

// syncGate republishes the fused gate word after a state transition; the
// caller must have already updated d.state.
func (d *Device) syncGate() {
	if d.state.Load() == 0 {
		atomic.StoreUint64(&d.gate, d.limit)
	} else {
		atomic.StoreUint64(&d.gate, 0)
	}
}

// checkSlow handles everything fastOK rejects: a frozen device panics, an
// armed countdown is decremented — the operation that reaches zero freezes
// the device before executing, placing the crash exactly on that operation
// — and out-of-range offsets panic. It returns the state it acted on; a
// counting device passes through here on every access by design.
func (d *Device) checkSlow(off uint64) uint64 {
	s := d.state.Load()
	if s&stateFrozen != 0 {
		panic(ErrFrozen)
	}
	if s&stateArmed != 0 && d.countdown.Add(-1) == 0 {
		d.setState(stateFrozen)
		panic(ErrFrozen)
	}
	if off == 0 || off >= uint64(len(d.words)) {
		d.badOffset(off)
	}
	if s&stateFault != 0 {
		d.faultTick(off)
	}
	return s
}

// countSlow is checkSlow for an access at off that reads `reads` words (0:
// a plain store): a counting device tallies it in n, and a cold one checks
// that what it reads is restored or written (debug.go).
func (d *Device) countSlow(off uint64, n *atomic.Uint64, reads int) {
	s := d.checkSlow(off)
	if s&stateCount != 0 {
		n.Add(1)
	}
	if s&stateCold != 0 {
		d.touchCold(off, reads)
	}
}

//go:noinline
func (d *Device) badOffset(off uint64) {
	panic(fmt.Sprintf("pmem: %s: offset %d out of range [1,%d)", d.name, off, len(d.words)))
}

// setState atomically sets bits in the state word and republishes the gate.
func (d *Device) setState(bits uint64) {
	for {
		s := d.state.Load()
		if d.state.CompareAndSwap(s, s|bits) {
			d.syncGate()
			return
		}
	}
}

// clearState atomically clears bits in the state word and republishes the
// gate.
func (d *Device) clearState(bits uint64) {
	for {
		s := d.state.Load()
		if d.state.CompareAndSwap(s, s&^bits) {
			d.syncGate()
			return
		}
	}
}

// Load atomically reads the word at off. The body is written to sit
// exactly at the compiler's inline budget (verify with -gcflags='-m'): the
// steady state inlines to one atomic gate load, one fused compare, and the
// word read itself — the substrate's zero-read-overhead claim in code.
func (d *Device) Load(off uint64) uint64 {
	if off-1 < atomic.LoadUint64(&d.gate) {
		return atomic.LoadUint64((*uint64)(unsafe.Add(d.base, off*8)))
	}
	return d.loadSlow(off)
}

// loadSlow and storeSlow stay out of line: inlined, they would push Load
// and Store past the budget.
//
//go:noinline
func (d *Device) loadSlow(off uint64) uint64 {
	d.countSlow(off, &d.loads, 1)
	return atomic.LoadUint64(&d.words[off])
}

// Store atomically writes the word at off. Like Load, the body sits
// exactly at the inline budget; the if/else shape (rather than an early
// return) is what keeps it there.
func (d *Device) Store(off uint64, v uint64) {
	if off-1 < atomic.LoadUint64(&d.gate) {
		atomic.StoreUint64((*uint64)(unsafe.Add(d.base, off*8)), v)
	} else {
		d.storeSlow(off, v)
	}
}

//go:noinline
func (d *Device) storeSlow(off uint64, v uint64) {
	d.countSlow(off, &d.stores, 0)
	atomic.StoreUint64(&d.words[off], v)
}

// StoreInit writes the word at off of an object no other thread can reach
// yet: a field before the install that publishes its object. It counts,
// freezes and faults like Store, but on amd64 the write itself is a plain
// store (word_amd64.go): nothing can read the word until the publishing
// DWCAS or CAS, a locked instruction that TSO keeps behind it.
func (d *Device) StoreInit(off uint64, v uint64) {
	if off-1 >= atomic.LoadUint64(&d.gate) {
		d.countSlow(off, &d.stores, 0)
	}
	storeWord((*uint64)(unsafe.Add(d.base, off*8)), v)
}

// CAS atomically compares-and-swaps the word at off.
func (d *Device) CAS(off uint64, old, new uint64) bool {
	if !d.fastOK(off) {
		d.countSlow(off, &d.stores, 1)
	}
	return atomic.CompareAndSwapUint64(&d.words[off], old, new)
}

func (d *Device) pairAt(off uint64) *[2]uint64 {
	if off&1 != 0 {
		d.badPair(off)
	}
	return (*[2]uint64)(unsafe.Pointer(&d.words[off]))
}

//go:noinline
func (d *Device) badPair(off uint64) {
	panic(fmt.Sprintf("pmem: %s: DWCAS offset %d not 16-byte aligned", d.name, off))
}

// LoadPair atomically reads the two words at even offset off.
func (d *Device) LoadPair(off uint64) (v0, v1 uint64) {
	if !d.fastOK(off) {
		d.countSlow(off, &d.loads, 2)
	}
	return dwcas.Load(d.pairAt(off))
}

// DWCAS atomically compares the two words at even offset off with
// (old0, old1) and swaps in (new0, new1) on match. It returns whether the
// swap happened and the observed pair (the "before" value of Figure 4).
func (d *Device) DWCAS(off uint64, old0, old1, new0, new1 uint64) (swapped bool, cur0, cur1 uint64) {
	if !d.fastOK(off) {
		d.countSlow(off, &d.stores, 2)
	}
	return dwcas.CompareAndSwap(d.pairAt(off), old0, old1, new0, new1)
}

// spillLines is the FlushSet size at which line dedup switches from the
// linear scan over the inline slice to the epoch-tagged table. Mirror-style
// engines fence after one or two flushes and never spill; flush-heavy
// transformations (Izraelevitz) cross it and get O(1) dedup.
const spillLines = 16

// FlushSet accumulates the cache lines a thread has flushed but not yet
// fenced. Each simulated thread owns one FlushSet per persistent device; it
// corresponds to the set of in-flight clwb instructions between two sfences.
//
// A FlushSet is single-owner state: it must not be used concurrently from
// two goroutines, must only ever be used with one Device, and must be Reset
// before being recycled across a crash. EnableDebugChecks turns these
// contracts into panics.
//
// The set doubles as this thread's shard of the device's flush/fence
// counters: increments land on thread-private cache lines and Counters sums
// the shards, so the counts stay exact without a globally contended word.
type FlushSet struct {
	dev  *Device      // device this set is registered with (first use wins)
	gen  uint64       // device crash generation at last use (debug checks)
	busy atomic.Int32 // debug: concurrent-use detector

	flushes atomic.Uint64 // this thread's flush count on dev
	fences  atomic.Uint64 // this thread's fence count on dev

	// Elision shards (see elide.go): persistence instructions this thread
	// *did not* issue because a batch dedup, an empty pending set or the
	// relaxed-line registry proved them redundant.
	elidedFlushes atomic.Uint64
	elidedFences  atomic.Uint64
	relaxed       atomic.Uint64

	lines []uint64          // pending lines, unique, in first-flush order
	table map[uint64]uint64 // line -> epoch; dedup once the set spills
	epoch uint64            // current epoch; table entries from older epochs are stale

	// ahead is the offset FlushAhead armed (0: none): the next Fence on this
	// set flushes its line just before committing.
	ahead uint64

	// Deferred initialization flushes (see DeferInit in
	// elide.go): distinct lines dirtied by unpublished-object stores, in
	// first-touch order, and the number of stores they cover.
	initLines  []uint64
	initStores int

	// stolen is FlushRelaxed's copy of the relaxed-line registry, flushed
	// outside the registry's lock; kept so a commit allocates nothing.
	stolen []uint64
}

// Reset discards any pending flushes (used when a context is recycled).
// Counter shards are preserved: Reset forgets in-flight clwbs, not
// history.
func (s *FlushSet) Reset() {
	s.clearLines()
	s.DropInit()
	s.DropAhead()
}

// DropAhead disarms the line FlushAhead armed on this set, if no fence has
// flushed it yet: its owner learned that no fence needs it.
func (s *FlushSet) DropAhead() { s.ahead = 0 }

// Armed reports whether the line FlushAhead armed on this set still waits
// for its fence: no Fence has flushed it and no DropAhead has disarmed it.
func (s *FlushSet) Armed() bool { return s.ahead != 0 }

// clearLines empties the pending-line set in O(1): the slice is truncated
// and the epoch advances, invalidating every table entry at once.
func (s *FlushSet) clearLines() {
	s.lines = s.lines[:0]
	s.epoch++
}

// add records a line once. Small sets use a linear scan over the slice
// (cache-friendly, and the common case is one or two lines); a set that
// reaches spillLines seeds the epoch-tagged table with its lines and dedups
// in O(1) until the next fence empties it. Lines leave the set only by
// clearLines, which advances the epoch, so the table holds this epoch's
// lines exactly while the set holds spillLines or more.
func (s *FlushSet) add(line uint64) {
	if len(s.lines) >= spillLines {
		if s.table[line] == s.epoch {
			return
		}
		s.table[line] = s.epoch
		s.lines = append(s.lines, line)
		return
	}
	for _, l := range s.lines {
		if l == line {
			return
		}
	}
	s.lines = append(s.lines, line)
	if len(s.lines) == spillLines {
		if s.epoch == 0 {
			s.epoch = 1 // 0 must stay invalid: missing table entries read as 0
		}
		if s.table == nil {
			s.table = make(map[uint64]uint64, 2*spillLines)
		}
		for _, l := range s.lines {
			s.table[l] = s.epoch
		}
	}
}

// adopt registers fs as a counter shard of d on first use. A FlushSet is
// bound to the first device that uses it for its lifetime.
func (d *Device) adopt(fs *FlushSet) {
	if fs.dev != nil {
		panic(fmt.Sprintf("pmem: FlushSet bound to device %q used with device %q",
			fs.dev.name, d.name))
	}
	d.shardMu.Lock()
	fs.dev = d
	fs.gen = d.gen.Load()
	d.shards = append(d.shards, fs)
	d.shardMu.Unlock()
}

// Flush records a write-back request (clwb) for the line containing off.
// The line's durability is only guaranteed after a subsequent Fence on the
// same FlushSet; until then the eviction adversary decides its fate.
func (d *Device) Flush(fs *FlushSet, off uint64) {
	if !d.fastOK(off) {
		d.checkSlow(off)
	}
	if fs.dev != d {
		d.adopt(fs)
	}
	if debugChecks {
		fs.enter(d)
	}
	bump(&fs.flushes, 1)
	if d.persistent {
		fs.add(off >> lineShift)
	}
	if debugChecks {
		fs.exit()
	}
}

// FlushAhead arms the line containing off to be flushed by the next Fence on
// fs, just before that fence commits: a clwb deferred to the sfence that
// needs it. Until then the line is an ordinary unflushed write — the
// eviction adversary may persist it, and neither CrashDropFlushed nor
// CrashKeepFlushed counts it as flushed — and a crash that lands on the
// fence itself finds it still unflushed. A set holds one armed line; arming
// replaces it, and FlushSet.DropAhead disarms it without a flush.
func (d *Device) FlushAhead(fs *FlushSet, off uint64) {
	if off == 0 || off >= uint64(len(d.words)) {
		d.badOffset(off)
	}
	if fs.dev != d {
		d.adopt(fs)
	}
	fs.ahead = off
}

// Counters returns the cumulative number of Flush and Fence calls, summed
// exactly across the per-thread shards; the ablation benchmarks report
// persistence-instruction counts with these.
func (d *Device) Counters() (flushes, fences uint64) {
	d.shardMu.Lock()
	for _, s := range d.shards {
		flushes += s.flushes.Load()
		fences += s.fences.Load()
	}
	d.shardMu.Unlock()
	return flushes, fences
}

// Fence (sfence) commits every line flushed on fs since the previous Fence
// to the media image. The content committed is the line's content at
// commit time, matching the write-back window of real hardware. A fence is
// a device operation like any other: it checks the freeze state and the
// FreezeAfter countdown, so deterministic crashes can land exactly on a
// fence boundary — before any of its lines commit. A line armed by
// FlushAhead is flushed first, past that boundary, and counts as one Flush.
func (d *Device) Fence(fs *FlushSet) {
	if d.state.Load() != 0 {
		d.fenceSlow()
	}
	if fs.dev != d {
		d.adopt(fs)
	}
	if debugChecks {
		fs.enter(d)
	}
	if fs.ahead != 0 {
		bump(&fs.flushes, 1)
		if d.persistent {
			fs.add(fs.ahead >> lineShift)
		}
		fs.ahead = 0
	}
	bump(&fs.fences, 1)
	if len(fs.lines) > 0 {
		if d.track {
			d.commitLines(fs.lines)
		}
		fs.clearLines()
	}
	if debugChecks {
		fs.exit()
	}
}

// fenceSlow is the offset-less slow gate for Fence: it applies the freeze
// state and the FreezeAfter countdown — a fence is a countable device
// operation, so a deterministic crash can land exactly on a fence boundary,
// before any line commits.
func (d *Device) fenceSlow() {
	s := d.state.Load()
	if s&stateFrozen != 0 {
		panic(ErrFrozen)
	}
	if s&stateArmed != 0 && d.countdown.Add(-1) == 0 {
		d.setState(stateFrozen)
		panic(ErrFrozen)
	}
	if s&stateFault != 0 {
		d.faultTick(0)
	}
}

// lineStripes is the number of locks the media copies of lines are striped
// over.
const lineStripes = 64

// commitLines copies each dirty line's current content to the media: a
// fence's commit and an early eviction (fault.go) both copy through here.
// copyLine moves the line as eight aligned 8-byte words (plain MOVs on
// amd64), so a store racing with the copy reaches the media whole or not at
// all — the per-word persistence atomicity the crash model grants. Two
// copies of one line are serialized, as cache coherence serializes real
// write-backs: unordered, a copy that read a word before another thread
// stored it could write the old word after that thread's own fence had
// committed the new one, and the media would regress below what a
// returned fence wrote. Both arrays hold whole lines (New rounds the size
// up), so no line runs past the end.
func (d *Device) commitLines(lines []uint64) {
	for _, line := range lines {
		off := line << lineShift
		mu := &d.lineMu[line%lineStripes]
		mu.Lock()
		copyLine(&d.media[off], &d.words[off])
		mu.Unlock()
	}
}

// Freeze makes every subsequent device operation panic with ErrFrozen,
// unwinding in-flight operations so a crash can be taken at an arbitrary
// point. Freeze does not itself alter memory.
func (d *Device) Freeze() { d.setState(stateFrozen) }

// FreezeAfter arms a countdown: the n-th subsequent device operation
// (fences included) freezes the device (and panics). Used to place crashes
// deterministically.
func (d *Device) FreezeAfter(n int64) {
	d.countdown.Store(n)
	if n > 0 {
		d.setState(stateArmed)
	} else {
		d.clearState(stateArmed)
	}
}

// crashLines runs a crash adversary: it calls fate, in ascending order, with
// the first word of every line whose view differs from the media — fate
// writes what persists of the line to the media — and then resets that
// line of the view from the media. A clean line costs one compare of the
// whole line (lineEqual); most of a device is clean at a crash.
func (d *Device) crashLines(fate func(base int)) {
	for base := 0; base < len(d.words); base += WordsPerLine {
		if lineEqual(&d.words[base], &d.media[base]) {
			continue
		}
		fate(base)
		copyLine(&d.words[base], &d.media[base])
	}
}

// Crash simulates a power failure. All goroutines using the device must
// already have unwound (see Freeze). For a persistent device the eviction
// adversary first decides the fate of every unfenced word, then the current
// view is reset from the media. For a volatile device everything is zeroed.
// The device is left unfrozen and ready for recovery.
//
// When a FaultModel is installed (InjectFaults), it supersedes the policy
// argument: the model's seeded line-granular adversary — persist, drop, or
// tear each dirty line — decides the media image instead.
func (d *Device) Crash(policy CrashPolicy, rng *rand.Rand) {
	if d.persistent {
		if !d.track {
			panic("pmem: Crash on a persistent device that is not tracking its media (Config.Track=false)")
		}
		if d.fault != nil {
			d.fault.applyCrash(d)
		} else {
			var flushed map[uint64]bool
			if policy == CrashDropFlushed || policy == CrashKeepFlushed {
				flushed = d.flushedLines()
			}
			d.crashLines(func(base int) {
				for i := base; i < base+WordsPerLine; i++ {
					cur, med := d.words[i], d.media[i]
					if cur == med {
						continue
					}
					switch policy {
					case CrashKeepAll:
						d.media[i] = cur
					case CrashRandom:
						if rng == nil {
							panic("pmem: CrashRandom requires a rand source")
						}
						if rng.Int63()&1 == 0 {
							d.media[i] = cur
						}
					case CrashDropFlushed:
						if !flushed[uint64(i)>>lineShift] {
							d.media[i] = cur
						}
					case CrashKeepFlushed:
						if flushed[uint64(i)>>lineShift] {
							d.media[i] = cur
						}
					}
				}
			})
		}
	} else {
		for i := range d.words {
			d.words[i] = 0
		}
	}
	// Relaxed lines die with the cache: nothing defers past a crash.
	d.relaxedMu.Lock()
	d.relaxedLines = d.relaxedLines[:0]
	for line := range d.relaxedSet {
		delete(d.relaxedSet, line)
	}
	d.relaxedMu.Unlock()
	d.countdown.Store(0)
	d.gen.Add(1)
	d.cold = nil                        // the whole view is the media's again
	base := d.state.Load() & stateCount // a counted pass survives the crash
	if d.fault != nil {
		base |= stateFault // the installed fault model survives the crash
	}
	d.state.Store(base)
	d.syncGate()
}

// flushedLines returns the lines flushed on any of the device's FlushSets
// and not yet fenced.
func (d *Device) flushedLines() map[uint64]bool {
	d.shardMu.Lock()
	defer d.shardMu.Unlock()
	lines := make(map[uint64]bool)
	for _, fs := range d.shards {
		for _, line := range fs.lines {
			lines[line] = true
		}
	}
	return lines
}

// ReadRaw reads a word without counting, freeze checks, or bounds
// reservation of offset 0. Recovery and test inspection use it.
func (d *Device) ReadRaw(off uint64) uint64 { return atomic.LoadUint64(&d.words[off]) }

// WriteRaw writes a word without counting or freeze checks. Recovery uses
// it to rewrite what it restored.
func (d *Device) WriteRaw(off uint64, v uint64) {
	atomic.StoreUint64(&d.words[off], v)
	if d.cold != nil {
		d.cold.hold(off, 1)
	}
}

// WriteRebuilt writes a word of the view that recovery rebuilds instead of
// restoring (a skip list's links above level 0), without counting or
// freeze checks and never to the media. It is a plain store: nothing else
// touches the word until recovery returns, and an atomic one is a full
// barrier that would stall the recovery trace on every cache miss.
func (d *Device) WriteRebuilt(off uint64, v uint64) {
	d.words[off] = v
	if d.cold != nil {
		d.cold.hold(off, 1)
	}
}

// PersistedWord returns the media image of a word; it panics unless the
// device tracks persistence. Tests use it to assert durability.
func (d *Device) PersistedWord(off uint64) uint64 {
	if !d.track {
		panic("pmem: PersistedWord on non-tracking device")
	}
	return atomic.LoadUint64(&d.media[off])
}

// PersistRange copies the current view of [off, off+n) straight into the
// media image, bypassing flush/fence bookkeeping. It exists for recovery
// procedures (which run single-threaded before normal operation resumes)
// such as the heap sanitization of the Link-Free/SOFT scan.
func (d *Device) PersistRange(off uint64, n int) {
	if !d.track {
		return
	}
	for i := uint64(0); i < uint64(n); i++ {
		atomic.StoreUint64(&d.media[off+i], atomic.LoadUint64(&d.words[off+i]))
	}
}

// CopyRange bulk-copies [off, off+n) from this device's current view into
// dst at the same offsets with a single memmove — the rebuild primitive of
// the recovery pipeline: spans move as cache lines, not words. It is a
// countable device operation on the *source*: the freeze gate and the
// FreezeAfter countdown apply once per call, so a deterministic crash can
// land exactly on a rebuild copy (the crash-during-recovery tests rely on
// this). It is never counted; recovery runs before normal operation
// resumes. Concurrent calls must target disjoint ranges, and the
// destination must be quiesced — both hold for recovery workers, which
// partition the reachable spans.
func (d *Device) CopyRange(dst *Device, off uint64, n int) {
	if n <= 0 {
		return
	}
	faulty := false
	if s := d.state.Load(); s != 0 {
		if s&stateFrozen != 0 {
			panic(ErrFrozen)
		}
		if s&stateArmed != 0 && d.countdown.Add(-1) == 0 {
			d.setState(stateFrozen)
			panic(ErrFrozen)
		}
		faulty = s&stateFault != 0
		if s&stateCold != 0 {
			d.touchCold(off, n)
		}
	}
	if off == 0 || off+uint64(n) > uint64(len(d.words)) || off+uint64(n) > uint64(len(dst.words)) {
		panic(fmt.Sprintf("pmem: %s: CopyRange [%d,%d) out of range", d.name, off, off+uint64(n)))
	}
	if faulty {
		// With a fault model installed the bulk copy is no longer one
		// indivisible operation: each cache line of the span is a separate
		// consultation, so a randomized crash can land *inside* the copy,
		// leaving only a prefix of lines in the destination — the partial
		// rebuild the crash-during-recovery tests must tolerate.
		for cur, end := off, off+uint64(n); cur < end; {
			chunk := WordsPerLine - cur%WordsPerLine
			if cur+chunk > end {
				chunk = end - cur
			}
			d.faultTick(cur)
			copy(dst.words[cur:cur+chunk], d.words[cur:cur+chunk])
			cur += chunk
		}
		return
	}
	copy(dst.words[off:off+uint64(n)], d.words[off:off+uint64(n)])
}
