// Flush elision and fence coalescing (DESIGN.md "Flush elision & fence
// coalescing"). A device built with Config.Elide — every engine's
// persistent device — maintains a FliT-style per-cache-line
// *persisted-epoch watermark* table: a global persist epoch counter
// advances at the start of every committing fence, and a line's
// watermark is raised to that epoch only after the fence has actually
// copied the line to the media. A writer that (a) observes a value and
// then (b) reads the epoch can elide its own flush+fence whenever the
// line's watermark later exceeds that epoch — the strict inequality proves,
// by monotonicity alone, that some fence copied the line *after* the
// observation, so the observed value (or a successor with a higher
// sequence number) is on media.
//
// Crucially the watermark is raised only on the fenced-commit path: the
// fault model's early eviction also copies a line to media, but an eviction
// is not a guarantee — it must never advance the watermark (the
// deliberately-broken variant behind BreakWatermarkForTest does exactly
// that, and the fault fuzzer's acceptance self-test proves the fuzzer
// catches it).
//
// Two further mechanisms sit beside it:
//
//   - Fence coalescing, on the same epoch order: a committing fence first
//     publishes its epoch as a per-line *ticket* (committing[line]), then
//     commits, then raises the watermark. A concurrent writer holding tag
//     g that sees a ticket t > g knows a fence that began after its
//     install is mid-commit; it elides its flush and waits for the
//     watermark to reach t instead of fencing itself ("piggybacking").
//     Between publishing the ticket and raising the watermark the fencer
//     executes only plain atomic operations — no freeze gate, no fault
//     consultation — so an observed ticket is a completion guarantee, not
//     a promise.
//
//   - The relaxed-line registry, kept by every persistent device, with or
//     without the watermark: a CAS that is only retire-gated (list and
//     skiplist snips, bst excisions — see patomic.Auxiliary) may become
//     visible before it is durable, provided its line is made durable
//     before any object it unlinked is freed. Such installs
//     register their line here, *before* the volatile publish, and every
//     allocator drain commits the registry (flush per line + one fence)
//     before freeing anything. The mutex orders registration before the
//     stealing drain whenever the freeing thread observed the install, so
//     the media can never hold a pointer into freed memory.
//
// Callers never consult the watermark, the tickets or the pending set: they
// state what must be durable, and the device alone decides which flush or
// fence is redundant and counts what it skipped. EnsureDurable takes a value
// observed under a PersistEpoch tag (with its witness lines), PublishInit
// and FlushRange the lines of objects written before publication,
// FenceOrElide whatever is flushed on a set, and CommitRelaxed and
// CommitPending the relaxed registry.
package pmem

import (
	"runtime"
	"sync/atomic"
)

// piggybackSpins bounds the wait for an in-flight fence's commit before the
// piggybacking writer gives up and issues its own flush+fence. The fencer
// cannot stall between ticket and watermark (no gates there), so the bound
// exists only as a scheduling safety valve.
const piggybackSpins = 1 << 14

// atomicMax advances a monotone counter to at least v.
func atomicMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PersistEpoch returns the current global persist epoch. A writer reads it
// *after* observing (or installing) a value and hands it to EnsureDurable as
// the observation's tag. Zero on a device built without Config.Elide.
func (d *Device) PersistEpoch() uint64 {
	if !d.elide {
		return 0
	}
	return d.pepoch.Load()
}

// EnsureDurable makes the line containing off durable on fs before the
// caller makes what it observed there under tag visible, together with up
// to two more lines w and x (0: none) — the witness lines of a value a
// helper publishes. The caller read tag from PersistEpoch *after* observing
// (or installing) the content, so by the watermark's strict monotone-epoch
// argument (this file's header) the device decides what to issue:
//
//  1. Every line persisted since tag — a fence committed it after the
//     observation; the observed value, or a successor with a higher
//     sequence number, is on media. Nothing is issued: one flush and one
//     fence count as elided.
//  2. The witnesses persisted, and a commit ticket above tag on off's
//     line — a fence that started after the observation is mid-commit and
//     cannot stall (no gates between ticket and watermark); ride it
//     instead of fencing ("piggyback").
//  3. Otherwise — flush every line not yet persisted, then fence.
//
// On a device built without the watermark nothing is ever proven persisted,
// and the full flush + fence runs unconditionally.
func (d *Device) EnsureDurable(fs *FlushSet, off, tag, w, x uint64) {
	wDone, xDone := w == 0 || d.persisted(w, tag), x == 0 || d.persisted(x, tag)
	if wDone && xDone {
		if d.persisted(off, tag) {
			d.noteElided(fs, 1, 1)
			return
		}
		if t := d.commitTicket(off); t > tag && d.waitPersisted(off, t) {
			d.noteElided(fs, 1, 0)
			bump(&fs.piggybacked, 1)
			return
		}
	}
	if !wDone {
		d.Flush(fs, w)
	}
	if !xDone {
		d.Flush(fs, x)
	}
	d.Flush(fs, off)
	d.Fence(fs)
}

// persisted reports whether the line containing off has provably committed
// to media since the caller's observation tagged tag: the watermark must
// strictly exceed the tag, which proves the committing fence's epoch
// advance — and therefore its line copy — happened after the tag was read.
// Always false on a device built without Config.Elide.
func (d *Device) persisted(off, tag uint64) bool {
	if !d.elide {
		return false
	}
	return d.marks[off>>lineShift].Load() > tag
}

// commitTicket returns the highest fence epoch that has been published for
// the line containing off but whose commit may still be in flight. A ticket
// strictly greater than the caller's tag means a fence that started after
// the caller's observation will commit the line; waitPersisted rides it.
func (d *Device) commitTicket(off uint64) uint64 {
	if !d.elide {
		return 0
	}
	return d.committing[off>>lineShift].Load()
}

// waitPersisted spins until the watermark of the line containing off
// reaches ticket, i.e. until the fence that published the ticket has
// committed the line. It reports false if the bound expires — EnsureDurable
// then falls back to its own flush+fence.
func (d *Device) waitPersisted(off, ticket uint64) bool {
	line := off >> lineShift
	for i := 0; i < piggybackSpins; i++ {
		if d.marks[line].Load() >= ticket {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// commitFence is Fence's commit step. With elision on it brackets the media
// copy with the epoch protocol: advance the global epoch, publish it as a
// ticket on every dirty line, copy the lines, then raise the watermarks.
// The watermark is raised strictly after the copy — an early eviction
// (fault.go) copies lines without passing through here and therefore never
// advances a watermark.
func (d *Device) commitFence(lines []uint64) {
	if !d.elide {
		if d.track {
			d.commitLines(lines)
		}
		return
	}
	e := d.pepoch.Add(1)
	for _, line := range lines {
		atomicMax(&d.committing[line], e)
	}
	if d.track {
		d.commitLines(lines)
	}
	for _, line := range lines {
		atomicMax(&d.marks[line], e)
	}
}

// NoteRelaxed registers the line containing off in the relaxed-line
// registry: the caller is about to make a value visible before it is
// durable, deferring the line's commit to the next CommitRelaxed. It must
// be called after the persistent install and before the volatile publish —
// that ordering is what lets the stealing drain prove it covers every
// unlink the freeing thread observed. The call itself issues no
// persistence instructions; it counts one elided flush and one elided
// fence on fs.
func (d *Device) NoteRelaxed(fs *FlushSet, off uint64) {
	if fs.dev != d {
		d.adopt(fs)
	}
	bump(&fs.relaxed, 1)
	bump(&fs.elidedFlushes, 1)
	bump(&fs.elidedFences, 1)
	line := off >> lineShift
	d.relaxedMu.Lock()
	if _, dup := d.relaxedSet[line]; !dup {
		d.relaxedSet[line] = struct{}{}
		d.relaxedLines = append(d.relaxedLines, line)
	}
	d.relaxedMu.Unlock()
}

// FlushRelaxed steals the relaxed-line registry and issues one Flush per
// line on fs — ordinary countable device operations, so the freeze gate, the
// fault model, and the watermark all apply — leaving the fence to the caller:
// the lines commit under the next Fence on fs. It reports whether it flushed
// anything. A caller whose next fence on fs is due anyway (the verdict fence
// of a detect drain) saves CommitRelaxed's own.
func (d *Device) FlushRelaxed(fs *FlushSet) bool {
	d.relaxedMu.Lock()
	if len(d.relaxedLines) == 0 {
		d.relaxedMu.Unlock()
		return false
	}
	lines := append(fs.stolen[:0], d.relaxedLines...)
	fs.stolen = lines
	d.relaxedLines = d.relaxedLines[:0]
	for line := range d.relaxedSet {
		delete(d.relaxedSet, line)
	}
	d.relaxedMu.Unlock()
	for _, line := range lines {
		off := line << lineShift
		if off == 0 {
			off = 1 // offset 0 is reserved; any word of the line works
		}
		d.Flush(fs, off)
	}
	return true
}

// CommitRelaxed makes every registered relaxed line durable: FlushRelaxed
// plus a single trailing Fence on fs. When the registry is empty it issues
// nothing, not even the fence. Allocator drains call this before freeing
// the first object of a batch.
func (d *Device) CommitRelaxed(fs *FlushSet) {
	if d.FlushRelaxed(fs) {
		d.Fence(fs)
	}
}

// CommitPending makes durable everything the caller deferred on fs: the
// relaxed-line registry and every line flushed on fs that no fence has
// committed yet, under one fence. With nothing to commit it issues nothing
// and counts nothing.
func (d *Device) CommitPending(fs *FlushSet) {
	if d.FlushRelaxed(fs) || len(fs.lines) > 0 {
		d.Fence(fs)
	}
}

// RelaxedPending returns the number of lines currently registered for
// deferred commit; tests use it.
func (d *Device) RelaxedPending() int {
	d.relaxedMu.Lock()
	n := len(d.relaxedLines)
	d.relaxedMu.Unlock()
	return n
}

// DeferInit records a store to an unpublished object at off whose flush is
// deferred to the next PublishInit. Consecutive fields of one object share
// lines, so the last-entry check is the common-case dedup; the scan covers
// interleaved multi-object inits.
func (s *FlushSet) DeferInit(off uint64) {
	s.initStores++
	line := off >> lineShift
	if n := len(s.initLines); n > 0 && s.initLines[n-1] == line {
		return
	}
	for _, l := range s.initLines {
		if l == line {
			return
		}
	}
	s.initLines = append(s.initLines, line)
}

// DropInit forgets the deferred init stores of an object that was never
// published: it never became reachable, so nothing needs to persist.
func (s *FlushSet) DropInit() {
	s.initLines = s.initLines[:0]
	s.initStores = 0
}

// PublishInit is the publish barrier: one flush per distinct line DeferInit
// recorded (the per-store flushes it saves count as elided), then
// FenceOrElide.
func (d *Device) PublishInit(fs *FlushSet) {
	for _, line := range fs.initLines {
		d.Flush(fs, line<<lineShift)
	}
	d.noteElided(fs, uint64(fs.initStores-len(fs.initLines)), 0)
	fs.DropInit()
	d.FenceOrElide(fs)
}

// FlushRange flushes the n contiguous words at off one cache line at a
// time, once per line; the per-word flushes it saves count as elided. The
// caller fences.
func (d *Device) FlushRange(fs *FlushSet, off uint64, n int) {
	first, last := off>>lineShift, (off+uint64(n)-1)>>lineShift
	for line := first; line <= last; line++ {
		d.Flush(fs, line<<lineShift)
	}
	d.noteElided(fs, uint64(n)-(last-first+1), 0)
}

// FenceOrElide fences fs unless nothing is flushed on it and unfenced, in
// which case it counts one elided fence: an sfence with no clwb in flight
// orders nothing durable. Pending lines are recorded only on tracking or
// eliding devices, so a skipped fence is safe only on a device built with
// Config.Track or Config.Elide, as every engine's persistent device is.
func (d *Device) FenceOrElide(fs *FlushSet) {
	if len(fs.lines) == 0 {
		d.noteElided(fs, 0, 1)
		return
	}
	d.Fence(fs)
}

// noteElided records persistence instructions a caller did not issue
// because the watermark, a per-line dedup or an empty pending set proved
// them redundant. Pure accounting; Stats reports these.
func (d *Device) noteElided(fs *FlushSet, flushes, fences uint64) {
	if fs.dev != d {
		d.adopt(fs)
	}
	if flushes != 0 {
		bump(&fs.elidedFlushes, flushes)
	}
	if fences != 0 {
		bump(&fs.elidedFences, fences)
	}
}

// ElisionCounters sums the per-thread elision shards: flushes elided,
// fences elided, fences piggybacked on a concurrent fence's ticket, and
// relaxed installs registered for deferred commit.
func (d *Device) ElisionCounters() (elidedFlushes, elidedFences, piggybacked, relaxed uint64) {
	d.shardMu.Lock()
	for _, s := range d.shards {
		elidedFlushes += s.elidedFlushes.Load()
		elidedFences += s.elidedFences.Load()
		piggybacked += s.piggybacked.Load()
		relaxed += s.relaxed.Load()
	}
	d.shardMu.Unlock()
	return
}

// BreakWatermarkForTest makes the fault model's early eviction falsely
// advance the evicted line's watermark past the current epoch — exactly
// the bug the watermark protocol exists to rule out (an eviction is not a
// commit guarantee). Installed only by engine.NewBroken;
// the fault fuzzer's acceptance self-test must catch the resulting
// durable-linearizability violations.
func (d *Device) BreakWatermarkForTest() { d.breakWM = true }
