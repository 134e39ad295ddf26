// Flush elision (DESIGN.md "Flush elision"). Callers state what must be
// durable, and the device alone decides which flush or fence is redundant
// and counts what it skipped. Every skip is one a single thread can prove
// from its own state:
//
//   - EnsureDurable never skips: it flushes the line of a value about to
//     become visible, with the value's witness lines, and fences — the
//     flush and fence of Fig. 4, on the owner's path and the help path
//     alike.
//   - PublishInit and FlushRange flush each cache line of an object written
//     before publication once, however many of its words were stored, and
//     count the per-word flushes they save.
//   - FenceOrElide skips a fence with nothing flushed on its set: an sfence
//     with no clwb in flight orders nothing durable.
//   - The relaxed-line registry, kept by every persistent device: a CAS
//     that is only retire-gated (list and skiplist snips, bst excisions —
//     see patomic.Auxiliary) may become visible before it is durable,
//     provided its line is made durable before any object it unlinked is
//     freed. Such installs register their line here, *before* the volatile
//     publish, and every allocator drain commits the registry (flush per
//     line + one fence) before freeing anything. The mutex orders
//     registration before the stealing drain whenever the freeing thread
//     observed the install, so the media can never hold a pointer into
//     freed memory. CommitRelaxed and CommitPending commit it.
package pmem

// EnsureDurable makes the line containing off durable on fs before the
// caller makes what it observed or installed there visible, together with
// up to two more lines w and x (0: none) — the witness lines of a value a
// helper publishes: it flushes each line and fences.
func (d *Device) EnsureDurable(fs *FlushSet, off, w, x uint64) {
	if w != 0 {
		d.Flush(fs, w)
	}
	if x != 0 {
		d.Flush(fs, x)
	}
	d.Flush(fs, off)
	d.Fence(fs)
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
// line on fs — ordinary countable device operations, so the freeze gate and
// the fault model apply — leaving the fence to the caller:
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
// orders nothing durable. Every persistent device records its pending
// lines; on a volatile one no fence has anything durable to order.
func (d *Device) FenceOrElide(fs *FlushSet) {
	if len(fs.lines) == 0 {
		d.noteElided(fs, 0, 1)
		return
	}
	d.Fence(fs)
}

// noteElided records persistence instructions a caller did not issue
// because a per-line dedup or an empty pending set proved them redundant.
// Pure accounting; Stats reports these.
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
// fences elided, and relaxed installs registered for deferred commit.
func (d *Device) ElisionCounters() (elidedFlushes, elidedFences, relaxed uint64) {
	d.shardMu.Lock()
	for _, s := range d.shards {
		elidedFlushes += s.elidedFlushes.Load()
		elidedFences += s.elidedFences.Load()
		relaxed += s.relaxed.Load()
	}
	d.shardMu.Unlock()
	return
}
