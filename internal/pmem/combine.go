package pmem

// Cross-operation fence combining (FliT §4's per-thread write buffers,
// adapted to the Mirror transform). The flush-elision layer (elide.go)
// removed every fence the transform allows *within* one operation; what
// remains is one fence per linearization point. Combining defers those
// too: a linearizing install is appended to the owning thread's combine
// buffer instead of being fenced on the spot, and the buffer drains with
// one flush per distinct line plus a single trailing fence when
//
//   - it reaches capacity (combineCapacityLines distinct lines or
//     combineCapacityOps buffered linearizations),
//   - a combining epoch elapses (combineEpochOps operation ends with the
//     buffer non-empty — see CombineTick),
//   - another thread's read observes a buffered install and forces the
//     line durable itself (CombineProbe, the buffer-aware Persisted
//     probe),
//   - a detectable-operation verdict is about to publish (the verdict
//     must never be durable before the install it testifies to), or
//   - the allocator is about to free memory (the pre-free drain), or an
//     explicit quiesce asks for it.
//
// The crash contract changes shape: an operation whose linearizing
// install is still buffered has completed *visibly* but not *durably*.
// Each thread therefore assigns every buffered linearization a monotone
// ticket and keeps a drained watermark; at a crash, an operation whose
// ticket is above its thread's watermark may independently vanish or
// take effect (the per-line crash fates decide), and everything at or
// below the watermark reached a drain fence and must survive. The
// linearize checker's buffered mode consumes exactly this pair.
//
// Soundness leans on two properties of the substrate. First, media
// commits are line-granular copies of *current* content, so any fence
// that covers a line — the owner's drain, another thread's unrelated
// fence, a conflict probe, the registry's pre-free drain — commits every
// buffered install the line holds, whoever buffered it. Second, every
// buffered line is also registered in the relaxed-line registry before
// the install becomes visible in rep_v, so the allocator's pre-free
// drain (which any thread may run) commits it before memory the install
// could reference is reused — the same contract CASRelaxed relies on,
// extended from auxiliary updates to linearization points.

// DrainCause says why a combine buffer drained; each drain increments
// exactly one cause counter on the draining thread's FlushSet.
type DrainCause int

const (
	// DrainCapacity: the buffer hit its line or ticket capacity.
	DrainCapacity DrainCause = iota
	// DrainEpoch: a combining epoch (combineEpochOps operation ends)
	// elapsed with the buffer non-empty.
	DrainEpoch
	// DrainConflict: a read by another thread observed a buffered install
	// and committed the line itself (charged to the probing thread).
	DrainConflict
	// DrainDetect: a detectable-operation verdict needed its pre-verdict
	// fence.
	DrainDetect
	// DrainPreFree: the allocator was about to free memory.
	DrainPreFree
	// DrainExpose: a relaxed (unregistered-shortcut) write was about to
	// become visible while the writer's own buffer held a linearizing
	// install the shortcut could expose; the buffer drained first. See
	// patomic.Auxiliary's exposure rule.
	DrainExpose
	// DrainExplicit: an explicit engine drain (quiesce, tests).
	DrainExplicit

	drainCauses
)

func (c DrainCause) String() string {
	switch c {
	case DrainCapacity:
		return "capacity"
	case DrainEpoch:
		return "epoch"
	case DrainConflict:
		return "conflict"
	case DrainDetect:
		return "detect"
	case DrainPreFree:
		return "prefree"
	case DrainExpose:
		return "expose"
	case DrainExplicit:
		return "explicit"
	}
	return "unknown"
}

// DrainCauses aggregates the per-cause drain counts (CombineCounters).
type DrainCauses struct {
	Capacity, Epoch, Conflict, Detect, PreFree, Expose, Explicit uint64
}

const (
	// combineCapacityLines bounds the distinct dirty lines a thread may
	// hold back; one line is one deferred flush at the next drain.
	combineCapacityLines = 8
	// combineCapacityOps bounds the linearizations a thread may hold
	// back even when they all land on few lines (repeated CAS of the
	// same word), bounding the vanish window in operations.
	combineCapacityOps = 16
	// combineEpochOps is the combining epoch in operation ends: a
	// non-empty buffer never outlives this many of its owner's ops.
	combineEpochOps = 8
)

// Combines reports whether the combining layer is active on this device.
func (d *Device) Combines() bool { return d.combine }

// CombineAdd defers the durability of a linearizing install at off to
// fs's combine buffer and returns whether the buffer hit capacity (the
// caller must then drain). Must be called after the install lands in
// rep_p and before it becomes visible in rep_v, exactly like
// NoteRelaxed: the global registration below is what orders the install
// before any free of memory it references, and the cpend tag is what
// lets other threads' reads detect it.
func (d *Device) CombineAdd(fs *FlushSet, off uint64) bool {
	if fs.dev != d {
		d.adopt(fs)
	}
	line := off >> lineShift
	// Register in the relaxed-line registry: the pre-free drain (run by
	// whichever thread frees first) commits this line along with the
	// relaxed CASes.
	d.relaxedMu.Lock()
	if _, dup := d.relaxedSet[line]; !dup {
		d.relaxedSet[line] = struct{}{}
		d.relaxedLines = append(d.relaxedLines, line)
	}
	d.relaxedMu.Unlock()
	// Conflict-probe tag: a fence whose epoch advance follows this load
	// has epoch >= pepoch+1, so marks[line] >= cpend[line] proves the
	// install (or a successor in the same word) reached the media; see
	// CombinePending. The install itself happened before this load, so
	// any such fence's line copy includes it.
	atomicMax(&d.cpend[line], d.pepoch.Load()+1)
	fs.cbTicket++
	found := false
	for _, l := range fs.cbLines {
		if l == line {
			found = true
			break
		}
	}
	if !found {
		fs.cbLines = append(fs.cbLines, line)
	}
	fs.combined.Add(1)
	return len(fs.cbLines) >= combineCapacityLines ||
		fs.cbTicket-fs.cbDrained >= combineCapacityOps
}

// CombinePending reports whether off's line holds a buffered linearizing
// install that no fence has committed yet. False on non-combining
// devices and for every line no combining install ever touched, so the
// steady-state cost of a read-side probe is one atomic load.
func (d *Device) CombinePending(off uint64) bool {
	if !d.combine {
		return false
	}
	line := off >> lineShift
	cp := d.cpend[line].Load()
	return cp != 0 && d.marks[line].Load() < cp
}

// CombineAdopt enrolls a line that is combine-pending in *another*
// thread's buffer into fs's own buffer, without a ticket (no operation
// of fs's is being linearized). The adopter's next drain then flushes
// the line alongside its own, so an operation built durably on top of a
// foreign buffered install never outlives it: by the time the adopter's
// watermark advances past the building operation's ticket, the adopted
// prefix line has reached the same drain fence. This is the zero-fence
// alternative to CombineProbe for writers that *extend* a pending chain
// rather than complete a read against it (the durable queue's enqueue
// walk). Callers must only adopt lines whose CombinePending is true —
// that orders the owner's registry registration before the adoption.
func (d *Device) CombineAdopt(fs *FlushSet, off uint64) {
	if !d.combine {
		return
	}
	if fs.dev != d {
		d.adopt(fs)
	}
	line := off >> lineShift
	for _, l := range fs.cbLines {
		if l == line {
			return
		}
	}
	fs.cbLines = append(fs.cbLines, line)
}

// CombineAdoptRead is the adopting variant of the read-side conflict
// probe, for loads inside *update* operations' traversals. Where
// CombineProbe commits a foreign pending line on the spot (one flush +
// one fence per conflict), this enrolls it into fs's own buffer, so
// fs's next drain commits the whole witnessed path under a single
// fence. Soundness differs from the probe's and leans on linked-chain
// reachability: an update that builds on the walked path either
//
//   - linearizes — its install's ticket then rides the same drain as
//     the adopted lines, and until that drain, a crash that drops an
//     adopted link makes the dependent effect unreachable from the
//     roots, so the operation vanishes with its dependency (the
//     may-vanish branch the buffered checker grants it), or
//   - reports no effect — a verdict with no install of its own; the
//     caller must then commit the witness before returning
//     (CombineWitness below).
//
// It is NOT sound for plain read operations, which complete with no
// ticket and no witness barrier: those keep CombineProbe. A line
// already buffered (own install or earlier adoption) is only flagged.
// Adopting can fill the buffer; it drains at capacity like CombineAdd.
func (d *Device) CombineAdoptRead(fs *FlushSet, off uint64) {
	if !d.combine {
		return
	}
	line := off >> lineShift
	cp := d.cpend[line].Load()
	if cp == 0 || d.marks[line].Load() >= cp {
		return
	}
	if fs.dev != d {
		d.adopt(fs)
	}
	fs.cbAdopted = true
	for _, l := range fs.cbLines {
		if l == line {
			return
		}
	}
	fs.cbLines = append(fs.cbLines, line)
	if len(fs.cbLines) >= combineCapacityLines {
		d.CombineDrain(fs, DrainCapacity)
	}
}

// CombineWitness commits the caller's read witness before a no-effect
// verdict (failed insert, absent-key delete) returns from an update
// operation that traversed with CombineAdoptRead. If the buffer holds
// an adopted line some read depended on and the thread has an undrained
// ticket of its own, nothing happens: the verdict is stamped with that
// ticket and vanishes with it at a crash. With no undrained ticket the
// verdict is in the must-survive class, so the adopted dependencies
// must reach a fence first — the buffer drains (an exposure drain: the
// verdict would otherwise expose undurable state to the caller).
func (d *Device) CombineWitness(fs *FlushSet) {
	if !d.combine || !fs.cbAdopted {
		return
	}
	if fs.cbTicket != fs.cbDrained {
		return
	}
	d.CombineDrain(fs, DrainExpose)
}

// CombineSettled reports whether off's line carried at least one
// combining install and every such install has provably reached the
// media (a fence with a covering epoch committed the line). Unlike the
// elision watermark probe this is not staleness-prone: cpend and marks
// only grow, so once a line settles it stays settled until a new
// combining install raises cpend again. Constant false on non-combining
// devices and for lines no combining install ever touched.
func (d *Device) CombineSettled(off uint64) bool {
	if !d.combine {
		return false
	}
	line := off >> lineShift
	cp := d.cpend[line].Load()
	return cp != 0 && d.marks[line].Load() >= cp
}

// CombineProbe is the read-side conflict probe: a value loaded from the
// volatile replica may be another thread's buffered — visible but not
// yet durable — install. An operation about to complete on the strength
// of such a value must not outlive it across a crash, so the probing
// thread commits the line itself (one flush + one fence on its own fs,
// charged as a conflict drain). A line pending only in fs's *own*
// buffer is left alone: the probing thread's operation then carries its
// own undrained ticket, and its own drain is what commits the line.
// Returns whether a commit was forced.
func (d *Device) CombineProbe(fs *FlushSet, off uint64) bool {
	if !d.combine {
		return false
	}
	line := off >> lineShift
	cp := d.cpend[line].Load()
	if cp == 0 || d.marks[line].Load() >= cp {
		return false
	}
	for _, l := range fs.cbLines {
		if l == line {
			return false
		}
	}
	if fs.dev != d {
		d.adopt(fs)
	}
	d.Flush(fs, off)
	d.Fence(fs)
	fs.drainCause[DrainConflict].Add(1)
	return true
}

// CombineDrain commits fs's combine buffer: one flush per buffered line
// that the watermark does not already prove durable, one trailing fence
// (elided when nothing is pending), then the drained-ticket watermark
// advances. A crash during the drain leaves the watermark where it was,
// so every buffered operation stays in the may-vanish class and the
// per-line fates decide each one independently — the drain never claims
// durability it has not fenced.
func (d *Device) CombineDrain(fs *FlushSet, cause DrainCause) {
	if !d.combine {
		return
	}
	fs.cbOpTicks = 0
	if len(fs.cbLines) == 0 && fs.cbTicket == fs.cbDrained {
		return
	}
	if fs.dev != d {
		d.adopt(fs)
	}
	target := fs.cbTicket
	for i, line := range fs.cbLines {
		if d.breakCombine && i == 0 {
			// BUG hook (BreakCombineForTest): drop the first buffered
			// line while still advancing the watermark below — the
			// seeded bug engine.BugDrainDropsFirstLine plants.
			continue
		}
		if d.marks[line].Load() >= d.cpend[line].Load() {
			// A conflict probe, a pre-free drain, or an unrelated fence
			// already committed every buffered install on this line.
			fs.elidedFlushes.Add(1)
			continue
		}
		off := line << lineShift
		if off == 0 {
			off = 1 // offset 0 is reserved; any word of the line works
		}
		d.Flush(fs, off)
	}
	if fs.Pending() > 0 {
		d.Fence(fs)
	} else {
		d.NoteElided(fs, 0, 1)
	}
	fs.cbLines = fs.cbLines[:0]
	fs.cbDrained = target
	fs.cbAdopted = false
	fs.drainCause[cause].Add(1)
}

// CombineQuiet reports whether this thread's combine buffer is empty —
// every linearization it issued has reached a drain fence. Constant true
// on non-combining devices (the buffer never fills). Data structures use
// it to gate *exposing* shortcut writes: a relaxed snip, unlink, or
// cleanup CAS issued by a thread whose own buffer is non-empty can make
// a buffered linearization reachable (or its effect deducible) along a
// path that never loads the buffered line, so the read-side conflict
// probe never fires and a fenced observer can outlive the install across
// a crash. Such writes must either wait for a quiet moment or drain
// first (DrainExpose).
func (s *FlushSet) CombineQuiet() bool {
	return len(s.cbLines) == 0 && s.cbTicket == s.cbDrained
}

// CombineOwns reports whether off's line sits in this thread's own
// combine buffer — a linearizing install it published but has not yet
// drained. Helpers use it to distinguish "lagging because the owner is
// slow" (help: persist and complete) from "lagging because *my own*
// buffer holds it" (build past it; my next drain commits it).
func (s *FlushSet) CombineOwns(off uint64) bool {
	line := off >> lineShift
	for _, l := range s.cbLines {
		if l == line {
			return true
		}
	}
	return false
}

// CombineTick is the per-operation epoch pulse: engines call it at the
// end of every operation, and a non-empty buffer drains after
// combineEpochOps such pulses. This bounds, in the owner's operations,
// how long a completed operation can remain in the may-vanish class.
func (d *Device) CombineTick(fs *FlushSet) {
	if d.combine {
		d.combineTick(fs)
	}
}

// combineTick is CombineTick's slow half, split off so that the off-switch
// test inlines into every operation end.
func (d *Device) combineTick(fs *FlushSet) {
	if len(fs.cbLines) == 0 && fs.cbTicket == fs.cbDrained {
		fs.cbOpTicks = 0
		return
	}
	fs.cbOpTicks++
	if fs.cbOpTicks >= combineEpochOps {
		d.CombineDrain(fs, DrainEpoch)
	}
}

// CombineTickets returns this thread's (last, drained) linearization
// ticket pair: the ticket of the most recent combining install and the
// watermark of the last completed drain. An operation whose ticket is
// above the watermark at a crash may vanish or take effect; at or below
// it, the operation reached a drain fence and must survive. Both are
// plain Go state, so they remain readable after a device crash.
func (s *FlushSet) CombineTickets() (last, drained uint64) {
	return s.cbTicket, s.cbDrained
}

// CombineCounters sums the combining statistics across every FlushSet
// that has used this device: fences deferred into a combined drain, and
// the per-cause drain counts.
func (d *Device) CombineCounters() (combined uint64, causes DrainCauses) {
	d.shardMu.Lock()
	defer d.shardMu.Unlock()
	for _, s := range d.shards {
		combined += s.combined.Load()
		causes.Capacity += s.drainCause[DrainCapacity].Load()
		causes.Epoch += s.drainCause[DrainEpoch].Load()
		causes.Conflict += s.drainCause[DrainConflict].Load()
		causes.Detect += s.drainCause[DrainDetect].Load()
		causes.PreFree += s.drainCause[DrainPreFree].Load()
		causes.Expose += s.drainCause[DrainExpose].Load()
		causes.Explicit += s.drainCause[DrainExplicit].Load()
	}
	return combined, causes
}

// crashCombine resets the combining state at a crash: buffered installs
// died with the cache view, so no line is combine-pending any more and
// every buffer empties. Ticket counters and drained watermarks survive —
// they are the harness's record of which completed operations were
// allowed to vanish. Callers hold no locks; the device is quiesced
// (frozen) when Crash runs.
func (d *Device) crashCombine() {
	if !d.combine {
		return
	}
	for i := range d.cpend {
		d.cpend[i].Store(0)
	}
	d.shardMu.Lock()
	for _, s := range d.shards {
		s.cbLines = s.cbLines[:0]
		s.cbOpTicks = 0
		s.cbAdopted = false
	}
	d.shardMu.Unlock()
}

// BreakCombineForTest makes every subsequent CombineDrain silently drop
// its first buffered line while still advancing the drained watermark —
// the drain claims durability for an install it never flushed. The fault
// fuzzer's acceptance test proves this is caught. Never use outside
// tests.
func (d *Device) BreakCombineForTest() { d.breakCombine = true }
