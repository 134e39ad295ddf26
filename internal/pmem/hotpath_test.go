package pmem

// Tests for the hot-path rebuild: the packed state word and its fused
// gate, fence crash-point coverage, sharded counter exactness, the
// epoch-tagged dedup spill, and the FlushSet misuse assertions.

import (
	"sync"
	"testing"
)

// TestFreezeAfterLandsOnFence arms the countdown so that it expires exactly
// on a Fence: the fence must panic ErrFrozen before committing any line, so
// the flushed-but-unfenced write is at the adversary's mercy.
func TestFreezeAfterLandsOnFence(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(9, 41) // establish a persisted baseline
	d.Flush(&fs, 9)
	d.Fence(&fs)

	d.Store(9, 42) // the update whose fence the crash lands on
	d.FreezeAfter(2)
	d.Flush(&fs, 9) // op 1: the clwb
	func() {
		defer func() {
			if r := recover(); r != ErrFrozen {
				t.Fatalf("fence recover = %v, want ErrFrozen", r)
			}
		}()
		d.Fence(&fs) // op 2: the sfence — must freeze before committing
	}()
	if !frozen(d) {
		t.Fatal("device should be frozen on the fence boundary")
	}
	fs.Reset()
	d.Crash(CrashDropAll, nil)
	if got := d.Load(9); got != 41 {
		t.Errorf("after crash on fence: word = %d, want 41 (the fence must not have committed)", got)
	}
}

// TestCountersExactUnderConcurrency asserts Counters sums the per-FlushSet
// shards to the exact totals, not an approximation.
func TestCountersExactUnderConcurrency(t *testing.T) {
	d := newTestDevice(1 << 12)
	const (
		goroutines = 8
		rounds     = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var fs FlushSet
			for i := 0; i < rounds; i++ {
				off := uint64(g*8+1) + uint64(i%4)
				d.Store(off, uint64(i))
				d.Flush(&fs, off)
				if i%2 == 0 {
					d.Fence(&fs)
				}
			}
		}(g)
	}
	wg.Wait()
	fl, fe := d.Counters()
	if want := uint64(goroutines * rounds); fl != want {
		t.Errorf("flushes = %d, want exactly %d", fl, want)
	}
	if want := uint64(goroutines * rounds / 2); fe != want {
		t.Errorf("fences = %d, want exactly %d", fe, want)
	}
}

// TestFlushSetDedupSpill pushes a FlushSet past the spill threshold and
// checks both dedup (flush the same lines twice) and that every line still
// commits on the fence.
func TestFlushSetDedupSpill(t *testing.T) {
	const lines = 4 * spillLines
	d := newTestDevice(lines * WordsPerLine * 2)
	var fs FlushSet
	for pass := 0; pass < 2; pass++ {
		for l := 0; l < lines; l++ {
			off := uint64(l*WordsPerLine + 1)
			d.Store(off, uint64(l+100))
			d.Flush(&fs, off)
		}
	}
	if got := len(fs.lines); got != lines {
		t.Fatalf("pending lines = %d, want %d (dedup across the spill)", got, lines)
	}
	if fs.table == nil {
		t.Fatal("set should have spilled to the epoch table")
	}
	d.Fence(&fs)
	for l := 0; l < lines; l++ {
		off := uint64(l*WordsPerLine + 1)
		if got := d.PersistedWord(off); got != uint64(l+100) {
			t.Fatalf("line %d not committed: media = %d", l, got)
		}
	}
	// The epoch advance must invalidate stale table entries, not leak them
	// into the next fence window.
	d.Store(1, 7)
	d.Flush(&fs, 1)
	if got := len(fs.lines); got != 1 {
		t.Errorf("pending lines after fence = %d, want 1 (epoch should reset dedup)", got)
	}
}

// TestFlushSetSmallAfterSpill: a set that spilled once goes back to the
// linear scan after its fence — a small set writes nothing to the table —
// and reseeds the table when it grows to spillLines again. Dedup holds in
// every phase, stale table entries from the spilled window included, and
// every pending line commits.
func TestFlushSetSmallAfterSpill(t *testing.T) {
	const lines = 3 * spillLines
	d := newTestDevice(lines * WordsPerLine * 2)
	var fs FlushSet
	flush := func(l, v int) {
		off := uint64(l*WordsPerLine + 1)
		d.Store(off, uint64(v))
		d.Flush(&fs, off)
	}
	pending := func(phase string, want int) {
		t.Helper()
		if got := len(fs.lines); got != want {
			t.Fatalf("%s: pending lines = %d, want %d", phase, got, want)
		}
	}
	committed := func(phase string, from, to, v int) {
		t.Helper()
		for l := from; l < to; l++ {
			if got := d.PersistedWord(uint64(l*WordsPerLine + 1)); got != uint64(v+l) {
				t.Fatalf("%s: line %d not committed: media = %d, want %d", phase, l, got, v+l)
			}
		}
	}

	// A spill: 2*spillLines lines, each flushed twice.
	for pass := 0; pass < 2; pass++ {
		for l := 0; l < 2*spillLines; l++ {
			flush(l, 100+l)
		}
	}
	pending("spill", 2*spillLines)
	d.Fence(&fs)
	committed("spill", 0, 2*spillLines, 100)

	// A small set: lines the spilled window held and a line the table never
	// saw, each flushed twice, leave the table alone.
	seeded := len(fs.table)
	for pass := 0; pass < 2; pass++ {
		for _, l := range []int{0, 5, lines - 1} {
			flush(l, 200+l)
		}
	}
	pending("small set", 3)
	if len(fs.table) != seeded {
		t.Fatalf("a small set wrote the table: %d entries, %d after the spill", len(fs.table), seeded)
	}
	d.Fence(&fs)
	committed("small set", 5, 6, 200)
	committed("small set", lines-1, lines, 200)

	// A second spill over the stale entries and new lines alike.
	for pass := 0; pass < 2; pass++ {
		for l := spillLines; l < lines; l++ {
			flush(l, 300+l)
		}
	}
	pending("second spill", lines-spillLines)
	d.Fence(&fs)
	committed("second spill", spillLines, lines, 300)
	pending("after fence", 0)
}

// TestFlushSetTwoDevicesPanics checks the first-use device binding.
func TestFlushSetTwoDevicesPanics(t *testing.T) {
	d1 := newTestDevice(64)
	d2 := newTestDevice(64)
	var fs FlushSet
	d1.Flush(&fs, 9)
	defer func() {
		if recover() == nil {
			t.Error("Flush on a second device should panic")
		}
	}()
	d2.Flush(&fs, 9)
}

// TestFlushSetConcurrentUseDetected checks the debug assertion that a
// FlushSet is single-owner: with the set marked busy (as a concurrent
// Flush would), another Flush must panic.
func TestFlushSetConcurrentUseDetected(t *testing.T) {
	EnableDebugChecks()
	defer DisableDebugChecks()
	d := newTestDevice(64)
	var fs FlushSet
	d.Flush(&fs, 9) // bind and exercise the normal path
	fs.busy.Store(1)
	defer func() {
		fs.busy.Store(0)
		if recover() == nil {
			t.Error("concurrent FlushSet use should panic under debug checks")
		}
	}()
	d.Flush(&fs, 9)
}

// TestFlushSetRecycleWithoutResetDetected checks the debug assertion that a
// context carrying pre-crash pending flushes is not recycled across a crash
// without Reset.
func TestFlushSetRecycleWithoutResetDetected(t *testing.T) {
	EnableDebugChecks()
	defer DisableDebugChecks()
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(9, 1)
	d.Flush(&fs, 9) // pending line from before the crash
	d.Crash(CrashDropAll, nil)
	defer func() {
		if recover() == nil {
			t.Error("recycling a FlushSet across a crash without Reset should panic")
		}
	}()
	d.Flush(&fs, 9)
}

// TestFlushSetResetAllowsRecycle is the positive counterpart: Reset makes
// recycling across a crash legal.
func TestFlushSetResetAllowsRecycle(t *testing.T) {
	EnableDebugChecks()
	defer DisableDebugChecks()
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(9, 1)
	d.Flush(&fs, 9)
	d.Crash(CrashDropAll, nil)
	fs.Reset()
	d.Store(9, 2)
	d.Flush(&fs, 9) // must not panic
	d.Fence(&fs)
	if got := d.PersistedWord(9); got != 2 {
		t.Errorf("media = %d, want 2", got)
	}
}

// TestGateTracksState checks the fused gate word against every state
// transition: set bits close it, returning to state 0 reopens it.
func TestGateTracksState(t *testing.T) {
	d := newTestDevice(64)
	if !d.fastOK(1) {
		t.Fatal("fresh device should be on the fast path")
	}
	if d.fastOK(0) {
		t.Fatal("offset 0 must never pass the gate")
	}
	if d.fastOK(uint64(d.Size())) {
		t.Fatal("out-of-range offset must never pass the gate")
	}
	d.FreezeAfter(5)
	if d.fastOK(1) {
		t.Fatal("armed countdown must close the gate")
	}
	d.FreezeAfter(0)
	if !d.fastOK(1) {
		t.Fatal("disarming must reopen the gate")
	}
	d.Freeze()
	if d.fastOK(1) {
		t.Fatal("frozen device must close the gate")
	}
	d.Crash(CrashDropAll, nil)
	if !d.fastOK(1) {
		t.Fatal("crash must reopen the gate")
	}
	// A counting device keeps the gate closed, so every access takes the
	// slow path that tallies it; a crash keeps counting on, and switching
	// counting off reopens the gate.
	d.setState(stateCount)
	if d.fastOK(1) {
		t.Fatal("counting must close the gate")
	}
	d.Freeze()
	d.Crash(CrashDropAll, nil)
	if d.fastOK(1) || d.state.Load() != stateCount {
		t.Fatal("crash must keep counting on")
	}
	d.clearState(stateCount)
	if !d.fastOK(1) {
		t.Fatal("switching counting off must reopen the gate")
	}
}
