package pmem

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func newTestDevice(words int) *Device {
	return New(Config{Name: "nvmm", Words: words, Persistent: true, Track: true})
}

// frozen reports whether d is frozen.
func frozen(d *Device) bool { return d.state.Load()&stateFrozen != 0 }

// TestDeviceSurface pins the exported methods of Device, FlushSet and
// FaultModel. Callers state what must be durable (EnsureDurable,
// PublishInit, FlushRange, FenceOrElide, CommitRelaxed, CommitPending); the
// device alone decides which flush or fence is redundant, so the probes
// behind that decision — the watermark, the commit tickets, the pending set,
// the fence count — must not come back as exports.
func TestDeviceSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[*Device](), []string{"BreakWatermarkForTest", "CAS", "Close",
			"CommitPending", "CommitRelaxed", "CopyRange", "Counters", "Crash", "DWCAS",
			"ElisionCounters", "EnsureDurable", "Fence", "FenceOrElide", "Flush",
			"FlushAhead", "FlushRange", "FlushRelaxed", "Freeze", "FreezeAfter",
			"InjectFaults", "Load", "LoadPair", "MediaHash", "Name", "NoteRelaxed",
			"PersistEpoch", "PersistRange", "PersistedWord", "Persistent", "PublishInit",
			"ReadRaw", "RelaxedPending", "Restore", "Size", "Store", "StoreInit",
			"WriteRaw", "WriteRebuilt"}},
		{reflect.TypeFor[*FlushSet](), []string{"Armed", "DeferInit", "DropAhead", "DropInit", "Reset"}},
		{reflect.TypeFor[*FaultModel](), []string{"CrashAfter", "CrashedAt", "Ops"}},
	} {
		var got []string
		for i := range c.typ.NumMethod() {
			got = append(got, c.typ.Method(i).Name) // exported only, sorted by reflect
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v has %d methods %v, want %d %v", c.typ, len(got), got, len(c.want), c.want)
		}
	}
}

func TestNewRoundsToLines(t *testing.T) {
	d := New(Config{Words: 3})
	if d.Size() != WordsPerLine {
		t.Errorf("Size = %d, want %d", d.Size(), WordsPerLine)
	}
	d = New(Config{Words: 17})
	if d.Size() != 24 {
		t.Errorf("Size = %d, want 24", d.Size())
	}
}

func TestLoadStore(t *testing.T) {
	d := newTestDevice(64)
	d.Store(5, 42)
	if got := d.Load(5); got != 42 {
		t.Errorf("Load = %d, want 42", got)
	}
}

func TestCASAndAdd(t *testing.T) {
	d := newTestDevice(64)
	d.Store(3, 7)
	if !d.CAS(3, 7, 8) {
		t.Error("CAS should succeed")
	}
	if d.CAS(3, 7, 9) {
		t.Error("CAS should fail")
	}
	if !d.CAS(3, 8, 10) {
		t.Errorf("CAS from 8 failed: the failed CAS left %d", d.Load(3))
	}
}

func TestPairOps(t *testing.T) {
	d := newTestDevice(64)
	ok, c0, c1 := d.DWCAS(4, 0, 0, 11, 22)
	if !ok || c0 != 0 || c1 != 0 {
		t.Fatalf("DWCAS = (%v,%d,%d)", ok, c0, c1)
	}
	v0, v1 := d.LoadPair(4)
	if v0 != 11 || v1 != 22 {
		t.Errorf("LoadPair = (%d,%d), want (11,22)", v0, v1)
	}
	ok, c0, c1 = d.DWCAS(4, 11, 0, 1, 2)
	if ok || c0 != 11 || c1 != 22 {
		t.Errorf("failed DWCAS = (%v,%d,%d), want (false,11,22)", ok, c0, c1)
	}
}

func TestDWCASAlignmentPanics(t *testing.T) {
	d := newTestDevice(64)
	defer func() {
		if recover() == nil {
			t.Error("odd-offset DWCAS should panic")
		}
	}()
	d.DWCAS(5, 0, 0, 1, 2)
}

func TestOffsetZeroReserved(t *testing.T) {
	d := newTestDevice(64)
	defer func() {
		if recover() == nil {
			t.Error("offset 0 access should panic")
		}
	}()
	d.Load(0)
}

func TestFlushFenceDurability(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(9, 77)
	if got := d.PersistedWord(9); got != 0 {
		t.Fatalf("unfenced store already persisted: %d", got)
	}
	d.Flush(&fs, 9)
	if got := d.PersistedWord(9); got != 0 {
		t.Fatalf("flushed-but-unfenced store already persisted: %d", got)
	}
	d.Fence(&fs)
	if got := d.PersistedWord(9); got != 77 {
		t.Fatalf("fenced store not persisted: %d", got)
	}
}

func TestFenceOnlyCommitsFlushedLines(t *testing.T) {
	d := newTestDevice(128)
	var fs FlushSet
	d.Store(9, 1)  // line 1
	d.Store(17, 2) // line 2
	d.Flush(&fs, 9)
	d.Fence(&fs)
	if d.PersistedWord(9) != 1 {
		t.Error("line 1 should be persisted")
	}
	if d.PersistedWord(17) != 0 {
		t.Error("line 2 must not be persisted")
	}
}

func TestFenceClearsSet(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(9, 1)
	d.Flush(&fs, 9)
	d.Fence(&fs)
	d.Store(9, 2)
	d.Fence(&fs) // no pending flushes: must not commit the new value
	if got := d.PersistedWord(9); got != 1 {
		t.Errorf("PersistedWord = %d, want 1 (fence without flush committed)", got)
	}
}

func TestFlushWholeLine(t *testing.T) {
	// Flushing any word of a line writes back the whole line, as clwb does.
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(8, 10)
	d.Store(15, 20) // same line (words 8..15)
	d.Flush(&fs, 8)
	d.Fence(&fs)
	if d.PersistedWord(15) != 20 {
		t.Error("whole line should persist on flush of any word in it")
	}
}

func TestCrashDropAll(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(9, 1)
	d.Flush(&fs, 9)
	d.Fence(&fs)
	d.Store(9, 2) // unfenced overwrite
	d.Store(10, 3)
	d.Freeze()
	d.Crash(CrashDropAll, nil)
	if got := d.Load(9); got != 1 {
		t.Errorf("word 9 = %d after crash, want fenced value 1", got)
	}
	if got := d.Load(10); got != 0 {
		t.Errorf("word 10 = %d after crash, want 0", got)
	}
}

func TestCrashKeepAll(t *testing.T) {
	d := newTestDevice(64)
	d.Store(9, 5)
	d.Freeze()
	d.Crash(CrashKeepAll, nil)
	if got := d.Load(9); got != 5 {
		t.Errorf("word 9 = %d, want 5 (KeepAll evicts everything)", got)
	}
}

func TestCrashDropFlushed(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(9, 1) // line 1: fenced
	d.Flush(&fs, 9)
	d.Fence(&fs)
	d.Store(9, 2)  // line 1: flushed, not fenced
	d.Store(17, 3) // line 2: never flushed
	d.Flush(&fs, 9)
	d.Freeze()
	d.Crash(CrashDropFlushed, nil)
	if got := d.Load(9); got != 1 {
		t.Errorf("word 9 = %d, want fenced value 1 (flushed line dropped)", got)
	}
	if got := d.Load(17); got != 3 {
		t.Errorf("word 17 = %d, want 3 (unflushed line evicted)", got)
	}
}

func TestCrashKeepFlushed(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(9, 1) // line 1: fenced
	d.Flush(&fs, 9)
	d.Fence(&fs)
	d.Store(9, 2)  // line 1: flushed, not fenced
	d.Store(17, 3) // line 2: never flushed
	d.Store(25, 4) // line 3: armed to ride the next fence, which never comes
	d.Flush(&fs, 9)
	d.FlushAhead(&fs, 25)
	d.Freeze()
	d.Crash(CrashKeepFlushed, nil)
	for _, w := range []struct{ off, want uint64 }{{9, 2}, {17, 0}, {25, 0}} {
		if got := d.Load(w.off); got != w.want {
			t.Errorf("word %d = %d, want %d", w.off, got, w.want)
		}
	}
}

// TestFlushAhead pins the armed line's life: the next fence flushes it
// (counted as one flush) and commits it, a fence the crash lands on does
// not, and a dropped line costs nothing.
func TestFlushAhead(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(9, 1)
	d.FlushAhead(&fs, 9)
	if len(fs.lines) != 0 {
		t.Fatalf("armed line counted as pending before any fence")
	}
	d.Fence(&fs)
	if fl, fe := d.Counters(); fl != 1 || fe != 1 {
		t.Fatalf("counters after the carrying fence = (%d, %d), want (1, 1)", fl, fe)
	}
	if got := d.PersistedWord(9); got != 1 {
		t.Fatalf("armed word on media = %d, want 1", got)
	}
	d.Fence(&fs) // the slot is empty again
	if fl, _ := d.Counters(); fl != 1 {
		t.Fatalf("a second fence flushed the line again: %d flushes", fl)
	}

	d.Store(17, 2)
	d.FlushAhead(&fs, 17)
	fs.DropAhead()
	d.Fence(&fs)
	if fl, _ := d.Counters(); fl != 1 || d.PersistedWord(17) != 0 {
		t.Fatalf("dropped line was flushed: %d flushes, media word %d", fl, d.PersistedWord(17))
	}

	d.Store(25, 3)
	d.FlushAhead(&fs, 25)
	d.FreezeAfter(1) // the fence is the crash point
	func() {
		defer func() {
			if recover() != ErrFrozen {
				t.Fatal("the armed fence did not freeze")
			}
		}()
		d.Fence(&fs)
	}()
	d.Crash(CrashKeepFlushed, nil)
	if got := d.Load(25); got != 0 {
		t.Fatalf("word 25 = %d after a crash on its fence, want 0 (never flushed)", got)
	}
}

func TestCrashRandomSubsetsBetweenExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := newTestDevice(1024)
	for off := uint64(1); off < 1000; off++ {
		d.Store(off, off)
	}
	d.Freeze()
	d.Crash(CrashRandom, rng)
	kept := 0
	for off := uint64(1); off < 1000; off++ {
		switch d.Load(off) {
		case off:
			kept++
		case 0:
		default:
			t.Fatalf("word %d has impossible value %d", off, d.Load(off))
		}
	}
	if kept == 0 || kept == 999 {
		t.Errorf("CrashRandom kept %d/999 words; expected a strict subset", kept)
	}
}

// TestCrashRandomDrawsPerDirtyWord pins CrashRandom's draws: one per word
// whose view differs from the media, in ascending word order, whatever lines
// the crash skips as clean. Dirty words sit in scattered lines, some of them
// equal to the media already; the reference replays the whole device word
// by word with a generator of the same seed.
func TestCrashRandomDrawsPerDirtyWord(t *testing.T) {
	const words = 4096
	d := newTestDevice(words)
	var fs FlushSet
	for _, off := range []uint64{9, 10, 17, 300, 301, 302, 303, 304, 305, 306, 307, 2047, 4095} {
		d.Store(off, off)
	}
	d.Flush(&fs, 300)
	d.Fence(&fs)
	d.Store(301, 1)   // dirty again
	d.Store(302, 302) // equal to the media: not dirty
	d.Store(17, 0)    // back to the media's value: not dirty
	view, media := make([]uint64, words), make([]uint64, words)
	for off := range view {
		view[off], media[off] = d.ReadRaw(uint64(off)), d.PersistedWord(uint64(off))
	}
	ref := rand.New(rand.NewSource(5))
	for off := range view {
		if view[off] != media[off] && ref.Int63()&1 == 0 {
			media[off] = view[off]
		}
	}
	rng := rand.New(rand.NewSource(5))
	d.Freeze()
	d.Crash(CrashRandom, rng)
	for off := range media {
		if got := d.PersistedWord(uint64(off)); got != media[off] {
			t.Fatalf("word %d persisted %d, want %d", off, got, media[off])
		}
		if got := d.ReadRaw(uint64(off)); got != media[off] {
			t.Fatalf("word %d reads %d after the crash, want the media's %d", off, got, media[off])
		}
	}
	if rng.Int63() != ref.Int63() {
		t.Error("the crash drew a different number of times than the per-word reference")
	}
}

func TestVolatileCrashWipes(t *testing.T) {
	d := New(Config{Name: "dram", Words: 64})
	d.Store(9, 1)
	d.Freeze()
	d.Crash(CrashDropAll, nil)
	if got := d.Load(9); got != 0 {
		t.Errorf("volatile device kept %d across crash", got)
	}
}

func TestFreezePanics(t *testing.T) {
	d := newTestDevice(64)
	d.Freeze()
	defer func() {
		if r := recover(); r != ErrFrozen {
			t.Errorf("recover = %v, want ErrFrozen", r)
		}
	}()
	d.Load(9)
}

func TestFreezeAfter(t *testing.T) {
	d := newTestDevice(64)
	d.FreezeAfter(3)
	d.Load(9)
	d.Load(9)
	func() {
		defer func() {
			if r := recover(); r != ErrFrozen {
				t.Errorf("third op: recover = %v, want ErrFrozen", r)
			}
		}()
		d.Load(9)
	}()
	if !frozen(d) {
		t.Error("device should be frozen after countdown")
	}
}

func TestCrashUnfreezes(t *testing.T) {
	d := newTestDevice(64)
	d.Freeze()
	d.Crash(CrashDropAll, nil)
	if frozen(d) {
		t.Error("Crash should leave the device usable for recovery")
	}
	d.Load(9) // must not panic
}

func TestRawAccessBypassesFreeze(t *testing.T) {
	d := newTestDevice(64)
	d.Store(9, 4)
	d.Freeze()
	if got := d.ReadRaw(9); got != 4 {
		t.Errorf("ReadRaw = %d, want 4", got)
	}
	d.WriteRaw(9, 6)
	if got := d.ReadRaw(9); got != 6 {
		t.Errorf("ReadRaw after WriteRaw = %d, want 6", got)
	}
}

func TestCopyRange(t *testing.T) {
	src := newTestDevice(64)
	dst := New(Config{Name: "dram", Words: 64})
	for off := uint64(8); off < 16; off++ {
		src.Store(off, off*10)
	}
	src.CopyRange(dst, 8, 8)
	for off := uint64(8); off < 16; off++ {
		if got := dst.Load(off); got != off*10 {
			t.Errorf("dst[%d] = %d, want %d", off, got, off*10)
		}
	}
	src.CopyRange(dst, 8, 0) // empty range is a no-op, not a panic
}

func TestCopyRangeFrozen(t *testing.T) {
	src := newTestDevice(64)
	dst := New(Config{Name: "dram", Words: 64})
	src.Freeze()
	defer func() {
		if r := recover(); r != ErrFrozen {
			t.Fatalf("recovered %v, want ErrFrozen", r)
		}
	}()
	src.CopyRange(dst, 8, 8)
	t.Fatal("CopyRange on a frozen device did not panic")
}

// TestCopyRangeCountdown verifies CopyRange is a countable device
// operation: the n-th recovery copy freezes the device, so deterministic
// crashes can land inside a rebuild.
func TestCopyRangeCountdown(t *testing.T) {
	src := newTestDevice(256)
	dst := New(Config{Name: "dram", Words: 256})
	src.FreezeAfter(3)
	src.CopyRange(dst, 8, 8)
	src.CopyRange(dst, 16, 8)
	froze := false
	func() {
		defer func() {
			if r := recover(); r == ErrFrozen {
				froze = true
			} else if r != nil {
				panic(r)
			}
		}()
		src.CopyRange(dst, 24, 8)
	}()
	if !froze {
		t.Fatal("third CopyRange did not trip the countdown")
	}
	if !frozen(src) {
		t.Fatal("device not frozen after countdown")
	}
}

func TestQuickFlushFenceAlwaysDurable(t *testing.T) {
	d := newTestDevice(4096)
	var fs FlushSet
	f := func(offRaw uint32, v uint64) bool {
		off := uint64(offRaw)%4094 + 1
		d.Store(off, v)
		d.Flush(&fs, off)
		d.Fence(&fs)
		return d.PersistedWord(off) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentFenceNoStaleRegress(t *testing.T) {
	// Two threads alternately bump a word and fence it; the media must
	// never regress below a value some fence already committed.
	d := newTestDevice(64)
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fs FlushSet
			for i := 0; i < iters; i++ {
				for v := d.Load(9); !d.CAS(9, v, v+1); v = d.Load(9) {
				}
				d.Flush(&fs, 9)
				d.Fence(&fs)
				// The media must hold some value >= the value this
				// thread just committed minus concurrent updates; at
				// minimum it must be nonzero from here on.
				if d.PersistedWord(9) == 0 {
					t.Error("media regressed to zero after a fence")
					return
				}
			}
		}()
	}
	wg.Wait()
	if cur, med := d.Load(9), d.PersistedWord(9); med > cur {
		t.Errorf("media %d ahead of current %d", med, cur)
	}
}

// TestLatencyModelZero checks the cost tables: both priced, and an NVMM load
// markedly dearer than a DRAM load (§6.1: reads ≈ 3×).
func TestLatencyModelZero(t *testing.T) {
	if DRAMModel() == (CostModel{}) || NVMMModel() == (CostModel{}) {
		t.Error("the DRAM and NVMM cost tables must be non-zero")
	}
	if NVMMModel().LoadNS < 2*DRAMModel().LoadNS {
		t.Error("an NVMM load should cost at least 2x a DRAM load")
	}
}

// TestCountTalliesEveryAccess drives each device operation once inside a
// counted pass and checks the tally per kind and its cost, and that nothing
// is tallied outside the pass.
func TestCountTalliesEveryAccess(t *testing.T) {
	d := New(Config{Words: 64, Persistent: true, Track: true, Model: NVMMModel()})
	var fs FlushSet
	d.Load(8) // outside the pass
	d.Store(8, 1)
	got := Count([]*Device{d}, func() {
		d.Load(8)
		d.LoadPair(8)
		d.Store(9, 2)
		d.CAS(9, 2, 3)
		d.Store(9, 4)
		d.DWCAS(10, 0, 0, 1, 1)
		d.Flush(&fs, 9)
		d.Fence(&fs)
	})[0]
	want := Tally{Model: NVMMModel(), Loads: 2, Stores: 4, Flushes: 1, Fences: 1}
	if got != want {
		t.Fatalf("tally = %+v, want %+v", got, want)
	}
	if ns := got.NS(); ns != 2*60+4*75+60+100 {
		t.Errorf("modeled cost = %v ns, want %v", ns, 2*60+4*75+60+100)
	}
	d.Load(8)
	if n := d.loads.Load(); n != 2 {
		t.Errorf("loads after the pass = %d, want 2 (counting must stop)", n)
	}
}

func BenchmarkDeviceLoadFastPath(b *testing.B) {
	d := newTestDevice(1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			d.Load(9)
		}
	})
}

func BenchmarkDeviceFlushFence(b *testing.B) {
	d := newTestDevice(1024)
	var fs FlushSet
	for i := 0; i < b.N; i++ {
		d.Store(9, uint64(i))
		d.Flush(&fs, 9)
		d.Fence(&fs)
	}
}

func TestPersistRange(t *testing.T) {
	d := newTestDevice(64)
	for off := uint64(8); off < 16; off++ {
		d.Store(off, off*3)
	}
	d.PersistRange(8, 8)
	for off := uint64(8); off < 16; off++ {
		if got := d.PersistedWord(off); got != off*3 {
			t.Errorf("media[%d] = %d, want %d", off, got, off*3)
		}
	}
	// Non-tracking device: PersistRange is a no-op, not a panic.
	d2 := New(Config{Name: "bench", Words: 64, Persistent: true, Track: false})
	d2.Store(8, 1)
	d2.PersistRange(8, 1)
}

func TestCountersCount(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(8, 1)
	d.Flush(&fs, 8)
	d.Flush(&fs, 8)
	d.Fence(&fs)
	fl, fe := d.Counters()
	if fl != 2 || fe != 1 {
		t.Errorf("Counters = (%d,%d), want (2,1)", fl, fe)
	}
}

func TestFenceWhileFrozenPanics(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(8, 1)
	d.Flush(&fs, 8)
	d.Freeze()
	defer func() {
		if r := recover(); r != ErrFrozen {
			t.Errorf("recover = %v, want ErrFrozen", r)
		}
		// The unfenced flush must not have reached the media.
		d.Crash(CrashDropAll, nil)
		if got := d.Load(8); got != 0 {
			t.Errorf("unfenced flush persisted: %d", got)
		}
	}()
	d.Fence(&fs)
}

func TestFlushSetReset(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(8, 9)
	d.Flush(&fs, 8)
	fs.Reset()
	d.Fence(&fs) // nothing pending: nothing persists
	if got := d.PersistedWord(8); got != 0 {
		t.Errorf("Reset did not clear pending flushes: media=%d", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := newTestDevice(64)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access should panic")
		}
	}()
	d.Load(uint64(d.Size()))
}

func TestDeviceNamePersistentFlags(t *testing.T) {
	d := New(Config{Name: "x", Words: 64, Persistent: true, Track: true})
	if d.Name() != "x" || !d.Persistent() {
		t.Error("accessor mismatch")
	}
	v := New(Config{Name: "v", Words: 64})
	if v.Persistent() {
		t.Error("volatile device claims persistence")
	}
}
