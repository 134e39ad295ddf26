package pmem

import (
	"testing"
)

func faultDevice(words int) *Device {
	return New(Config{Name: "fault", Words: words, Persistent: true, Track: true})
}

func TestFaultSpecParseRoundTrip(t *testing.T) {
	for _, s := range []string{"none", "torn", "evict", "drop", "torn,evict", "torn,evict,drop"} {
		spec, err := ParseFaultSpec(s)
		if err != nil {
			t.Fatalf("ParseFaultSpec(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	if _, err := ParseFaultSpec("torn,bogus"); err == nil {
		t.Error("bogus behavior accepted")
	}
	if spec, err := ParseFaultSpec(""); err != nil || spec != (FaultSpec{}) {
		t.Errorf("empty spec = %v, %v", spec, err)
	}
}

// runFaultSchedule runs a fixed single-threaded schedule with some flushed
// and some unflushed lines, then crashes, returning the media hash.
func runFaultSchedule(t *testing.T, seed int64, spec FaultSpec) uint64 {
	t.Helper()
	d := faultDevice(1024)
	fm := NewFaultModel(seed, spec)
	d.InjectFaults(fm)
	var fs FlushSet
	for i := uint64(1); i <= 256; i++ {
		d.Store(i, i*i+1)
		if i%3 == 0 {
			d.Flush(&fs, i)
		}
		if i%9 == 0 {
			d.Fence(&fs)
		}
	}
	d.Crash(CrashDropAll, nil)
	return d.MediaHash()
}

func TestFaultCrashDeterministic(t *testing.T) {
	spec := FaultSpec{Torn: true, Evict: true, Drop: true}
	a := runFaultSchedule(t, 42, spec)
	b := runFaultSchedule(t, 42, spec)
	if a != b {
		t.Fatalf("same (seed, schedule) produced different media images: %#x vs %#x", a, b)
	}
	c := runFaultSchedule(t, 43, spec)
	if a == c {
		t.Fatalf("different seeds produced identical media images %#x (adversary inert?)", a)
	}
}

// TestTornLinePersists checks the torn fate: with only Torn enabled, every
// dirty line either persists whole or persists a strict contiguous
// sub-range of its dirty words — never an arbitrary subset, never nothing.
func TestTornLinePersists(t *testing.T) {
	sawTear := false
	for seed := int64(1); seed <= 20; seed++ {
		d := faultDevice(1024)
		d.InjectFaults(NewFaultModel(seed, FaultSpec{Torn: true}))
		// Dirty four whole lines, never flushed.
		for off := uint64(8); off < 40; off++ {
			d.Store(off, 1000+off)
		}
		d.Crash(CrashDropAll, nil)
		for line := uint64(1); line < 5; line++ {
			base := line * WordsPerLine
			persisted := 0
			runs := 0
			inRun := false
			for off := base; off < base+WordsPerLine; off++ {
				if d.PersistedWord(off) == 1000+off {
					persisted++
					if !inRun {
						runs++
						inRun = true
					}
				} else if d.PersistedWord(off) != 0 {
					t.Fatalf("seed %d line %d off %d: media holds %d, neither old nor new",
						seed, line, off, d.PersistedWord(off))
				} else {
					inRun = false
				}
			}
			if persisted == 0 {
				t.Fatalf("seed %d line %d: fully dropped, but Drop is disabled", seed, line)
			}
			if runs > 1 {
				t.Fatalf("seed %d line %d: %d persisted runs; tear must be one contiguous sub-range", seed, line, runs)
			}
			if persisted < WordsPerLine {
				sawTear = true
			}
		}
	}
	if !sawTear {
		t.Fatal("no line ever tore across 20 seeds")
	}
}

// TestEvictPersistsEarly checks asynchronous eviction: an unflushed,
// unfenced store reaches the media through repeated accesses to its line —
// the history-dependent hazard no crash-time-only policy can produce.
func TestEvictPersistsEarly(t *testing.T) {
	d := faultDevice(512)
	d.InjectFaults(NewFaultModel(7, FaultSpec{Evict: true}))
	d.Store(9, 111)
	evicted := false
	for i := 0; i < 20*evictPeriod; i++ {
		d.Load(9)
		if d.PersistedWord(9) == 111 {
			evicted = true
			break
		}
	}
	if !evicted {
		t.Fatal("unflushed store never evicted to media")
	}
	// Overwrite without flushing; with Drop the crash can now expose the
	// evicted intermediate value.
	d.Store(9, 222)
	d.InjectFaults(NewFaultModel(7, FaultSpec{Drop: true}))
	d.Crash(CrashDropAll, nil)
	if got := d.ReadRaw(9); got != 111 && got != 222 {
		t.Fatalf("post-crash word = %d, want the evicted 111 or the persisted 222", got)
	}
}

func TestCrashAfterSubOpTrigger(t *testing.T) {
	d := faultDevice(512)
	fm := NewFaultModel(1, FaultSpec{})
	d.InjectFaults(fm)
	fm.CrashAfter(5)
	var fs FlushSet
	ops := []func(){
		func() { d.Store(8, 1) },
		func() { d.Load(8) },
		func() { d.Flush(&fs, 8) },
		func() { d.Fence(&fs) }, // fences are consultations too
		func() { d.Store(9, 2) },
	}
	for i, op := range ops {
		panicked := func() (p bool) {
			defer func() {
				if r := recover(); r != nil {
					if r != ErrFrozen {
						panic(r)
					}
					p = true
				}
			}()
			op()
			return false
		}()
		if want := i == 4; panicked != want {
			t.Fatalf("op %d: panicked = %v, want %v", i, panicked, want)
		}
	}
	if fm.CrashedAt() != 5 {
		t.Fatalf("CrashedAt = %d, want 5", fm.CrashedAt())
	}
	if !frozen(d) {
		t.Fatal("device not frozen after trigger")
	}
}

// TestCopyRangeSingleCountableOp pins the FreezeAfter interaction: without
// a fault model, a multi-line CopyRange is one countable operation — the
// countdown either crashes it before any word moves or lets the whole span
// through, never a partial copy.
func TestCopyRangeSingleCountableOp(t *testing.T) {
	src := faultDevice(1024)
	dst := faultDevice(1024)
	for off := uint64(8); off < 72; off++ {
		src.WriteRaw(off, off+5000)
	}
	src.FreezeAfter(1)
	panicked := func() (p bool) {
		defer func() {
			if r := recover(); r != nil {
				if r != ErrFrozen {
					panic(r)
				}
				p = true
			}
		}()
		src.CopyRange(dst, 8, 64)
		return false
	}()
	if !panicked {
		t.Fatal("FreezeAfter(1) did not crash the CopyRange")
	}
	for off := uint64(8); off < 72; off++ {
		if dst.ReadRaw(off) != 0 {
			t.Fatalf("off %d copied by a crashed whole-op CopyRange", off)
		}
	}
}

// TestFaultCrashInsideCopyRange is the regression test for sub-operation
// triggers: with a fault model installed, each line of a bulk copy is a
// separate consultation, so the crash lands *inside* the span and exactly
// the lines before the trigger are copied.
func TestFaultCrashInsideCopyRange(t *testing.T) {
	src := faultDevice(1024)
	dst := faultDevice(1024)
	for off := uint64(8); off < 72; off++ { // lines 1..8
		src.WriteRaw(off, off+7000)
	}
	fm := NewFaultModel(3, FaultSpec{})
	src.InjectFaults(fm)
	fm.CrashAfter(3) // consultations: line 1 ok, line 2 ok, line 3 crashes
	panicked := func() (p bool) {
		defer func() {
			if r := recover(); r != nil {
				if r != ErrFrozen {
					panic(r)
				}
				p = true
			}
		}()
		src.CopyRange(dst, 8, 64)
		return false
	}()
	if !panicked {
		t.Fatal("crash trigger did not fire inside the CopyRange")
	}
	for off := uint64(8); off < 24; off++ { // the two completed lines
		if dst.ReadRaw(off) != off+7000 {
			t.Fatalf("off %d not copied before the mid-copy crash", off)
		}
	}
	for off := uint64(24); off < 72; off++ { // everything after the trigger
		if dst.ReadRaw(off) != 0 {
			t.Fatalf("off %d copied after the mid-copy crash", off)
		}
	}
}

// TestFaultModelSurvivesCrash checks that Crash leaves the installed model
// active (so a replay can re-crash) and the device operational.
func TestFaultModelSurvivesCrash(t *testing.T) {
	d := faultDevice(512)
	fm := NewFaultModel(5, FaultSpec{Drop: true})
	d.InjectFaults(fm)
	for line := uint64(1); line <= 20; line++ { // each line drops with p=1/2
		d.Store(line*WordsPerLine, line)
	}
	d.Crash(CrashDropAll, nil)
	if d.fault != fm {
		t.Fatal("fault model lost across Crash")
	}
	dropped := 0
	for line := uint64(1); line <= 20; line++ {
		if d.ReadRaw(line*WordsPerLine) == 0 {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no unflushed store was ever dropped across 20 lines")
	}
	d.Store(8, 2) // still operational, still consulting the model
	before := fm.Ops()
	d.Load(8)
	if fm.Ops() != before+1 {
		t.Fatal("operations no longer consult the model after Crash")
	}
	d.InjectFaults(nil)
	before = fm.Ops()
	d.Load(8)
	if fm.Ops() != before {
		t.Fatal("removed model still consulted")
	}
}
