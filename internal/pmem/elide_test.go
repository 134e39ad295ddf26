package pmem

import "testing"

// TestPersistedRequiresFencedCommit pins that a word reaches the media only
// through a fence: neither the store nor its flush puts it there.
func TestPersistedRequiresFencedCommit(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet

	d.Store(8, 7)
	if got := d.PersistedWord(8); got != 0 {
		t.Fatalf("media word = %d after a store alone, want 0", got)
	}
	d.Flush(&fs, 8)
	if got := d.PersistedWord(8); got != 0 {
		t.Fatalf("media word = %d after a flush but before its fence, want 0", got)
	}
	d.Fence(&fs)
	if got := d.PersistedWord(8); got != 7 {
		t.Fatalf("media word = %d after the fence, want 7", got)
	}
}

// TestEnsureDurableAlwaysFences pins Fig. 4's persist step: EnsureDurable
// flushes the value's line and each witness line and fences, even when
// another fence has already committed all three lines — no device proves a
// line persisted on another thread's behalf.
func TestEnsureDurableAlwaysFences(t *testing.T) {
	d := newTestDevice(64)
	var fs, other FlushSet
	for _, off := range []uint64{8, 16, 24} {
		d.Store(off, off)
		d.Flush(&other, off)
	}
	d.Fence(&other)
	for _, c := range []struct {
		w, x            uint64
		flushes, fences uint64
	}{{0, 0, 1, 1}, {16, 0, 2, 1}, {16, 24, 3, 1}} {
		fl0, fe0 := d.Counters()
		d.EnsureDurable(&fs, 8, c.w, c.x)
		fl1, fe1 := d.Counters()
		if fl1-fl0 != c.flushes || fe1-fe0 != c.fences {
			t.Errorf("EnsureDurable(8, %d, %d) cost (%d flushes, %d fences), want (%d, %d)",
				c.w, c.x, fl1-fl0, fe1-fe0, c.flushes, c.fences)
		}
	}
	if elFl, elFe, _ := d.ElisionCounters(); elFl != 0 || elFe != 0 {
		t.Errorf("EnsureDurable counted (%d, %d) elided flushes and fences, want none", elFl, elFe)
	}
	d.Store(24, 99)
	d.EnsureDurable(&fs, 8, 16, 24)
	if got := d.PersistedWord(24); got != 99 {
		t.Errorf("witness word on media = %d after EnsureDurable, want 99", got)
	}
}

func TestRelaxedRegistryCommit(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(8, 7)
	d.Store(16, 9)
	d.NoteRelaxed(&fs, 8)
	d.NoteRelaxed(&fs, 9)  // same line: deduplicated
	d.NoteRelaxed(&fs, 16) // second line
	if got := d.RelaxedPending(); got != 2 {
		t.Fatalf("RelaxedPending = %d, want 2 (dedup by line)", got)
	}
	fl0, fe0 := d.Counters()
	d.CommitRelaxed(&fs)
	fl1, fe1 := d.Counters()
	if fl1-fl0 != 2 || fe1-fe0 != 1 {
		t.Fatalf("CommitRelaxed cost (%d flushes, %d fences), want (2, 1)", fl1-fl0, fe1-fe0)
	}
	if d.RelaxedPending() != 0 {
		t.Fatal("registry not drained")
	}
	if d.PersistedWord(8) != 7 || d.PersistedWord(16) != 9 {
		t.Fatal("relaxed lines not on media after CommitRelaxed")
	}
	// An empty registry commits nothing — not even the fence.
	d.CommitRelaxed(&fs)
	fl2, fe2 := d.Counters()
	if fl2 != fl1 || fe2 != fe1 {
		t.Fatalf("empty CommitRelaxed issued (%d flushes, %d fences)", fl2-fl1, fe2-fe1)
	}
	_, _, relaxed := d.ElisionCounters()
	if relaxed != 3 {
		t.Fatalf("relaxed counter = %d, want 3", relaxed)
	}
}

// TestCrashClearsRegistryKeepsWatermark pins the crash semantics: the
// registry's obligations die with the volatile world, so a relaxed line no
// drain committed is lost under drop-all, while the fenced word survives on
// the media and in the view recovery starts from.
func TestCrashClearsRegistryKeepsWatermark(t *testing.T) {
	d := newTestDevice(64)
	var fs FlushSet
	d.Store(8, 7)
	d.Flush(&fs, 8)
	d.Fence(&fs)
	d.Store(16, 9)
	d.NoteRelaxed(&fs, 16)
	d.Freeze()
	d.Crash(CrashDropAll, nil)
	if d.RelaxedPending() != 0 {
		t.Fatal("relaxed registry survived the crash")
	}
	if got := d.Load(16); got != 0 {
		t.Errorf("uncommitted relaxed word = %d after a drop-all crash, want 0", got)
	}
	if got, med := d.Load(8), d.PersistedWord(8); got != 7 || med != 7 {
		t.Errorf("fenced word after the crash: view %d, media %d, want 7", got, med)
	}
}
