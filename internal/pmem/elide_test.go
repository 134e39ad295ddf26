package pmem

import "testing"

// newElideDevice builds a persistent, tracking device with the flush-elision
// watermark machinery on.
func newElideDevice(words int) *Device {
	return New(Config{Name: "nvmm", Words: words, Persistent: true, Track: true, Elide: true})
}

func TestPersistedRequiresFencedCommit(t *testing.T) {
	d := newElideDevice(64)
	var fs FlushSet

	tag := d.PersistEpoch()
	d.Store(8, 7)
	if d.persisted(8, tag) {
		t.Fatal("Persisted before any flush+fence")
	}
	d.Flush(&fs, 8)
	if d.persisted(8, tag) {
		t.Fatal("Persisted after flush but before fence")
	}
	d.Fence(&fs)
	if !d.persisted(8, tag) {
		t.Fatal("not Persisted after a fenced commit that started after the tag read")
	}
	if got := d.PersistedWord(8); got != 7 {
		t.Fatalf("media word = %d, want 7", got)
	}
}

// TestPersistedIsStrict pins the strict inequality: a tag read at or after
// the committing fence's epoch advance proves nothing about ordering, so
// Persisted must answer false even though the line is in fact on media.
// Conservative, but exactly what keeps single-threaded runs deterministic.
func TestPersistedIsStrict(t *testing.T) {
	d := newElideDevice(64)
	var fs FlushSet
	d.Store(8, 7)
	d.Flush(&fs, 8)
	d.Fence(&fs)
	tag := d.PersistEpoch()
	if d.persisted(8, tag) {
		t.Fatal("Persisted with a tag read after the fence: strict > violated")
	}
	// A tag from before the fence still proves the commit.
	if !d.persisted(8, tag-1) {
		t.Fatal("Persisted lost an earlier commit")
	}
}

func TestCommitTicketAndWaitPersisted(t *testing.T) {
	d := newElideDevice(64)
	var fs FlushSet
	tag := d.PersistEpoch()
	d.Store(8, 7)
	if got := d.commitTicket(8); got != 0 {
		t.Fatalf("ticket before any fence = %d, want 0", got)
	}
	d.Flush(&fs, 8)
	d.Fence(&fs)
	ticket := d.commitTicket(8)
	if ticket <= tag {
		t.Fatalf("ticket after fence = %d, want > %d", ticket, tag)
	}
	if !d.waitPersisted(8, ticket) {
		t.Fatal("waitPersisted on a completed fence's ticket")
	}
}

// TestEvictionDoesNotAdvanceWatermark is the soundness condition of the
// whole layer: the fault model's early eviction copies a line to media, but
// an eviction is not a guarantee, so Persisted must keep answering false.
func TestEvictionDoesNotAdvanceWatermark(t *testing.T) {
	d := newElideDevice(64)
	d.InjectFaults(NewFaultModel(1, FaultSpec{Evict: true}))
	tag := d.PersistEpoch()
	d.Store(8, 7)
	evicted := false
	for i := 0; i < 20*evictPeriod && !evicted; i++ {
		d.Load(8) // each op may evict the accessed line
		evicted = d.PersistedWord(8) == 7
	}
	if !evicted {
		t.Skip("seeded eviction never fired; adjust the seed")
	}
	if d.persisted(8, tag) {
		t.Fatal("early eviction advanced the persisted-epoch watermark")
	}

	// The test-only broken variant is the opposite pin: eviction falsely
	// advances the watermark past any current tag.
	b := newElideDevice(64)
	b.BreakWatermarkForTest()
	b.InjectFaults(NewFaultModel(1, FaultSpec{Evict: true}))
	tag = b.PersistEpoch()
	b.Store(8, 7)
	for i := 0; i < 20*evictPeriod && !b.persisted(8, tag); i++ {
		b.Load(8)
	}
	if !b.persisted(8, tag) {
		t.Fatal("broken variant did not advance the watermark on eviction")
	}
}

func TestRelaxedRegistryCommit(t *testing.T) {
	d := newElideDevice(64)
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
	_, _, _, relaxed := d.ElisionCounters()
	if relaxed != 3 {
		t.Fatalf("relaxed counter = %d, want 3", relaxed)
	}
}

// TestCrashClearsRegistryKeepsWatermark pins the crash semantics: the
// registry's obligations die with the volatile world (the lines' media
// fate was decided by the crash), while the watermark table survives —
// marks never exceed the epoch counter, so stale marks can never satisfy
// the strict inequality against a post-crash tag.
func TestCrashClearsRegistryKeepsWatermark(t *testing.T) {
	d := newElideDevice(64)
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
	if tag := d.PersistEpoch(); d.persisted(8, tag) {
		t.Fatal("stale watermark beats a post-crash tag")
	}
	if d.persisted(8, 0) != (d.PersistEpoch() > 0) {
		t.Fatal("watermark table lost across crash")
	}
}
