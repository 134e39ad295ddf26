//go:build linux || darwin

package pmem

import (
	"path/filepath"
	"testing"
)

// TestMediaFilePersistsFencedImage opens two devices over one file in
// sequence, simulating a process that dies (first device dropped without any
// crash call) and a successor that attaches. Only fenced writes may appear
// in the successor's media.
func TestMediaFilePersistsFencedImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "media.img")
	cfg := Config{Name: "nvmm", Words: 4 * WordsPerLine, Persistent: true, Track: true, MediaPath: path}

	d1 := New(cfg)
	var fs FlushSet
	d1.Store(8, 111) // line 1: flushed and fenced -> must survive
	d1.Flush(&fs, 8)
	d1.Fence(&fs)
	d1.Store(16, 222) // line 2: flushed, never fenced -> must not survive
	d1.Flush(&fs, 16)
	d1.Store(24, 333) // line 3: never even flushed -> must not survive
	// d1 is simply abandoned: no Crash, no Fence — the process "died".

	d2 := New(cfg)
	if got := d2.PersistedWord(8); got != 111 {
		t.Fatalf("fenced word: media = %d, want 111", got)
	}
	if got := d2.PersistedWord(16); got != 0 {
		t.Fatalf("flushed-unfenced word leaked into media: %d", got)
	}
	if got := d2.PersistedWord(24); got != 0 {
		t.Fatalf("unflushed word leaked into media: %d", got)
	}

	// The adopting device's cache view starts empty; Restore installs the
	// persisted image of a range as the current view, and only that range.
	if got := d2.Load(8); got != 0 {
		t.Fatalf("pre-restore cache view = %d, want 0", got)
	}
	d2.Restore(9, 3*WordsPerLine-1)
	if got := d2.Load(8); got != 0 {
		t.Fatalf("cache view of a word outside the restored range = %d, want 0", got)
	}
	d2.Restore(8, 1)
	if got := d2.Load(8); got != 111 {
		t.Fatalf("post-restore cache view = %d, want 111", got)
	}
	if got := d2.Load(16); got != 0 {
		t.Fatalf("post-restore cache view of unfenced word = %d, want 0", got)
	}
}

// TestMediaFileSizeMismatch pins the config-mismatch guard: adopting an
// existing file under a different device size must fail loudly, not
// silently reinterpret offsets.
func TestMediaFileSizeMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "media.img")
	New(Config{Name: "a", Words: 4 * WordsPerLine, Persistent: true, Track: true, MediaPath: path})
	defer func() {
		if recover() == nil {
			t.Fatal("size-mismatched media file adopted without panic")
		}
	}()
	New(Config{Name: "b", Words: 8 * WordsPerLine, Persistent: true, Track: true, MediaPath: path})
}

// TestMediaFileCrashStillWorks ensures the simulated Crash path (eviction
// adversary + view reset) operates identically over a file-backed media.
func TestMediaFileCrashStillWorks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "media.img")
	d := New(Config{Name: "nvmm", Words: 4 * WordsPerLine, Persistent: true, Track: true, MediaPath: path})
	var fs FlushSet
	d.Store(8, 7)
	d.Flush(&fs, 8)
	d.Fence(&fs)
	d.Store(9, 9) // unfenced: dropped by CrashDropAll
	d.Freeze()
	d.Crash(CrashDropAll, nil)
	if got := d.Load(8); got != 7 {
		t.Fatalf("fenced word after crash = %d, want 7", got)
	}
	if got := d.Load(9); got != 0 {
		t.Fatalf("unfenced word survived crash: %d", got)
	}
}

// TestColdViewRejectsUnrestoredReads pins the debug assertion that makes a
// partial restore safe: with debug checks on, a device that adopts a media
// file closes its gate, and every read of a word that was neither restored
// nor written since panics — where without the checks it would silently
// read zero over an image that may hold a dead object. Restore and a store
// make a word readable; a Crash resets the whole view and reopens the gate.
func TestColdViewRejectsUnrestoredReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "media.img")
	cfg := Config{Name: "nvmm", Words: 4 * WordsPerLine, Persistent: true, Track: true, MediaPath: path}
	d1 := New(cfg)
	var fs FlushSet
	for off := uint64(8); off < 24; off++ {
		d1.Store(off, off)
		d1.Flush(&fs, off)
	}
	d1.Fence(&fs)

	EnableDebugChecks()
	defer DisableDebugChecks()
	d := New(cfg)
	if d.fastOK(8) {
		t.Fatal("an adopted media file must close the gate under debug checks")
	}
	mustPanic := func(what string, access func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s of an unrestored word did not panic", what)
			}
		}()
		access()
	}
	mustPanic("Load", func() { d.Load(8) })
	mustPanic("LoadPair", func() { d.LoadPair(10) })
	mustPanic("CAS", func() { d.CAS(12, 0, 1) })
	mustPanic("CopyRange", func() { d.CopyRange(newTestDevice(64), 8, 4) })

	d.Restore(8, 3)
	if got := d.Load(9); got != 9 {
		t.Fatalf("restored word = %d, want 9", got)
	}
	mustPanic("LoadPair half outside the restored range", func() { d.LoadPair(10) })
	d.Restore(11, 1)
	if _, s := d.LoadPair(10); s != 11 {
		t.Fatalf("restored pair = %d, want 11", s)
	}
	d.Store(16, 7) // a write makes its word the view's own
	if got := d.Load(16); got != 7 {
		t.Fatalf("written word = %d, want 7", got)
	}
	mustPanic("Load", func() { d.Load(17) })

	d.Freeze()
	d.Crash(CrashDropAll, nil)
	if !d.fastOK(8) {
		t.Fatal("a crash resets the whole view and must reopen the gate")
	}
	if got := d.Load(17); got != 17 {
		t.Fatalf("word after crash = %d, want 17", got)
	}
}
