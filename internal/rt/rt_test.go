package rt

import (
	"path/filepath"
	"runtime"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures"
)

// TestRecoverForgetsLostRoots: a root the crash left unset holds no
// structure, so At after Recover initializes a fresh one instead of handing
// back the pre-crash handle, whose nodes recovery reclaimed. The root is
// lost through an engine that skips its own-install flush.
func TestRecoverForgetsLostRoots(t *testing.T) {
	r, err := OpenWith(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 16, RootFields: 8, Track: true},
		func(cfg engine.Config) engine.Engine { return engine.NewBroken(cfg, engine.BugDropOwnFlush) })
	if err != nil {
		t.Fatal(err)
	}
	old, err := r.At(r.NewCtx(), "bst", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Crash(pmem.CrashDropAll, 1)
	r.Recover()
	c := r.NewCtx()
	r.eng.OpBegin(c)
	lost := r.eng.TraversalLoad(c, r.eng.RootRef(), 2) == 0
	r.eng.OpEnd(c)
	if !lost {
		t.Fatal("the crash kept the root: nothing to test")
	}
	h, err := r.At(c, "bst", 2, 0)
	if err != nil || h == old {
		t.Fatalf("At after losing the root returned the pre-crash handle (err %v)", err)
	}
	if set := h.(structures.Set); !set.Insert(c, 7, 7) || !set.Contains(c, 7) {
		t.Fatal("the reinitialized tree does not work")
	}
}

// TestReportWorkers pins the worker count each recovery reports: an attach
// recovers at GOMAXPROCS workers, so its copy and allocator scan overlap the
// trace, and an in-process Recover stays at one.
func TestReportWorkers(t *testing.T) {
	cfg := engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 16, RootFields: 8, Track: true,
		MediaPath: filepath.Join(t.TempDir(), "media")}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCtx()
	set := r.NewSkipList(c)
	for k := uint64(1); k <= 100; k++ {
		set.Insert(c, k, k)
	}
	r.Crash(pmem.CrashDropAll, 1)
	r.Recover()
	if got := r.Recovery().Workers; got != 1 {
		t.Errorf("Recover reports %d workers, want 1", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 3} {
		prev := runtime.GOMAXPROCS(procs)
		a, err := Open(cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Attached() || a.Recovery().Workers != procs {
			t.Errorf("GOMAXPROCS %d: attached %v at %d workers", procs, a.Attached(), a.Recovery().Workers)
		}
		if n := a.NewSkipList(a.NewCtx()).(walker).Len(a.NewCtx()); n != 100 {
			t.Errorf("GOMAXPROCS %d: attach serves %d keys, want 100", procs, n)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
