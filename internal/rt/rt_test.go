package rt

import (
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
