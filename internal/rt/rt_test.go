package rt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
	lost := r.eng.TraversalLoad(c, engine.Root, 2) == 0
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

// TestSidecarRecordsDefaults: a zero config field and its engine default
// name the same layout. An image opened with Words and DetectRing zero
// reattaches under the defaults spelled out and the other way round, a
// sidecar that recorded the zero fields — as one written before the runtime
// defaulted its config did — still attaches, and another ring is refused.
func TestSidecarRecordsDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "media")
	zero := engine.Config{Kind: engine.MirrorDRAM, RootFields: 8, Track: true, Clients: 2, MediaPath: path}
	full := zero
	full.Words, full.DetectRing = 1<<20, engine.DefaultDetectRing
	reopen := func(what string, cfg engine.Config) {
		t.Helper()
		r, err := Open(cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !r.Attached() || r.Recovery().Words != full.Words {
			t.Errorf("%s: attached %v over %d words, want an attach over %d", what, r.Attached(), r.Recovery().Words, full.Words)
		}
		if n := r.NewSkipList(r.NewCtx()).(walker).Len(r.NewCtx()); n != 10 {
			t.Errorf("%s: attach serves %d keys, want 10", what, n)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}

	r, err := Open(zero)
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCtx()
	set := r.NewSkipList(c)
	for k := uint64(1); k <= 10; k++ {
		set.Insert(c, k, k)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	reopen("defaults spelled out", full)
	reopen("defaults left zero", zero)

	var sc map[string]any
	raw, err := os.ReadFile(SidecarPath(path))
	if err == nil {
		err = json.Unmarshal(raw, &sc)
	}
	if err != nil {
		t.Fatal(err)
	}
	if sc["words"] != float64(full.Words) || sc["ring"] != float64(full.DetectRing) {
		t.Errorf("the sidecar records words %v and ring %v, want the defaults %d and %d",
			sc["words"], sc["ring"], full.Words, full.DetectRing)
	}
	sc["words"], sc["ring"] = 0, 0
	if raw, err = json.Marshal(sc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SidecarPath(path), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	reopen("a sidecar with zero fields", full)

	other := full
	other.DetectRing = 4
	if _, err := Open(other); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("reopening with ring 4 over ring %d: err %v, want a refusal", full.DetectRing, err)
	}
}

// TestOpenRefusesTooSmallDevice: a device that cannot hold the roots, the
// descriptor region and one allocator chunk is refused with an error, not a
// panic, and leaves no media behind.
func TestOpenRefusesTooSmallDevice(t *testing.T) {
	dir := t.TempDir()
	for _, cfg := range []engine.Config{
		{Kind: engine.MirrorDRAM, Words: 1000},
		{Kind: engine.Izraelevitz, Words: -5},
		{Kind: engine.MirrorDRAM, Words: 1 << 16, Clients: 64, DetectRing: engine.MaxDetectRing},
		{Kind: engine.NVTraverse, Words: 1 << 16, Clients: 1, DetectRing: engine.MaxDetectRing + 1},
		{Kind: engine.MirrorNVMM, Words: 1000, Track: true, MediaPath: filepath.Join(dir, "media")},
	} {
		if r, err := Open(cfg); err == nil {
			r.Close()
			t.Errorf("%+v: opened", cfg)
		}
	}
	if names, _ := os.ReadDir(dir); len(names) != 0 {
		t.Errorf("a refused Open left %d files behind", len(names))
	}
	// The descriptor region is what the third row could not hold.
	r, err := Open(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 17, Clients: 64, DetectRing: engine.MaxDetectRing})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// TestOpenRefusesOtherNodeLayout: a sidecar that records another node
// layout — the untagged layout 1 an older runtime wrote, or a newer one —
// is refused by the same mismatch rule as any other geometry, and the
// image is left alone: it reattaches once the sidecar is restored.
func TestOpenRefusesOtherNodeLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "media")
	cfg := engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 16, RootFields: 8, Track: true, Clients: 1, MediaPath: path}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCtx()
	set := r.NewSkipList(c)
	for k := uint64(1); k <= 4; k++ {
		set.Insert(c, k, k)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(SidecarPath(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []int{layoutVersion - 1, layoutVersion + 1} {
		var sc map[string]any
		if err := json.Unmarshal(good, &sc); err != nil {
			t.Fatal(err)
		}
		if sc["layout"] != float64(layoutVersion) {
			t.Fatalf("the sidecar records layout %v, want %d", sc["layout"], layoutVersion)
		}
		sc["layout"] = layout
		raw, err := json.Marshal(sc)
		if err == nil {
			err = os.WriteFile(SidecarPath(path), raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		if r, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "different configuration") {
			if err == nil {
				r.Close()
			}
			t.Errorf("a sidecar of layout %d: error %v, want the different-configuration refusal", layout, err)
		}
	}
	if err := os.WriteFile(SidecarPath(path), good, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err = Open(cfg)
	if err != nil {
		t.Fatalf("the restored sidecar: %v", err)
	}
	if n := r.NewSkipList(r.NewCtx()).(walker).Len(r.NewCtx()); n != 4 {
		t.Errorf("reattach serves %d keys, want 4", n)
	}
	r.Close()
}
