package mirror

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mirror/internal/engine"
	"mirror/internal/patomic"
	"mirror/internal/pmem"
	"mirror/internal/structures"
	"mirror/internal/structures/skiplist"
)

// openAll opens path and creates, in one fixed order, the four sets and the
// queue: on a reopened file that order adopts what the last run created.
func openAll(t *testing.T, path string, opts Options) (*Runtime, *Ctx, []Set, *Queue) {
	t.Helper()
	rt, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := rt.NewCtx()
	sets, q := all(rt, c)
	return rt, c, sets, q
}

func all(rt *Runtime, c *Ctx) ([]Set, *Queue) {
	return []Set{rt.NewList(c), rt.NewHashTable(c, 64), rt.NewSkipList(c), rt.NewBST(c)}, rt.NewQueue(c)
}

// TestOpenReattach writes all four sets and the queue through a
// file-backed runtime, ends it without a drain — the deletes' relaxed
// auxiliary updates (skip list upper levels, tree excisions) may be missing
// from the file, as after kill -9 — and reopens it: the reopened runtime
// sees the same contents, and its recovery — the skip list's relinking
// trace, the BST's repair pass — leaves every structure fully operational,
// deleted keys re-insertable included.
func TestOpenReattach(t *testing.T) {
	path := filepath.Join(t.TempDir(), "media")
	opts := Options{Words: 1 << 18}
	rt, c, sets, q := openAll(t, path, opts)
	if rt.Attached() {
		t.Fatal("fresh file attached")
	}
	for i, s := range sets {
		for k := uint64(1); k <= 60; k++ {
			s.Insert(c, k, k*10+uint64(i))
		}
		for k := uint64(1); k <= 60; k += 2 {
			s.Delete(c, k)
		}
	}
	for v := uint64(1); v <= 10; v++ {
		q.Enqueue(c, v)
	}
	q.Dequeue(c)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	// Without the relinked towers and the BST's repair pass the reopen
	// itself can spin forever on a half-deleted node, so it runs under a
	// watchdog.
	done := make(chan error, 1)
	go func() { done <- reopenAndCheck(path, opts) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("reopen hangs: a repair pass did not run")
	}
}

func reopenAndCheck(path string, opts Options) error {
	rt, err := Open(path, opts)
	if err != nil {
		return err
	}
	defer rt.Close()
	if !rt.Attached() {
		return fmt.Errorf("reopened file did not attach")
	}
	c := rt.NewCtx()
	sets, q := all(rt, c)
	for i, s := range sets {
		for k := uint64(1); k <= 60; k++ {
			v, ok := s.Get(c, k)
			if want := k%2 == 0; ok != want || (ok && v != k*10+uint64(i)) {
				return fmt.Errorf("%s key %d after reopen: (%d, %v), want present=%v", s.Name(), k, v, ok, want)
			}
		}
		for k := uint64(1); k <= 60; k += 2 {
			if !s.Insert(c, k, 1) || !s.Contains(c, k) || !s.Delete(c, k) || s.Contains(c, k) {
				return fmt.Errorf("%s: deleted key %d not re-insertable after reopen", s.Name(), k)
			}
		}
	}
	if got := q.Drain(c); len(got) != 9 || got[0] != 2 || got[8] != 10 {
		return fmt.Errorf("queue after reopen = %v, want 2..10", got)
	}
	return nil
}

// TestOpenRefusesDifferentConfiguration: other geometry, an image written
// before the sidecar recorded its root layout, and a structure of another
// kind at a recorded root are all refused, never adopted.
func TestOpenRefusesDifferentConfiguration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "media")
	opts := Options{Words: 1 << 18}
	rt, _, _, _ := openAll(t, path, opts)
	rt.Close()
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "different configuration") {
			t.Errorf("%s: error %v, want the different-configuration refusal", what, err)
		}
	}
	_, err := Open(path, Options{Words: 1 << 19})
	refused("other Words", err)
	_, err = Open(path, Options{Kind: Izraelevitz, Words: 1 << 18})
	refused("other Kind", err)

	rt, err = Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			err, _ := recover().(error)
			refused("a queue where a list was recorded", err)
		}()
		rt.NewQueue(rt.NewCtx())
	}()
	rt.Close()

	rewriteSidecar(t, path, func(m map[string]any) { delete(m, "roots") })
	_, err = Open(path, opts)
	refused("no root record", err)
}

// TestOpenRefusesOldNodeLayout: a sidecar without a node-layout version was
// written when every field was a cell, so its image would be misread under
// plain words; it is refused like any other configuration mismatch.
func TestOpenRefusesOldNodeLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "media")
	opts := Options{Words: 1 << 18}
	rt, _, _, _ := openAll(t, path, opts)
	rt.Close()
	rewriteSidecar(t, path, func(m map[string]any) {
		if _, ok := m["layout"]; !ok {
			t.Fatal("the sidecar records no node layout")
		}
		delete(m, "layout")
	})
	if _, err := Open(path, opts); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("old-layout sidecar: error %v, want the different-configuration refusal", err)
	}
}

// rewriteSidecar applies edit to the JSON of path's sidecar.
func rewriteSidecar(t *testing.T, path string, edit func(map[string]any)) {
	t.Helper()
	sidecar := path + ".meta"
	raw, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sidecar, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenWipesMediaWithoutSidecar: without its sidecar an image is garbage
// (a crash before the roots were durable), so Open starts fresh.
func TestOpenWipesMediaWithoutSidecar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "media")
	opts := Options{Words: 1 << 18}
	rt, c, sets, _ := openAll(t, path, opts)
	sets[0].Insert(c, 7, 7)
	rt.Close()
	if err := os.Remove(path + ".meta"); err != nil {
		t.Fatal(err)
	}
	rt, c, sets, q := openAll(t, path, opts)
	defer rt.Close()
	if rt.Attached() || sets[0].Contains(c, 7) || q.Len(c) != 0 {
		t.Fatalf("media without a sidecar was adopted (attached %v)", rt.Attached())
	}
}

// TestOpenAdoptsRecordedEmptyRoot: a process killed after the sidecar
// recorded a structure but before its root store leaves a recorded root
// that is still zero. The next Open adopts it empty, the constructor that
// owns it initializes it, and the run after that finds it populated.
func TestOpenAdoptsRecordedEmptyRoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "media")
	opts := Options{Words: 1 << 18}
	rt, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := rt.NewCtx()
	rt.NewBST(c).Insert(c, 1, 1)
	rt.Close()

	// Record a hash table at fields 1-2, as its constructor does before
	// storing the root, and stop there.
	rewriteSidecar(t, path, func(m map[string]any) {
		m["roots"] = append(m["roots"].([]any), map[string]any{"kind": "hashtable", "field": 1})
	})

	for run := 0; run < 2; run++ {
		rt, err := Open(path, opts)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		c := rt.NewCtx()
		tree, table := rt.NewBST(c), rt.NewHashTable(c, 64)
		if !tree.Contains(c, 1) {
			t.Fatalf("run %d: tree lost key 1", run)
		}
		if got := table.Contains(c, 5); got != (run == 1) {
			t.Fatalf("run %d: table holds key 5 = %v", run, got)
		}
		table.Insert(c, 5, 5)
		rt.Close()
	}
}

// TestOpenRestoresOnlyLive pins what an attach copies. The file holds every
// structure with most of its keys deleted, so its image is mostly dead
// objects. Reopened, the persistent device's view holds the media's words
// where recovery reached and zero everywhere else: the dead objects are
// never copied. The one exception is the skip list's links above level 0 on
// its head and its level-0 nodes, which no recovery copy covers: the trace
// writes them, without persisting, into the view reads see — the device on
// the direct engines, rep_v on Mirror, where rep_p's view of them stays
// zero. Debug checks are on for the reopen and everything after
// it, so any read of a word that was neither restored nor written since —
// code that would have seen a dead object's word under a whole-image copy
// and now sees zero — panics (pmem's cold view). The reopened runtime then
// reinserts every deleted key into the reclaimed memory, and a second
// reopen serves all of them.
func TestOpenRestoresOnlyLive(t *testing.T) {
	for _, kind := range []Kind{MirrorDRAM, MirrorNVMM, Izraelevitz, NVTraverse} {
		t.Run(kind.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "media")
			opts := Options{Kind: kind, Words: 1 << 16}
			const keys = 300
			rt, c, sets, q := openAll(t, path, opts)
			for i, s := range sets {
				for k := uint64(1); k <= keys; k++ {
					s.Insert(c, k, k*10+uint64(i))
				}
				for k := uint64(1); k <= keys; k++ {
					if k%10 != 0 {
						s.Delete(c, k)
					}
				}
			}
			for v := uint64(1); v <= 50; v++ {
				q.Enqueue(c, v)
			}
			for v := 0; v < 40; v++ {
				q.Dequeue(c)
			}
			rt.Close()

			pmem.EnableDebugChecks()
			defer pmem.DisableDebugChecks()
			rt, c, sets, q = openAll(t, path, opts)
			dev := engine.PersistentDevices(rt.Engine())[0]
			rebuilt := accelerators(rt, c)
			dead := 0
			for off := uint64(1); off < uint64(dev.Size()); off++ {
				view, media := dev.ReadRaw(off), dev.PersistedWord(off)
				if view != 0 && view != media && !rebuilt[off] {
					t.Fatalf("word %d: view %d, media %d after attach", off, view, media)
				}
				if view == 0 && media != 0 {
					dead++
				}
			}
			if dead == 0 {
				t.Fatal("attach copied the dead objects too: no media word was left out of the view")
			}
			if r := rt.Recovery(); r.LiveWords == 0 || r.LiveWords >= uint64(r.Words) || r.Recover <= 0 || r.Verify <= 0 ||
				r.Objects == 0 || 4*r.Objects > r.LiveWords {
				t.Fatalf("attach report %+v: want a recover and a verify phase, 0 < live words < capacity and objects of 4 words or more", r)
			}
			for i, s := range sets {
				for k := uint64(1); k <= keys; k++ {
					v, ok := s.Get(c, k)
					if want := k%10 == 0; ok != want || (ok && v != k*10+uint64(i)) {
						t.Fatalf("%s key %d after reopen: (%d, %v), want present=%v", s.Name(), k, v, ok, want)
					}
					if !ok && !s.Insert(c, k, k*10+uint64(i)) {
						t.Fatalf("%s: deleted key %d not re-insertable after reopen", s.Name(), k)
					}
				}
			}
			if got := q.Drain(c); len(got) != 10 || got[0] != 41 {
				t.Fatalf("queue after reopen = %v, want 41..50", got)
			}
			q.Enqueue(c, 51)
			rt.Close()

			rt, c, sets, q = openAll(t, path, opts)
			defer rt.Close()
			for i, s := range sets {
				for k := uint64(1); k <= keys; k++ {
					if v, ok := s.Get(c, k); !ok || v != k*10+uint64(i) {
						t.Fatalf("%s key %d after the second reopen: (%d, %v)", s.Name(), k, v, ok)
					}
				}
			}
			if got := q.Drain(c); len(got) != 1 || got[0] != 51 {
				t.Fatalf("queue after the second reopen = %v, want [51]", got)
			}
		})
	}
}

// accelerators returns the words of the skip list's links above level 0 on
// its head and on every unmarked node of its level-0 chain: the trace of an
// attach relinks them without persisting the new values. The skip
// list is at root field 3, where openAll puts it (after the list's field and
// the hash table's two); its links above level 0 are plain words, one word
// each after the node's cells.
func accelerators(rt *Runtime, c *Ctx) map[uint64]bool {
	const rootField = 3
	e := rt.Engine()
	cell := uint64(1)
	if k := rt.Kind(); k == MirrorDRAM || k == MirrorNVMM {
		cell = patomic.CellWords
	}
	words := map[uint64]bool{}
	tower := func(n uint64) {
		for i := 1; i < skiplist.Height(e.TraversalLoad(c, n, skiplist.FieldTop)); i++ {
			f := skiplist.Link(i)
			words[n+uint64(f/engine.Plain)*cell+uint64(f%engine.Plain)] = true
		}
	}
	head := e.TraversalLoad(c, engine.Root, rootField)
	tower(head)
	for n := structures.Unmark(e.TraversalLoad(c, head, skiplist.FieldNext)); n != 0; {
		next := e.TraversalLoad(c, n, skiplist.FieldNext)
		if !structures.Marked(next) {
			tower(n)
		}
		n = structures.Unmark(next)
	}
	return words
}
