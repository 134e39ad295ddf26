package engine

import (
	"sync"
	"testing"

	"mirror/internal/pmem"
)

// The test objects are one cell (field 0) and then one plain word.
const (
	word     = Plain     // the plain word's field index
	cellWord = Plain + 1 // the objects' size
)

// TestRebuiltCASAccounting pins Mirror's rebuilt write: one word CAS on
// rep_v that never reads or writes rep_p, flushes, fences or registers
// nothing, is visible at once, and leaves the media — and rep_p's view — at
// the StoreInit value. Concurrent CASes on one word all land. The subtest
// names the policy: rep_p carries the flush-elision watermark.
func TestRebuiltCASAccounting(t *testing.T) {
	t.Run("elide=on", func(t *testing.T) {
		e := New(Config{Kind: MirrorDRAM, Words: 1 << 16, Track: true})
		c := e.NewCtx()
		e.OpBegin(c)
		ref := e.Alloc(c, cellWord)
		e.StoreInit(c, ref, 0, 0)
		e.StoreInit(c, ref, word, 5)
		e.Publish(c, ref)
		e.Store(c, Root, 0, ref)
		e.OpEnd(c)
		e.Drain(c)

		pristine := func(what string, fn func()) {
			t.Helper()
			f0, n0 := e.Counters()
			r0 := e.Stats().RelaxedCAS
			got := pmem.Count(e.Devices(), fn)
			if p := got[0]; p.Loads != 0 || p.Stores != 0 {
				t.Errorf("%s touched rep_p: %d loads, %d stores", what, p.Loads, p.Stores)
			}
			if f, n := e.Counters(); f != f0 || n != n0 || e.Stats().RelaxedCAS != r0 {
				t.Errorf("%s cost %d flushes, %d fences, %d relaxed installs; want none",
					what, f-f0, n-n0, e.Stats().RelaxedCAS-r0)
			}
			if got := recoveryLoad(e)(ref, word); got != 5 {
				t.Errorf("%s reached rep_p: %d, want the StoreInit 5", what, got)
			}
			if got := e.Devices()[0].PersistedWord(mirrorAddr(ref, word)); got != 5 {
				t.Errorf("%s reached the media: %d, want the StoreInit 5", what, got)
			}
		}

		e.OpBegin(c)
		pristine("rebuilt CAS", func() {
			if !e.CASRebuilt(c, ref, word, 5, 10) || e.CASRebuilt(c, ref, word, 5, 11) {
				t.Fatal("CASRebuilt 5->10 must succeed and 5->11 then fail")
			}
		})
		if got := e.TraversalLoad(c, ref, word); got != 10 {
			t.Fatalf("rebuilt install not visible: %d", got)
		}
		e.OpEnd(c)

		const workers, adds = 4, 500
		pristine("concurrent rebuilt CASes", func() {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					wc := e.NewCtx()
					defer wc.Close()
					e.OpBegin(wc)
					defer e.OpEnd(wc)
					for i := 0; i < adds; i++ {
						for cur := e.Load(wc, ref, word); !e.CASRebuilt(wc, ref, word, cur, cur+1); cur = e.Load(wc, ref, word) {
						}
					}
				}()
			}
			wg.Wait()
		})
		e.OpBegin(c)
		if got := e.Load(c, ref, word); got != 10+workers*adds {
			t.Errorf("after %d concurrent increments: %d, want %d", workers*adds, got, 10+workers*adds)
		}
		e.OpEnd(c)
		if msg := e.CheckInvariants(ref, cellWord); msg != "" {
			t.Error(msg)
		}
	})
}

// TestPlainWordWritesPanic pins both obligations under pmem debug checks, on
// every engine: Store, CAS and CASRelaxed on a plain word panic
// (W1: nothing writes a write-once word after its publish), and so does
// CASRebuilt on a cell (W2: a rebuilt word lives outside the Figure 4 loop).
// Without debug checks neither is checked.
func TestPlainWordWritesPanic(t *testing.T) {
	pmem.EnableDebugChecks()
	defer pmem.DisableDebugChecks()
	forEachKind(t, func(t *testing.T, k Kind, e Engine) {
		c := e.NewCtx()
		e.OpBegin(c)
		defer e.OpEnd(c)
		ref := e.Alloc(c, cellWord)
		e.StoreInit(c, ref, 0, 1)
		e.StoreInit(c, ref, word, 1)
		e.Publish(c, ref)
		for name, write := range map[string]func(){
			"Store":      func() { e.Store(c, ref, word, 2) },
			"CAS":        func() { e.CAS(c, ref, word, 1, 2) },
			"CASRelaxed": func() { e.CASRelaxed(c, ref, word, 1, 2) },
			"CASRebuilt": func() { e.CASRebuilt(c, ref, 0, 1, 2) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on the wrong kind of field did not panic", name)
					}
				}()
				write()
			}()
		}
		if e.Load(c, ref, 0) != 1 || e.Load(c, ref, word) != 1 {
			t.Error("a refused write changed a field")
		}
		if !e.CAS(c, ref, 0, 1, 2) || !e.CASRebuilt(c, ref, word, 1, 2) {
			t.Error("a write of the right kind failed")
		}
	})
}

// TestWordLayout pins the field-to-word map: cells first at the engine's
// cell width, then plain words one word each, and a size is the words of
// everything below it.
func TestWordLayout(t *testing.T) {
	for _, tc := range []struct {
		f, cw, want int
	}{
		{0, 2, 0}, {3, 2, 6}, {3, 1, 3},
		{2 * Plain, 2, 4}, {2*Plain + 5, 2, 9}, {2*Plain + 5, 1, 7},
		{cellWord, 2, 3}, {word, 2, 2},
	} {
		if got := span(tc.f, tc.cw); got != tc.want {
			t.Errorf("span(%d*Plain+%d, %d) = %d, want %d", tc.f/Plain, tc.f%Plain, tc.cw, got, tc.want)
		}
	}
}
