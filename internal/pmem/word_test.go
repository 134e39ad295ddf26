package pmem

// Tests for the device's unlocked accesses (word_amd64.go): the versioned
// pair read, the line copy of a fence and the init store. The FlushSet's
// owner-written counters are TestCountersExactUnderConcurrency's.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mirror/internal/dwcas"
)

// pairVal is the value a cell holds at version v in TestLoadPairNeverTorn:
// every version has its own value, so a read that pairs one version's value
// with another's version is caught.
func pairVal(v uint64) uint64 { return v*0x9e3779b97f4a7c15 ^ 0x5bd1e995 }

// TestLoadPairNeverTorn has writers DWCAS one cell from (f(v), v) to
// (f(v+1), v+1) while readers LoadPair it and check val == f(ver), on the
// native path and on the seqlock fallback. The fallback's writer stores the
// two words one at a time, so a fallback that used the native versioned
// read would pair a new value with the old version here.
func TestLoadPairNeverTorn(t *testing.T) {
	for _, fallback := range []bool{false, true} {
		t.Run(fmt.Sprintf("fallback=%v", fallback), func(t *testing.T) {
			if !fallback && !dwcas.Native() {
				t.Skip("no native DWCAS on this platform")
			}
			dwcas.SetFallback(fallback)
			defer dwcas.SetFallback(false)
			d := newTestDevice(64)
			const cell = 8
			if ok, _, _ := d.DWCAS(cell, 0, 0, pairVal(1), 1); !ok {
				t.Fatal("setup DWCAS failed")
			}
			const (
				writers = 2
				readers = 2
				writes  = 100000 // per writer
			)
			var stop atomic.Bool
			var torn atomic.Uint64
			var rd, wr sync.WaitGroup
			for r := 0; r < readers; r++ {
				rd.Add(1)
				go func() {
					defer rd.Done()
					for !stop.Load() {
						if val, ver := d.LoadPair(cell); val != pairVal(ver) {
							torn.Store(ver)
							return
						}
					}
				}()
			}
			for w := 0; w < writers; w++ {
				wr.Add(1)
				go func() {
					defer wr.Done()
					val, ver := d.LoadPair(cell)
					for i := 0; i < writes; {
						ok, cv, cs := d.DWCAS(cell, val, ver, pairVal(ver+1), ver+1)
						if ok {
							val, ver = pairVal(ver+1), ver+1
							i++
						} else {
							val, ver = cv, cs
						}
					}
				}()
			}
			wr.Wait()
			stop.Store(true)
			rd.Wait()
			if v := torn.Load(); v != 0 {
				t.Fatalf("LoadPair returned a value that is not version %d's", v)
			}
			if val, ver := d.LoadPair(cell); ver != 1+writers*writes || val != pairVal(ver) {
				t.Fatalf("final pair (%#x, %d), want version %d", val, ver, 1+writers*writes)
			}
		})
	}
}

// linePattern is the word goroutine g stores at word i of the line in round
// r of TestCommitLineConcurrentFences: distinct per goroutine, round and
// word.
func linePattern(g, r, i int) uint64 { return uint64(g+1)<<56 | uint64(r)<<8 | uint64(i) }

// TestCommitLineConcurrentFences has two goroutines commit the same line
// from two flush sets, each writing its own half of the line with its own
// pattern and riding whichever fence commits the line first. The first time
// persisted(off, tag) answers true, the media must already hold what the
// goroutine stored before it read tag — the watermark follows the copy — and
// at the end every media word equals its writer's last word.
func TestCommitLineConcurrentFences(t *testing.T) {
	d := New(Config{Name: "nvmm", Words: 64, Persistent: true, Track: true, Elide: true})
	const (
		line   = uint64(16)
		rounds = 20000
		half   = WordsPerLine / 2
	)
	var wg sync.WaitGroup
	var bad atomic.Value
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var fs FlushSet
			own := line + uint64(g*half)
			for r := 1; r <= rounds; r++ {
				for i := 0; i < half; i++ {
					d.Store(own+uint64(i), linePattern(g, r, i))
				}
				tag := d.PersistEpoch()
				d.Flush(&fs, own)
				// Poll tightly, so that when the other goroutine's fence
				// is the one that commits the line, the poll lands between
				// its watermark raise and anything after it.
				for spins := 0; !d.persisted(own, tag); spins++ {
					if spins == 1<<10 {
						d.Fence(&fs) // nobody else committed the line: commit it
					} else if spins%64 == 63 {
						runtime.Gosched()
					}
				}
				for i := 0; i < half; i++ {
					if got := d.PersistedWord(own + uint64(i)); got != linePattern(g, r, i) {
						bad.Store(fmt.Sprintf("round %d: Persisted answered true with media word %d = %#x, want %#x",
							r, own+uint64(i), got, linePattern(g, r, i)))
						return
					}
				}
			}
			d.Fence(&fs)
		}(g)
	}
	wg.Wait()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	for g := 0; g < 2; g++ {
		for i := 0; i < half; i++ {
			off := line + uint64(g*half+i)
			if got, want := d.PersistedWord(off), linePattern(g, rounds, i); got != want {
				t.Errorf("media word %d = %#x, want %#x", off, got, want)
			}
		}
	}
}

// TestStoreInitIsAStore checks that the init store writes the view, counts
// as a store in a counted pass, and panics on a frozen device and on a bad
// offset like Store.
func TestStoreInitIsAStore(t *testing.T) {
	d := newTestDevice(64)
	d.StoreInit(9, 42)
	if got := d.Load(9); got != 42 {
		t.Fatalf("Load after StoreInit = %d, want 42", got)
	}
	got := Count([]*Device{d}, func() { d.StoreInit(10, 1) })[0]
	if got.Stores != 1 || got.Loads != 0 {
		t.Errorf("counted StoreInit tallied %d stores, %d loads; want 1, 0", got.Stores, got.Loads)
	}
	for name, off := range map[string]uint64{"reserved offset": 0, "past the end": 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StoreInit at the %s did not panic", name)
				}
			}()
			d.StoreInit(off, 1)
		}()
	}
	d.Freeze()
	defer func() {
		if r := recover(); r != ErrFrozen {
			t.Errorf("StoreInit on a frozen device: recover = %v, want ErrFrozen", r)
		}
	}()
	d.StoreInit(9, 43)
}

func BenchmarkDeviceStore(b *testing.B) {
	d := newTestDevice(1024)
	for i := 0; i < b.N; i++ {
		d.Store(9, uint64(i))
	}
}

func BenchmarkDeviceStoreInit(b *testing.B) {
	d := newTestDevice(1024)
	for i := 0; i < b.N; i++ {
		d.StoreInit(9, uint64(i))
	}
}

// pairSink keeps the benchmarked pair reads alive.
var pairSink uint64

func BenchmarkDeviceLoadPair(b *testing.B) {
	d := newTestDevice(1024)
	d.DWCAS(8, 0, 0, 1, 1)
	for i := 0; i < b.N; i++ {
		v, _ := d.LoadPair(8)
		pairSink += v
	}
}

// TestLineEqual checks the line compare a crash skips clean lines with: equal
// lines compare equal, and a difference in any one of the eight words, in
// any bit, does not.
func TestLineEqual(t *testing.T) {
	a, b := alignedWords(2*WordsPerLine), alignedWords(2*WordsPerLine)
	for i := range a {
		a[i], b[i] = uint64(i)*0x9e3779b97f4a7c15, uint64(i)*0x9e3779b97f4a7c15
	}
	for base := 0; base < len(a); base += WordsPerLine {
		if !lineEqual(&a[base], &b[base]) {
			t.Fatalf("equal lines at %d compare unequal", base)
		}
		for w := base; w < base+WordsPerLine; w++ {
			for _, bit := range []uint{0, 31, 63} {
				b[w] ^= 1 << bit
				if lineEqual(&a[base], &b[base]) {
					t.Errorf("lines differing in word %d bit %d compare equal", w-base, bit)
				}
				b[w] ^= 1 << bit
			}
		}
	}
}
