package dwcas

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

// alignedPair returns a 16-byte aligned [2]uint64.
func alignedPair(t testing.TB) *[2]uint64 {
	t.Helper()
	// A [4]uint64 always contains a 16-byte aligned window of 2 words.
	buf := new([4]uint64)
	p := (*[2]uint64)(unsafe.Pointer(buf))
	if !Aligned(p) {
		p = (*[2]uint64)(unsafe.Pointer(&buf[1]))
	}
	if !Aligned(p) {
		t.Fatal("could not produce a 16-byte aligned pair")
	}
	return p
}

// eachPath runs f under both the native and fallback implementations.
func eachPath(t *testing.T, f func(t *testing.T)) {
	t.Run("native", func(t *testing.T) {
		if !Native() {
			t.Skip("no native DWCAS on this platform")
		}
		f(t)
	})
	t.Run("fallback", func(t *testing.T) {
		SetFallback(true)
		defer SetFallback(false)
		f(t)
	})
}

func TestAligned(t *testing.T) {
	p := alignedPair(t)
	if !Aligned(p) {
		t.Error("alignedPair returned an unaligned pair")
	}
}

func TestCASSuccess(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		p := alignedPair(t)
		p[0], p[1] = 5, 2
		ok, c0, c1 := CompareAndSwap(p, 5, 2, 10, 3)
		if !ok {
			t.Fatal("CAS should succeed")
		}
		if c0 != 5 || c1 != 2 {
			t.Errorf("observed (%d,%d), want old value (5,2)", c0, c1)
		}
		if p[0] != 10 || p[1] != 3 {
			t.Errorf("memory (%d,%d), want (10,3)", p[0], p[1])
		}
	})
}

func TestCASFailure(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		p := alignedPair(t)
		p[0], p[1] = 7, 9
		ok, c0, c1 := CompareAndSwap(p, 7, 8, 1, 2)
		if ok {
			t.Fatal("CAS should fail on mismatched second word")
		}
		if c0 != 7 || c1 != 9 {
			t.Errorf("observed (%d,%d), want current (7,9)", c0, c1)
		}
		if p[0] != 7 || p[1] != 9 {
			t.Errorf("memory modified on failed CAS: (%d,%d)", p[0], p[1])
		}
		ok, _, _ = CompareAndSwap(p, 6, 9, 1, 2)
		if ok {
			t.Fatal("CAS should fail on mismatched first word")
		}
	})
}

func TestLoad(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		p := alignedPair(t)
		p[0], p[1] = 0xdeadbeef, 42
		v0, v1 := Load(p)
		if v0 != 0xdeadbeef || v1 != 42 {
			t.Errorf("Load = (%#x,%d), want (0xdeadbeef,42)", v0, v1)
		}
		// A zero pair (unversioned memory) reads back as zero.
		p[0], p[1] = 0, 0
		v0, v1 = Load(p)
		if v0 != 0 || v1 != 0 {
			t.Errorf("Load of zero = (%d,%d)", v0, v1)
		}
	})
}

func TestStore(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		p := alignedPair(t)
		Store(p, 11, 22)
		if p[0] != 11 || p[1] != 22 {
			t.Errorf("Store left (%d,%d)", p[0], p[1])
		}
	})
}

func TestCASQuickRoundTrip(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		p := alignedPair(t)
		f := func(a, b, c, d uint64) bool {
			Store(p, a, b)
			ok, c0, c1 := CompareAndSwap(p, a, b, c, d)
			if !ok || c0 != a || c1 != b {
				return false
			}
			v0, v1 := Load(p)
			return v0 == c && v1 == d
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestCASAtomicityStress has writers incrementing the pair in lock step
// (both words always move together) while readers verify they never observe
// a torn pair. This is the property Mirror's seq/value pairing depends on.
func TestCASAtomicityStress(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		p := alignedPair(t)
		const iters = 20000
		writers := runtime.GOMAXPROCS(0)
		if writers > 8 {
			writers = 8
		}
		var stop atomic.Bool
		var torn atomic.Int64
		var readers, writersWG sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for !stop.Load() {
					v0, v1 := Load(p)
					if v0 != v1 {
						torn.Add(1)
						return
					}
				}
			}()
		}
		var total atomic.Int64
		for w := 0; w < writers; w++ {
			writersWG.Add(1)
			go func() {
				defer writersWG.Done()
				for total.Add(1) <= iters {
					for {
						c0, c1 := Load(p)
						if ok, _, _ := CompareAndSwap(p, c0, c1, c0+1, c1+1); ok {
							break
						}
					}
				}
			}()
		}
		writersWG.Wait()
		stop.Store(true)
		readers.Wait()
		if torn.Load() != 0 {
			t.Fatalf("observed %d torn pair reads", torn.Load())
		}
		if p[0] != p[1] {
			t.Fatalf("final pair torn: (%d,%d)", p[0], p[1])
		}
		if p[0] < iters {
			t.Fatalf("final count %d, want >= %d", p[0], iters)
		}
	})
}

// TestCASContention verifies that exactly one of N racing CASes from the
// same expected value wins.
func TestCASContention(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		for round := 0; round < 200; round++ {
			p := alignedPair(t)
			p[0], p[1] = 1, 1
			const racers = 8
			var wins atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < racers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if ok, _, _ := CompareAndSwap(p, 1, 1, uint64(100+i), 2); ok {
						wins.Add(1)
					}
				}(i)
			}
			wg.Wait()
			if wins.Load() != 1 {
				t.Fatalf("round %d: %d winners, want 1", round, wins.Load())
			}
			if p[1] != 2 || p[0] < 100 || p[0] >= 100+racers {
				t.Fatalf("round %d: unexpected final value (%d,%d)", round, p[0], p[1])
			}
		}
	})
}

func BenchmarkCASNative(b *testing.B) {
	if !Native() {
		b.Skip("no native DWCAS")
	}
	p := alignedPair(b)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c0, c1 := Load(p)
			CompareAndSwap(p, c0, c1, c0+1, c1+1)
		}
	})
}

func BenchmarkCASFallback(b *testing.B) {
	SetFallback(true)
	defer SetFallback(false)
	p := alignedPair(b)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c0, c1 := Load(p)
			CompareAndSwap(p, c0, c1, c0+1, c1+1)
		}
	})
}

// loadSink keeps the benchmarked reads alive.
var loadSink uint64

// BenchmarkLoad reads one quiet pair: the native path is three plain loads,
// the fallback two between two reads of its stripe.
func BenchmarkLoad(b *testing.B) {
	for _, fallback := range []bool{false, true} {
		name := "native"
		if fallback {
			name = "fallback"
		}
		b.Run(name, func(b *testing.B) {
			if !fallback && !Native() {
				b.Skip("no native DWCAS")
			}
			SetFallback(fallback)
			defer SetFallback(false)
			p := alignedPair(b)
			CompareAndSwap(p, 0, 0, 1, 1)
			for i := 0; i < b.N; i++ {
				v, _ := Load(p)
				loadSink += v
			}
		})
	}
}
