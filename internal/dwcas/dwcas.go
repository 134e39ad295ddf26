// Package dwcas provides a double-word (128-bit) compare-and-swap and a
// 128-bit load over a pair of adjacent uint64 words.
//
// Mirror (PLDI 2021, §4.1.2) relies on a hardware DWCAS instruction to
// update a value and its sequence number atomically. On amd64 this package
// uses the real CMPXCHG16B instruction via a small assembly routine, so the
// lock-freedom of the transformation is preserved end to end. On other
// platforms (or when forced with SetFallback) a striped seqlock emulation is
// used; the emulation is linearizable, so the algorithms layered above it
// behave identically, at the cost of lock-freedom inside the primitive
// itself — exactly the trade made when simulating a missing instruction.
//
// Every pair this package is used on is (value, version): addr[1] is a
// version that every CompareAndSwap changes. That is what lets the native
// Load read the pair without a locked instruction: it reads the version,
// the value and the version again with 8-byte atomic loads, and retries
// until the two version reads agree — a seqlock whose writer is the DWCAS
// itself. The fallback keeps its own seqlock read, because its writer
// stores the two words one at a time.
//
// All addresses passed to this package must be 16-byte aligned. The
// allocator in internal/palloc guarantees this for every cell it hands out.
package dwcas

import (
	"sync/atomic"
	"unsafe"
)

// stripeCount is the number of seqlock stripes used by the fallback
// implementation. It must be a power of two. 4096 stripes keeps the
// probability of false contention low for realistic cell counts while the
// table stays small (32 KiB).
const stripeCount = 4096

// stripes holds one seqlock generation counter per stripe. A generation is
// odd while a writer is mid-update. Padding avoids false sharing between
// adjacent stripes.
var stripes [stripeCount]struct {
	gen atomic.Uint64
	_   [56]byte
}

// forceFallback routes all operations through the seqlock emulation even on
// platforms with a native DWCAS. Tests use it to cover both paths.
var forceFallback atomic.Bool

// SetFallback forces (or stops forcing) the portable seqlock emulation.
// It exists so the emulation can be exercised on amd64; flipping it while
// cells are being accessed concurrently is not supported.
func SetFallback(on bool) { forceFallback.Store(on) }

// Native reports whether the running platform executes DWCAS with a real
// hardware instruction (and the fallback is not being forced).
func Native() bool { return haveNative && !forceFallback.Load() }

func stripeFor(addr *[2]uint64) *atomic.Uint64 {
	// Mix the address bits so that adjacent cells land on different
	// stripes; cells are 16-byte aligned, so the low 4 bits carry no
	// information.
	h := uintptr(unsafe.Pointer(addr)) >> 4
	h ^= h >> 13
	return &stripes[h&(stripeCount-1)].gen
}

// Aligned reports whether addr satisfies the 16-byte alignment requirement.
func Aligned(addr *[2]uint64) bool {
	return uintptr(unsafe.Pointer(addr))&15 == 0
}

// CompareAndSwap atomically compares the 128-bit value at addr with
// (old0, old1) and, if equal, replaces it with (new0, new1). It returns
// whether the swap happened together with the value observed at addr — the
// previous value on failure, (old0, old1) on success. The observed value is
// what Figure 4 of the paper calls "before" after a failed DWCAS.
func CompareAndSwap(addr *[2]uint64, old0, old1, new0, new1 uint64) (swapped bool, cur0, cur1 uint64) {
	if Native() {
		return cas16(addr, old0, old1, new0, new1)
	}
	return casFallback(addr, old0, old1, new0, new1)
}

// Load atomically reads the (value, version) pair at addr. On the native
// path it reads the version, the value and the version again with atomic
// loads — plain MOVs on amd64, which never reorders a load with an older
// one — and retries until the two version reads agree. The read is exact
// only because every CompareAndSwap on addr changes addr[1] and nothing
// else stores the pair while it can be read (see the package doc): a pair
// whose version returned to an earlier value during a Load could be read
// torn.
func Load(addr *[2]uint64) (v0, v1 uint64) {
	if Native() {
		for {
			v1 = atomic.LoadUint64(&addr[1])
			v0 = atomic.LoadUint64(&addr[0])
			if atomic.LoadUint64(&addr[1]) == v1 {
				return v0, v1
			}
		}
	}
	return loadFallback(addr)
}

// Store atomically writes the 128-bit value at addr unconditionally. It is
// implemented as a CAS loop; Mirror itself never needs a blind pair store,
// but recovery and tests do.
func Store(addr *[2]uint64, v0, v1 uint64) {
	for {
		c0, c1 := Load(addr)
		if ok, _, _ := CompareAndSwap(addr, c0, c1, v0, v1); ok {
			return
		}
	}
}

func casFallback(addr *[2]uint64, old0, old1, new0, new1 uint64) (bool, uint64, uint64) {
	gen := stripeFor(addr)
	for {
		g := gen.Load()
		if g&1 == 1 {
			continue // a writer holds the stripe
		}
		if !gen.CompareAndSwap(g, g+1) {
			continue
		}
		// Stripe acquired; generation is now odd.
		c0 := atomic.LoadUint64(&addr[0])
		c1 := atomic.LoadUint64(&addr[1])
		swapped := c0 == old0 && c1 == old1
		if swapped {
			atomic.StoreUint64(&addr[0], new0)
			atomic.StoreUint64(&addr[1], new1)
		}
		gen.Store(g + 2)
		return swapped, c0, c1
	}
}

func loadFallback(addr *[2]uint64) (uint64, uint64) {
	gen := stripeFor(addr)
	for {
		g := gen.Load()
		if g&1 == 1 {
			continue
		}
		v0 := atomic.LoadUint64(&addr[0])
		v1 := atomic.LoadUint64(&addr[1])
		if gen.Load() == g {
			return v0, v1
		}
	}
}
