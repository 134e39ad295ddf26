//go:build amd64

package pmem

import (
	"sync/atomic"
	"unsafe"
)

// On amd64 an aligned 8-byte MOV is already atomic per word, and TSO keeps
// plain stores in program order, so the words that need no ordering or
// arbitration between threads are written without a locked instruction
// (DESIGN.md "Substrate hot path"). The stores are assembly, not Go
// stores, so that the race detector does not see them: it does not see the
// assembly DWCAS that publishes what they write either, and would report a
// Go store to an init word as racing with the reader that reached the
// object through that DWCAS.

// storeWord stores v at p with one plain MOVQ. Implemented in word_amd64.s.
//
//go:noescape
func storeWord(p *uint64, v uint64)

// copyLine copies the 64-byte line at src to dst with eight aligned MOVQ
// load/store pairs. Implemented in word_amd64.s.
//
//go:noescape
func copyLine(dst, src *uint64)

// lineEqual reports whether the 64-byte lines at a and b hold the same
// words. Implemented in word_amd64.s. A crash compares every line of a
// quiesced device with it: as assembly its reads are invisible to the race
// detector, which would otherwise shadow both arrays of a fresh device on
// every crash of it — what made the race-enabled crash sweeps slow.
//
//go:noescape
func lineEqual(a, b *uint64) bool

// bump adds n to a counter that only its FlushSet's owner writes: a load
// and a plain store, where Add would be a LOCK XADD.
func bump(c *atomic.Uint64, n uint64) {
	storeWord((*uint64)(unsafe.Pointer(c)), c.Load()+n)
}
