//go:build !amd64

package pmem

import (
	"sync/atomic"
	"unsafe"
)

// Without amd64's per-word atomic MOV and TSO, the words amd64 writes with
// plain stores (word_amd64.go) keep their atomic operations.

func storeWord(p *uint64, v uint64) { atomic.StoreUint64(p, v) }

func copyLine(dst, src *uint64) {
	d := (*[WordsPerLine]uint64)(unsafe.Pointer(dst))
	s := (*[WordsPerLine]uint64)(unsafe.Pointer(src))
	for i := range d {
		atomic.StoreUint64(&d[i], atomic.LoadUint64(&s[i]))
	}
}

func lineEqual(a, b *uint64) bool {
	return *(*[WordsPerLine]uint64)(unsafe.Pointer(a)) == *(*[WordsPerLine]uint64)(unsafe.Pointer(b))
}

func bump(c *atomic.Uint64, n uint64) { c.Add(n) }
