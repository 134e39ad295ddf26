//go:build amd64

package palloc

// storeRelease stores v at p with one plain MOVQ: under TSO a release store,
// ordered after every earlier load and store of the thread. It is assembly
// because Go has none: sync/atomic's Store is an XCHG, and a plain Go store
// to a word other goroutines load atomically is a race to the race
// detector, which does not see this one. Implemented in announce_amd64.s.
//
//go:noescape
func storeRelease(p *uint64, v uint64)
