//go:build !amd64

package palloc

import "sync/atomic"

// storeRelease keeps the sequentially consistent store where TSO does not
// make a plain store a release.
func storeRelease(p *uint64, v uint64) { atomic.StoreUint64(p, v) }
