//go:build amd64

package dwcas

// haveNative is true on amd64: CMPXCHG16B has been present on every 64-bit
// x86 CPU capable of running a modern Go runtime (it is part of the
// GOAMD64=v2 baseline and universal in practice since 2006).
const haveNative = true

// cas16 executes LOCK CMPXCHG16B at addr. Implemented in dwcas_amd64.s.
//
//go:noescape
func cas16(addr *[2]uint64, old0, old1, new0, new1 uint64) (swapped bool, cur0, cur1 uint64)
