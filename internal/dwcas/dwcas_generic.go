//go:build !amd64

package dwcas

// haveNative is false on platforms without a wired-up DWCAS instruction;
// the striped seqlock emulation is used instead.
const haveNative = false

func cas16(addr *[2]uint64, old0, old1, new0, new1 uint64) (bool, uint64, uint64) {
	return casFallback(addr, old0, old1, new0, new1)
}
