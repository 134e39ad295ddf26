//go:build amd64

#include "textflag.h"

// func storeWord(p *uint64, v uint64)
TEXT ·storeWord(SB), NOSPLIT, $0-16
	MOVQ	p+0(FP), DI
	MOVQ	v+8(FP), AX
	MOVQ	AX, (DI)
	RET

// func copyLine(dst, src *uint64)
//
// Eight aligned 8-byte load/store pairs: each word is copied whole, and the
// line as a whole is not copied atomically.
TEXT ·copyLine(SB), NOSPLIT, $0-16
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	0(SI), AX
	MOVQ	AX, 0(DI)
	MOVQ	8(SI), AX
	MOVQ	AX, 8(DI)
	MOVQ	16(SI), AX
	MOVQ	AX, 16(DI)
	MOVQ	24(SI), AX
	MOVQ	AX, 24(DI)
	MOVQ	32(SI), AX
	MOVQ	AX, 32(DI)
	MOVQ	40(SI), AX
	MOVQ	AX, 40(DI)
	MOVQ	48(SI), AX
	MOVQ	AX, 48(DI)
	MOVQ	56(SI), AX
	MOVQ	AX, 56(DI)
	RET

// func lineEqual(a, b *uint64) bool
//
// Eight 8-byte loads from each line, XORed pairwise and ORed together.
TEXT ·lineEqual(SB), NOSPLIT, $0-17
	MOVQ	a+0(FP), SI
	MOVQ	b+8(FP), DI
	MOVQ	0(SI), AX
	XORQ	0(DI), AX
	MOVQ	8(SI), BX
	XORQ	8(DI), BX
	ORQ	BX, AX
	MOVQ	16(SI), BX
	XORQ	16(DI), BX
	ORQ	BX, AX
	MOVQ	24(SI), BX
	XORQ	24(DI), BX
	ORQ	BX, AX
	MOVQ	32(SI), BX
	XORQ	32(DI), BX
	ORQ	BX, AX
	MOVQ	40(SI), BX
	XORQ	40(DI), BX
	ORQ	BX, AX
	MOVQ	48(SI), BX
	XORQ	48(DI), BX
	ORQ	BX, AX
	MOVQ	56(SI), BX
	XORQ	56(DI), BX
	ORQ	BX, AX
	TESTQ	AX, AX
	SETEQ	ret+16(FP)
	RET
