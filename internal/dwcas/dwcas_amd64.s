//go:build amd64

#include "textflag.h"

// func cas16(addr *[2]uint64, old0, old1, new0, new1 uint64) (swapped bool, cur0, cur1 uint64)
TEXT ·cas16(SB), NOSPLIT, $0-64
	MOVQ	addr+0(FP), DI
	MOVQ	old0+8(FP), AX
	MOVQ	old1+16(FP), DX
	MOVQ	new0+24(FP), BX
	MOVQ	new1+32(FP), CX
	LOCK
	CMPXCHG16B	(DI)
	SETEQ	swapped+40(FP)
	// On failure RDX:RAX holds the current memory value; on success it
	// still holds the old (== expected) value, which is what we report.
	MOVQ	AX, cur0+48(FP)
	MOVQ	DX, cur1+56(FP)
	RET
