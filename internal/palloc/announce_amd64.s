//go:build amd64

#include "textflag.h"

// func storeRelease(p *uint64, v uint64)
TEXT ·storeRelease(SB), NOSPLIT, $0-16
	MOVQ	p+0(FP), DI
	MOVQ	v+8(FP), AX
	MOVQ	AX, (DI)
	RET
