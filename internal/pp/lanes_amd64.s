#include "textflag.h"

// func accumulateTileLanes4(px, py, pz, ax, ay, az, tile []float32, eps2 float32) int
//
// X0-X2 hold four lanes' positions and X3-X5 their running sums; per
// source, X8-X10 carry dx, dy, dz and then the three contributions, X11
// r2, X12 the r2 != 0 mask, X13 inv and X14 inv3. Every operation is the
// packed form of AccumulateInto's, with the same operands in the same
// order.
TEXT ·accumulateTileLanes4(SB), NOSPLIT, $0-184
	MOVQ px_base+0(FP), AX
	MOVQ py_base+24(FP), BX
	MOVQ pz_base+48(FP), DX
	MOVQ ax_base+72(FP), R8
	MOVQ ay_base+96(FP), R9
	MOVQ az_base+120(FP), R10
	MOVQ tile_base+144(FP), R11
	MOVQ tile_len+152(FP), R12
	ANDQ $~3, R12
	SHLQ $2, R12
	ADDQ R11, R12           // end of the tile's whole sources
	MOVQ px_len+8(FP), DI
	ANDQ $~3, DI
	MOVQ DI, ret+176(FP)
	SHLQ $2, DI             // byte offset past the last group of four lanes

	MOVSS  eps2+168(FP), X6
	SHUFPS $0x00, X6, X6
	MOVL   $0x3f800000, CX  // float32 1
	MOVQ   CX, X7
	SHUFPS $0x00, X7, X7

	XORQ SI, SI

group:
	CMPQ   SI, DI
	JAE    done
	MOVUPS (AX)(SI*1), X0
	MOVUPS (BX)(SI*1), X1
	MOVUPS (DX)(SI*1), X2
	MOVUPS (R8)(SI*1), X3
	MOVUPS (R9)(SI*1), X4
	MOVUPS (R10)(SI*1), X5
	MOVQ   R11, R13

source:
	CMPQ   R13, R12
	JAE    store
	MOVUPS (R13), X15       // x, y, z, m
	PSHUFD $0x00, X15, X8
	PSHUFD $0x55, X15, X9
	PSHUFD $0xaa, X15, X10
	PSHUFD $0xff, X15, X15
	SUBPS  X0, X8           // dx = sx - px
	SUBPS  X1, X9           // dy
	SUBPS  X2, X10          // dz
	MOVAPS X8, X11
	MULPS  X8, X11
	MOVAPS X9, X12
	MULPS  X9, X12
	ADDPS  X12, X11
	MOVAPS X10, X12
	MULPS  X10, X12
	ADDPS  X12, X11
	ADDPS  X6, X11          // r2 = dx*dx + dy*dy + dz*dz + eps2
	XORPS  X12, X12
	CMPPS  X11, X12, $4     // r2 != 0, true for NaN as in Go
	SQRTPS X11, X11
	MOVAPS X7, X13
	DIVPS  X11, X13         // inv = 1 / sqrt(r2)
	MOVAPS X13, X14
	MULPS  X13, X14
	MULPS  X13, X14
	MULPS  X15, X14         // inv3 = inv * inv * inv * sm
	MULPS  X14, X8
	MULPS  X14, X9
	MULPS  X14, X10
	ANDPS  X12, X8          // +0 where r2 == 0, as AccumulateInto returns
	ANDPS  X12, X9
	ANDPS  X12, X10
	ADDPS  X8, X3
	ADDPS  X9, X4
	ADDPS  X10, X5
	ADDQ   $16, R13
	JMP    source

store:
	MOVUPS X3, (R8)(SI*1)
	MOVUPS X4, (R9)(SI*1)
	MOVUPS X5, (R10)(SI*1)
	ADDQ   $16, SI
	JMP    group

done:
	RET
