#include "textflag.h"

// func potentialRow(x, y, z, m []float64, xi, yi, zi, mi, e2, e float64) float64
//
// X8-X12 hold xi, yi, zi, mi and e2 in both lanes and X7 the running sum.
// Per pair of sources j, j+1, X0-X2 carry dx, dy, dz, then the squares and
// r2, and X3 the two terms mi*m[j] / sqrt(r2). Each packed operation is the
// scalar form of potentialRowGo's, with the same operands in the same
// order; the two terms leave X3 for the sum one at a time, t[j] first.
TEXT ·potentialRow(SB), NOSPLIT, $0-152
	MOVQ x_base+0(FP), AX
	MOVQ y_base+24(FP), BX
	MOVQ z_base+48(FP), DX
	MOVQ m_base+72(FP), R8
	MOVQ x_len+8(FP), CX

	MOVSD    xi+96(FP), X8
	UNPCKLPD X8, X8
	MOVSD    yi+104(FP), X9
	UNPCKLPD X9, X9
	MOVSD    zi+112(FP), X10
	UNPCKLPD X10, X10
	MOVSD    mi+120(FP), X11
	UNPCKLPD X11, X11
	MOVSD    e2+128(FP), X12
	UNPCKLPD X12, X12
	MOVSD    e+136(FP), X7

	MOVQ CX, DI
	ANDQ $~1, DI            // sources in whole pairs
	XORQ SI, SI

pair:
	CMPQ     SI, DI
	JAE      tail
	MOVUPD   (AX)(SI*8), X0
	SUBPD    X8, X0           // dx = x[j] - xi
	MOVUPD   (BX)(SI*8), X1
	SUBPD    X9, X1           // dy
	MOVUPD   (DX)(SI*8), X2
	SUBPD    X10, X2          // dz
	MULPD    X0, X0
	MULPD    X1, X1
	ADDPD    X1, X0
	MULPD    X2, X2
	ADDPD    X2, X0
	ADDPD    X12, X0          // r2 = dx*dx + dy*dy + dz*dz + e2
	SQRTPD   X0, X0
	MOVAPS   X11, X3
	MOVUPD   (R8)(SI*8), X4
	MULPD    X4, X3           // mi * m[j]
	DIVPD    X0, X3           // t = mi*m[j] / sqrt(r2)
	SUBSD    X3, X7           // e -= t[j]
	UNPCKHPD X3, X3
	SUBSD    X3, X7           // e -= t[j+1]
	ADDQ     $2, SI
	JMP      pair

tail:
	CMPQ   SI, CX
	JAE    done
	MOVSD  (AX)(SI*8), X0
	SUBSD  X8, X0
	MOVSD  (BX)(SI*8), X1
	SUBSD  X9, X1
	MOVSD  (DX)(SI*8), X2
	SUBSD  X10, X2
	MULSD  X0, X0
	MULSD  X1, X1
	ADDSD  X1, X0
	MULSD  X2, X2
	ADDSD  X2, X0
	ADDSD  X12, X0
	SQRTSD X0, X0
	MOVAPS X11, X3
	MULSD  (R8)(SI*8), X3
	DIVSD  X0, X3
	SUBSD  X3, X7

done:
	MOVSD X7, ret+144(FP)
	RET
