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

// float32 1, broadcast by accumulateTileLanes8.
DATA one32<>+0(SB)/4, $0x3f800000
GLOBL one32<>(SB), RODATA|NOPTR, $4

// func accumulateTileLanes8(px, py, pz, ax, ay, az, tile []float32, eps2 float32) int
//
// accumulateTileLanes4 on YMM registers: Y0-Y2 hold eight lanes' positions
// and Y3-Y5 their running sums, and each source's x, y, z and m are
// broadcast from memory. Every operation is the VEX form of the SSE
// routine's, with the same operands in the same order. VZEROUPPER clears
// the upper halves before returning, so the SSE code that follows pays no
// state transition.
TEXT ·accumulateTileLanes8(SB), NOSPLIT, $0-184
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
	ANDQ $~7, DI
	MOVQ DI, ret+176(FP)
	SHLQ $2, DI             // byte offset past the last group of eight lanes

	VBROADCASTSS eps2+168(FP), Y6
	VBROADCASTSS one32<>(SB), Y7

	XORQ SI, SI

group8:
	CMPQ    SI, DI
	JAE     done8
	VMOVUPS (AX)(SI*1), Y0
	VMOVUPS (BX)(SI*1), Y1
	VMOVUPS (DX)(SI*1), Y2
	VMOVUPS (R8)(SI*1), Y3
	VMOVUPS (R9)(SI*1), Y4
	VMOVUPS (R10)(SI*1), Y5
	MOVQ    R11, R13

source8:
	CMPQ         R13, R12
	JAE          store8
	VBROADCASTSS (R13), Y8
	VBROADCASTSS 4(R13), Y9
	VBROADCASTSS 8(R13), Y10
	VBROADCASTSS 12(R13), Y15
	VSUBPS       Y0, Y8, Y8     // dx = sx - px
	VSUBPS       Y1, Y9, Y9     // dy
	VSUBPS       Y2, Y10, Y10   // dz
	VMULPS       Y8, Y8, Y11
	VMULPS       Y9, Y9, Y12
	VADDPS       Y12, Y11, Y11
	VMULPS       Y10, Y10, Y12
	VADDPS       Y12, Y11, Y11
	VADDPS       Y6, Y11, Y11   // r2 = dx*dx + dy*dy + dz*dz + eps2
	VXORPS       Y12, Y12, Y12
	VCMPPS       $4, Y12, Y11, Y12 // r2 != 0, true for NaN as in Go
	VSQRTPS      Y11, Y11
	VDIVPS       Y11, Y7, Y13   // inv = 1 / sqrt(r2)
	VMULPS       Y13, Y13, Y14
	VMULPS       Y13, Y14, Y14
	VMULPS       Y15, Y14, Y14  // inv3 = inv * inv * inv * sm
	VMULPS       Y14, Y8, Y8
	VMULPS       Y14, Y9, Y9
	VMULPS       Y14, Y10, Y10
	VANDPS       Y12, Y8, Y8    // +0 where r2 == 0, as AccumulateInto returns
	VANDPS       Y12, Y9, Y9
	VANDPS       Y12, Y10, Y10
	VADDPS       Y8, Y3, Y3
	VADDPS       Y9, Y4, Y4
	VADDPS       Y10, Y5, Y5
	ADDQ         $16, R13
	JMP          source8

store8:
	VMOVUPS Y3, (R8)(SI*1)
	VMOVUPS Y4, (R9)(SI*1)
	VMOVUPS Y5, (R10)(SI*1)
	ADDQ    $32, SI
	JMP     group8

done8:
	VZEROUPPER
	RET

// func cpuHasAVX() bool
//
// CPUID leaf 1 reports AVX in ECX bit 28 and OSXSAVE, the OS's use of
// XSAVE, in bit 27; XGETBV then reads XCR0, whose bits 1 and 2 say that
// the OS saves the XMM and YMM registers across context switches.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   noavx
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   noavx
	MOVB  $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET
