//go:build amd64 && !purego

#include "textflag.h"

// func matvecKernelSSE2(a *float64, v *float32, cols int, acc *[16]float64)
//
// Row-panel GEMV inner loop over full 4-column blocks. a points at one
// panel (stride-4 float64 layout: column c's four row entries at a[4c..4c+3]),
// v at the float32 query vector, cols is a multiple of 4.
//
// Accumulator register map (acc[lane*4+row]):
//
//	X0 = lane0 rows {0,1}   X1 = lane0 rows {2,3}
//	X2 = lane1 rows {0,1}   X3 = lane1 rows {2,3}
//	X4 = lane2 rows {0,1}   X5 = lane2 rows {2,3}
//	X6 = lane3 rows {0,1}   X7 = lane3 rows {2,3}
//
// Every MULPD/ADDPD lane is one scalar accumulator chain, so the kernel's
// IEEE operation sequence per accumulator equals the scalar fallback's.
TEXT ·matvecKernelSSE2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ cols+16(FP), CX
	MOVQ acc+24(FP), DX

	MOVUPD 0(DX), X0
	MOVUPD 16(DX), X1
	MOVUPD 32(DX), X2
	MOVUPD 48(DX), X3
	MOVUPD 64(DX), X4
	MOVUPD 80(DX), X5
	MOVUPD 96(DX), X6
	MOVUPD 112(DX), X7

loop:
	CMPQ CX, $4
	JL   done

	// Column 0 of the block -> lane 0. The XORPS zero idiom before each
	// convert breaks CVTSS2SD's merge dependency on X8's previous value,
	// which would otherwise serialize the whole loop on convert latency.
	XORPS    X8, X8
	CVTSS2SD (SI), X8
	UNPCKLPD X8, X8
	MOVUPD   0(DI), X9
	MOVUPD   16(DI), X10
	MULPD    X8, X9
	MULPD    X8, X10
	ADDPD    X9, X0
	ADDPD    X10, X1

	// Column 1 -> lane 1.
	XORPS    X8, X8
	CVTSS2SD 4(SI), X8
	UNPCKLPD X8, X8
	MOVUPD   32(DI), X9
	MOVUPD   48(DI), X10
	MULPD    X8, X9
	MULPD    X8, X10
	ADDPD    X9, X2
	ADDPD    X10, X3

	// Column 2 -> lane 2.
	XORPS    X8, X8
	CVTSS2SD 8(SI), X8
	UNPCKLPD X8, X8
	MOVUPD   64(DI), X9
	MOVUPD   80(DI), X10
	MULPD    X8, X9
	MULPD    X8, X10
	ADDPD    X9, X4
	ADDPD    X10, X5

	// Column 3 -> lane 3.
	XORPS    X8, X8
	CVTSS2SD 12(SI), X8
	UNPCKLPD X8, X8
	MOVUPD   96(DI), X9
	MOVUPD   112(DI), X10
	MULPD    X8, X9
	MULPD    X8, X10
	ADDPD    X9, X6
	ADDPD    X10, X7

	ADDQ $128, DI
	ADDQ $16, SI
	SUBQ $4, CX
	JMP  loop

done:
	MOVUPD X0, 0(DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVUPD X4, 64(DX)
	MOVUPD X5, 80(DX)
	MOVUPD X6, 96(DX)
	MOVUPD X7, 112(DX)
	RET

// func matvec4Panel(a, e *float64, cols int, acc *[4][16]float64)
//
// matvecKernelSSE2 for four vectors per pass over the panel. e holds the
// vectors pre-expanded (vector k's column c at e[k*4*cols + 4c + i], i < 4),
// so the zmm load of columns c, c+1 (rows 0..3 each) meets the zmm load of
// [v[c] x4, v[c+1] x4] lane for lane. Accumulator register map, vector k:
//
//	Z(2k)   = acc[k][0..7]  (lane 0 rows 0..3, lane 1 rows 0..3)
//	Z(2k+1) = acc[k][8..15] (lane 2 rows 0..3, lane 3 rows 0..3)
//
// exactly matvecKernelSSE2's acc layout, so each VMULPD/VADDPD lane is one
// of its scalar accumulator chains in the same order: separate multiply and
// add (never FMA), bitwise the SSE2 kernel's results.
TEXT ·matvec4Panel(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), DI
	MOVQ e+8(FP), SI
	MOVQ cols+16(FP), CX
	MOVQ acc+24(FP), R8

	// R9..R11: vectors 1..3's expansions, 4*cols float64 apart.
	MOVQ CX, DX
	SHLQ $5, DX
	LEAQ (SI)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11

	VMOVUPD 0(R8), Z0
	VMOVUPD 64(R8), Z1
	VMOVUPD 128(R8), Z2
	VMOVUPD 192(R8), Z3
	VMOVUPD 256(R8), Z4
	VMOVUPD 320(R8), Z5
	VMOVUPD 384(R8), Z6
	VMOVUPD 448(R8), Z7

loop4:
	CMPQ CX, $4
	JL   done4

	VMOVUPD 0(DI), Z8
	VMOVUPD 64(DI), Z9

	VMULPD 0(SI), Z8, Z10
	VMULPD 64(SI), Z9, Z11
	VADDPD Z10, Z0, Z0
	VADDPD Z11, Z1, Z1

	VMULPD 0(R9), Z8, Z12
	VMULPD 64(R9), Z9, Z13
	VADDPD Z12, Z2, Z2
	VADDPD Z13, Z3, Z3

	VMULPD 0(R10), Z8, Z14
	VMULPD 64(R10), Z9, Z15
	VADDPD Z14, Z4, Z4
	VADDPD Z15, Z5, Z5

	VMULPD 0(R11), Z8, Z16
	VMULPD 64(R11), Z9, Z17
	VADDPD Z16, Z6, Z6
	VADDPD Z17, Z7, Z7

	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, R9
	ADDQ $128, R10
	ADDQ $128, R11
	SUBQ $4, CX
	JMP  loop4

done4:
	VMOVUPD Z0, 0(R8)
	VMOVUPD Z1, 64(R8)
	VMOVUPD Z2, 128(R8)
	VMOVUPD Z3, 192(R8)
	VMOVUPD Z4, 256(R8)
	VMOVUPD Z5, 320(R8)
	VMOVUPD Z6, 384(R8)
	VMOVUPD Z7, 448(R8)
	VZEROUPPER
	RET
