//go:build amd64 && !purego

#include "textflag.h"

// func sqDistBounded(a, b []float32, bound float64) (float64, bool)
//
// SqDistBounded's kernel; len(b) == len(a) is checked by the caller.
//
// Accumulator register map: X0 = lanes {s0, s1}, X1 = lanes {s2, s3}. A
// CVTPS2PD widens two float32 exactly, and every SUBPD/MULPD/ADDPD lane is
// one of the portable loop's four scalar chains, in the same order; the
// scalar tail folds into lane s0 with the scalar forms. The bound test and
// the result sum the lanes as ((s0 + s1) + s2) + s3, like the Go loop, so
// distance, abandonment value and ok flag are bitwise those of
// sqDistBoundedGo.
TEXT ·sqDistBounded(SB), NOSPLIT, $0-65
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	MOVSD bound+48(FP), X8
	XORPS X0, X0
	XORPS X1, X1

loop8:
	CMPQ CX, $8
	JL   tail4

	CVTPS2PD 0(SI), X2
	CVTPS2PD 0(DI), X3
	SUBPD    X3, X2
	MULPD    X2, X2
	ADDPD    X2, X0
	CVTPS2PD 8(SI), X4
	CVTPS2PD 8(DI), X5
	SUBPD    X5, X4
	MULPD    X4, X4
	ADDPD    X4, X1
	CVTPS2PD 16(SI), X2
	CVTPS2PD 16(DI), X3
	SUBPD    X3, X2
	MULPD    X2, X2
	ADDPD    X2, X0
	CVTPS2PD 24(SI), X4
	CVTPS2PD 24(DI), X5
	SUBPD    X5, X4
	MULPD    X4, X4
	ADDPD    X4, X1

	// X7 = ((s0 + s1) + s2) + s3; abandon when X7 > bound (false on NaN).
	MOVAPD   X0, X7
	MOVAPD   X0, X6
	UNPCKHPD X6, X6
	ADDSD    X6, X7
	ADDSD    X1, X7
	MOVAPD   X1, X6
	UNPCKHPD X6, X6
	ADDSD    X6, X7
	UCOMISD  X8, X7
	JA       abandon

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  loop8

tail4:
	CMPQ CX, $4
	JL   tail1
	CVTPS2PD 0(SI), X2
	CVTPS2PD 0(DI), X3
	SUBPD    X3, X2
	MULPD    X2, X2
	ADDPD    X2, X0
	CVTPS2PD 8(SI), X4
	CVTPS2PD 8(DI), X5
	SUBPD    X5, X4
	MULPD    X4, X4
	ADDPD    X4, X1
	ADDQ     $16, SI
	ADDQ     $16, DI
	SUBQ     $4, CX

tail1:
	TESTQ    CX, CX
	JZ       done
	CVTSS2SD (SI), X2
	CVTSS2SD (DI), X3
	SUBSD    X3, X2
	MULSD    X2, X2
	ADDSD    X2, X0
	ADDQ     $4, SI
	ADDQ     $4, DI
	DECQ     CX
	JMP      tail1

done:
	MOVAPD   X0, X7
	MOVAPD   X0, X6
	UNPCKHPD X6, X6
	ADDSD    X6, X7
	ADDSD    X1, X7
	MOVAPD   X1, X6
	UNPCKHPD X6, X6
	ADDSD    X6, X7
	MOVSD    X7, ret+56(FP)
	// ok = s <= bound, i.e. bound >= s: carry clear (false on NaN).
	UCOMISD  X7, X8
	SETCC    ret1+64(FP)
	RET

abandon:
	MOVSD X7, ret+56(FP)
	MOVB  $0, ret1+64(FP)
	RET

// func Prefetch(v []float32)
//
// One PREFETCHT0 per cache line the vector's bytes touch, from the line
// holding v[0] to the one holding its last element. A prefetch never
// faults, so an empty or nil slice needs no guard.
TEXT ·Prefetch(SB), NOSPLIT, $0-24
	MOVQ  v_base+0(FP), SI
	MOVQ  v_len+8(FP), CX
	LEAQ  (SI)(CX*4), CX
	ANDQ  $-64, SI

prefetch:
	CMPQ       SI, CX
	JAE        prefetched
	PREFETCHT0 (SI)
	ADDQ       $64, SI
	JMP        prefetch

prefetched:
	RET
