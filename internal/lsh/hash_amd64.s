//go:build amd64 && !purego

#include "textflag.h"

// Lane i of a group's gather index: table i's row, i*m elements on.
DATA iota<>+0(SB)/8, $0
DATA iota<>+8(SB)/8, $1
DATA iota<>+16(SB)/8, $2
DATA iota<>+24(SB)/8, $3
DATA iota<>+32(SB)/8, $4
DATA iota<>+40(SB)/8, $5
DATA iota<>+48(SB)/8, $6
DATA iota<>+56(SB)/8, $7
GLOBL iota<>(SB), RODATA|NOPTR, $64

// LANES sets mask register k to the low min(c, 8) lanes, none when c <= 0.
// c is a scratch copy of the count; AX is clobbered.
#define LANES(c, k, label) \
	XORL  AX, AX; \
	TESTQ c, c; \
	JLE   label; \
	MOVL  $0xff, AX; \
	CMPQ  c, $8; \
	JGE   label; \
	MOVL  $1, AX; \
	SHLL  c, AX; \
	DECL  AX; \
label: \
	KMOVB AX, k

// GATHER loads the lanes of mask k from base + 8*index into z: a gather
// clears its mask as it completes, so it takes a fresh copy in kt; z is
// zeroed first so a dead lane holds 0, not a stale value.
#define GATHER(base, k, kt, z) \
	KMOVB      k, kt; \
	VPXORQ     z, z, z; \
	VGATHERQPD (base)(Z24*8), kt, z

// MIX64 absorbs the floors in x into the hash states h (t is scratch):
// h ^= x + C1 + (h<<6) + (h>>2), the adds commuting mod 2^64; then
// h *= C2 (VPMULLQ keeps the low 64 bits); h ^= h >> 33.
#define MIX64(h, x, t) \
	VPADDQ  Z22, x, x; \
	VPSLLQ  $6, h, t; \
	VPADDQ  t, x, x; \
	VPSRLQ  $2, h, t; \
	VPADDQ  t, x, x; \
	VPXORQ  x, h, h; \
	VPMULLQ Z23, h, h; \
	VPSRLQ  $33, h, t; \
	VPXORQ  t, h, h

// func hashesAVX512(proj, b *float64, seeds *uint64, out *uint32, l, m int, inv, w float64, mul bool)
//
// Tables run sixteen per pass as two groups of eight, A and B, whose hash
// chains interleave: each function's 64-bit multiply has a long latency, and
// the other group's work fills it. Register map: Z20 = inv, Z21 = w (divisor,
// or multiplier when mul), Z22/Z23 = mix64's two constants, Z24 = gather
// index {0, m, ..., 7m}; K1/K4 = group A/B's live tables, Z0/Z3 = their
// eight running hash states.
//
// Per hash function j, lane for lane what HashesAt computes:
//
//	x = floor((proj*inv + b) / w)   VMULPD, VADDPD, VDIVPD (or VMULPD by
//	                                1/w), VRNDSCALEPD toward -inf
//	h = mix64(h, int64(x))          VCVTTPD2QQ truncates like Go's
//	                                conversion (0x8000000000000000 when out
//	                                of range), then MIX64
//
// then out = uint32(h ^ h>>32), VPMOVQD storing only the live lanes.
TEXT ·hashesAVX512(SB), NOSPLIT, $0-65
	MOVQ proj+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ seeds+16(FP), R8
	MOVQ out+24(FP), R9
	MOVQ l+32(FP), R10
	MOVQ m+40(FP), R11
	VBROADCASTSD inv+48(FP), Z20
	VBROADCASTSD w+56(FP), Z21
	MOVBQZX mul+64(FP), R12

	MOVQ         $0x9e3779b97f4a7c15, AX
	VPBROADCASTQ AX, Z22
	MOVQ         $0xff51afd7ed558ccd, AX
	VPBROADCASTQ AX, Z23
	VPBROADCASTQ R11, Z24
	VPMULLQ      iota<>(SB), Z24, Z24

	// R13 = bytes from one group's rows to the next: 8 tables * m * 8.
	MOVQ R11, R13
	SHLQ $6, R13

pass:
	TESTQ R10, R10
	JLE   done

	MOVQ R10, CX
	LANES(CX, K1, liveA)
	LEAQ -8(R10), CX
	LANES(CX, K4, liveB)

	VMOVDQU64 (R8), K1, Z0
	VMOVDQU64 64(R8), K4, Z3
	MOVQ      SI, AX
	MOVQ      DI, BX
	LEAQ      (SI)(R13*1), DX
	LEAQ      (DI)(R13*1), R14
	MOVQ      R11, CX

fn:
	GATHER(AX, K1, K2, Z1)
	GATHER(BX, K1, K3, Z2)
	GATHER(DX, K4, K5, Z4)
	GATHER(R14, K4, K6, Z5)

	VMULPD Z20, Z1, Z1
	VMULPD Z20, Z4, Z4
	VADDPD Z2, Z1, Z1
	VADDPD Z5, Z4, Z4
	TESTQ  R12, R12
	JZ     divide
	VMULPD Z21, Z1, Z1
	VMULPD Z21, Z4, Z4
	JMP    quantize

divide:
	VDIVPD Z21, Z1, Z1
	VDIVPD Z21, Z4, Z4

quantize:
	// Immediate 9: round toward -inf, suppress the precision exception.
	VRNDSCALEPD $9, Z1, Z1
	VRNDSCALEPD $9, Z4, Z4
	VCVTTPD2QQ  Z1, Z1
	VCVTTPD2QQ  Z4, Z4
	MIX64(Z0, Z1, Z2)
	MIX64(Z3, Z4, Z5)

	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, DX
	ADDQ $8, R14
	DECQ CX
	JNZ  fn

	VPSRLQ  $32, Z0, Z2
	VPXORQ  Z2, Z0, Z0
	VPMOVQD Z0, K1, (R9)
	VPSRLQ  $32, Z3, Z5
	VPXORQ  Z5, Z3, Z3
	VPMOVQD Z3, K4, 32(R9)

	LEAQ (SI)(R13*2), SI
	LEAQ (DI)(R13*2), DI
	ADDQ $128, R8
	ADDQ $64, R9
	SUBQ $16, R10
	JMP  pass

done:
	VZEROUPPER
	RET
