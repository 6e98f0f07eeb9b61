// The 16-lane SHA-1 block function and the CPU feature probes. Unlike the
// one-lane kernel in sha1_amd64.s this file does not expire with go 1.25:
// crypto/sha1 hashes one message at a time (see kernels.go).

//go:build amd64 && !purego

#include "textflag.h"
#include "x16_amd64.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET

// Register plan of blockX16: every ZMM register holds one 32-bit word of
// each of the sixteen lanes. RA-RE are the working variables a-e; W0-W15
// are the message schedule, W[t] in W(t mod 16); TMP and KT are a round's
// scratch and its constant. Before RA-RD are loaded they are the
// transpose's scratch.
#define RA  Z0
#define RB  Z1
#define RC  Z2
#define RD  Z3
#define RE  Z4
#define TMP Z5
#define KT  Z6
#define W0  Z16
#define W1  Z17
#define W2  Z18
#define W3  Z19
#define W4  Z20
#define W5  Z21
#define W6  Z22
#define W7  Z23
#define W8  Z24
#define W9  Z25
#define W10 Z26
#define W11 Z27
#define W12 Z28
#define W13 Z29
#define W14 Z30
#define W15 Z31

// ROUND is one round on every lane: e += rol5(a) + f(b, c, d) + K + w and
// b = rol30(b); the caller renames a-e instead of moving them. f is the
// VPTERNLOGD truth table over (b, c, d): Ch 0xca, Parity 0x96, Maj 0xe8.
#define ROUND(f, a, b, c, d, e, w) \
	VPADDD     w, e, e; \
	VPADDD     KT, e, e; \
	VMOVDQA32  b, TMP; \
	VPTERNLOGD $f, d, c, TMP; \
	VPADDD     TMP, e, e; \
	VPROLD     $5, a, TMP; \
	VPADDD     TMP, e, e; \
	VPROLD     $30, b, b

// SROUND is ROUND on W[t] = rol1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]),
// computed in the register that held W[t-16].
#define SROUND(f, a, b, c, d, e, w, w3, w8, w14) \
	VPTERNLOGD $0x96, w14, w8, w; \
	VPXORD     w3, w, w; \
	VPROLD     $1, w, w; \
	ROUND(f, a, b, c, d, e, w)

// func blockX16(h *[5][16]uint32, p *[16]*byte, n int)
//
// Folds n 64-byte blocks, at least one, into each lane's state: lane i
// reads p[i][0 : 64*n] and its state is h[0][i] to h[4][i].
TEXT ·blockX16(SB), NOSPLIT, $0-24
	MOVQ h+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ n+16(FP), DX
	XORQ CX, CX // offset of the block in every lane

loop:
	// Lane i's block into Wi, then transposed: Wj holds word j of every
	// lane.
	LOADX16

	VMOVDQU32 (0*64)(DI), RA
	VMOVDQU32 (1*64)(DI), RB
	VMOVDQU32 (2*64)(DI), RC
	VMOVDQU32 (3*64)(DI), RD
	VMOVDQU32 (4*64)(DI), RE

	VPBROADCASTD k<>+0(SB), KT
	ROUND(0xca, RA, RB, RC, RD, RE, W0)
	ROUND(0xca, RE, RA, RB, RC, RD, W1)
	ROUND(0xca, RD, RE, RA, RB, RC, W2)
	ROUND(0xca, RC, RD, RE, RA, RB, W3)
	ROUND(0xca, RB, RC, RD, RE, RA, W4)
	ROUND(0xca, RA, RB, RC, RD, RE, W5)
	ROUND(0xca, RE, RA, RB, RC, RD, W6)
	ROUND(0xca, RD, RE, RA, RB, RC, W7)
	ROUND(0xca, RC, RD, RE, RA, RB, W8)
	ROUND(0xca, RB, RC, RD, RE, RA, W9)
	ROUND(0xca, RA, RB, RC, RD, RE, W10)
	ROUND(0xca, RE, RA, RB, RC, RD, W11)
	ROUND(0xca, RD, RE, RA, RB, RC, W12)
	ROUND(0xca, RC, RD, RE, RA, RB, W13)
	ROUND(0xca, RB, RC, RD, RE, RA, W14)
	ROUND(0xca, RA, RB, RC, RD, RE, W15)
	SROUND(0xca, RE, RA, RB, RC, RD, W0, W13, W8, W2)
	SROUND(0xca, RD, RE, RA, RB, RC, W1, W14, W9, W3)
	SROUND(0xca, RC, RD, RE, RA, RB, W2, W15, W10, W4)
	SROUND(0xca, RB, RC, RD, RE, RA, W3, W0, W11, W5)
	VPBROADCASTD k<>+4(SB), KT
	SROUND(0x96, RA, RB, RC, RD, RE, W4, W1, W12, W6)
	SROUND(0x96, RE, RA, RB, RC, RD, W5, W2, W13, W7)
	SROUND(0x96, RD, RE, RA, RB, RC, W6, W3, W14, W8)
	SROUND(0x96, RC, RD, RE, RA, RB, W7, W4, W15, W9)
	SROUND(0x96, RB, RC, RD, RE, RA, W8, W5, W0, W10)
	SROUND(0x96, RA, RB, RC, RD, RE, W9, W6, W1, W11)
	SROUND(0x96, RE, RA, RB, RC, RD, W10, W7, W2, W12)
	SROUND(0x96, RD, RE, RA, RB, RC, W11, W8, W3, W13)
	SROUND(0x96, RC, RD, RE, RA, RB, W12, W9, W4, W14)
	SROUND(0x96, RB, RC, RD, RE, RA, W13, W10, W5, W15)
	SROUND(0x96, RA, RB, RC, RD, RE, W14, W11, W6, W0)
	SROUND(0x96, RE, RA, RB, RC, RD, W15, W12, W7, W1)
	SROUND(0x96, RD, RE, RA, RB, RC, W0, W13, W8, W2)
	SROUND(0x96, RC, RD, RE, RA, RB, W1, W14, W9, W3)
	SROUND(0x96, RB, RC, RD, RE, RA, W2, W15, W10, W4)
	SROUND(0x96, RA, RB, RC, RD, RE, W3, W0, W11, W5)
	SROUND(0x96, RE, RA, RB, RC, RD, W4, W1, W12, W6)
	SROUND(0x96, RD, RE, RA, RB, RC, W5, W2, W13, W7)
	SROUND(0x96, RC, RD, RE, RA, RB, W6, W3, W14, W8)
	SROUND(0x96, RB, RC, RD, RE, RA, W7, W4, W15, W9)
	VPBROADCASTD k<>+8(SB), KT
	SROUND(0xe8, RA, RB, RC, RD, RE, W8, W5, W0, W10)
	SROUND(0xe8, RE, RA, RB, RC, RD, W9, W6, W1, W11)
	SROUND(0xe8, RD, RE, RA, RB, RC, W10, W7, W2, W12)
	SROUND(0xe8, RC, RD, RE, RA, RB, W11, W8, W3, W13)
	SROUND(0xe8, RB, RC, RD, RE, RA, W12, W9, W4, W14)
	SROUND(0xe8, RA, RB, RC, RD, RE, W13, W10, W5, W15)
	SROUND(0xe8, RE, RA, RB, RC, RD, W14, W11, W6, W0)
	SROUND(0xe8, RD, RE, RA, RB, RC, W15, W12, W7, W1)
	SROUND(0xe8, RC, RD, RE, RA, RB, W0, W13, W8, W2)
	SROUND(0xe8, RB, RC, RD, RE, RA, W1, W14, W9, W3)
	SROUND(0xe8, RA, RB, RC, RD, RE, W2, W15, W10, W4)
	SROUND(0xe8, RE, RA, RB, RC, RD, W3, W0, W11, W5)
	SROUND(0xe8, RD, RE, RA, RB, RC, W4, W1, W12, W6)
	SROUND(0xe8, RC, RD, RE, RA, RB, W5, W2, W13, W7)
	SROUND(0xe8, RB, RC, RD, RE, RA, W6, W3, W14, W8)
	SROUND(0xe8, RA, RB, RC, RD, RE, W7, W4, W15, W9)
	SROUND(0xe8, RE, RA, RB, RC, RD, W8, W5, W0, W10)
	SROUND(0xe8, RD, RE, RA, RB, RC, W9, W6, W1, W11)
	SROUND(0xe8, RC, RD, RE, RA, RB, W10, W7, W2, W12)
	SROUND(0xe8, RB, RC, RD, RE, RA, W11, W8, W3, W13)
	VPBROADCASTD k<>+12(SB), KT
	SROUND(0x96, RA, RB, RC, RD, RE, W12, W9, W4, W14)
	SROUND(0x96, RE, RA, RB, RC, RD, W13, W10, W5, W15)
	SROUND(0x96, RD, RE, RA, RB, RC, W14, W11, W6, W0)
	SROUND(0x96, RC, RD, RE, RA, RB, W15, W12, W7, W1)
	SROUND(0x96, RB, RC, RD, RE, RA, W0, W13, W8, W2)
	SROUND(0x96, RA, RB, RC, RD, RE, W1, W14, W9, W3)
	SROUND(0x96, RE, RA, RB, RC, RD, W2, W15, W10, W4)
	SROUND(0x96, RD, RE, RA, RB, RC, W3, W0, W11, W5)
	SROUND(0x96, RC, RD, RE, RA, RB, W4, W1, W12, W6)
	SROUND(0x96, RB, RC, RD, RE, RA, W5, W2, W13, W7)
	SROUND(0x96, RA, RB, RC, RD, RE, W6, W3, W14, W8)
	SROUND(0x96, RE, RA, RB, RC, RD, W7, W4, W15, W9)
	SROUND(0x96, RD, RE, RA, RB, RC, W8, W5, W0, W10)
	SROUND(0x96, RC, RD, RE, RA, RB, W9, W6, W1, W11)
	SROUND(0x96, RB, RC, RD, RE, RA, W10, W7, W2, W12)
	SROUND(0x96, RA, RB, RC, RD, RE, W11, W8, W3, W13)
	SROUND(0x96, RE, RA, RB, RC, RD, W12, W9, W4, W14)
	SROUND(0x96, RD, RE, RA, RB, RC, W13, W10, W5, W15)
	SROUND(0x96, RC, RD, RE, RA, RB, W14, W11, W6, W0)
	SROUND(0x96, RB, RC, RD, RE, RA, W15, W12, W7, W1)

	VPADDD    (0*64)(DI), RA, RA
	VPADDD    (1*64)(DI), RB, RB
	VPADDD    (2*64)(DI), RC, RC
	VPADDD    (3*64)(DI), RD, RD
	VPADDD    (4*64)(DI), RE, RE
	VMOVDQU32 RA, (0*64)(DI)
	VMOVDQU32 RB, (1*64)(DI)
	VMOVDQU32 RC, (2*64)(DI)
	VMOVDQU32 RD, (3*64)(DI)
	VMOVDQU32 RE, (4*64)(DI)

	ADDQ $64, CX
	DECQ DX
	JNZ  loop

	VZEROUPPER
	RET

// The round constants, one per twenty rounds.
DATA k<>+0(SB)/4, $0x5a827999
DATA k<>+4(SB)/4, $0x6ed9eba1
DATA k<>+8(SB)/4, $0x8f1bbcdc
DATA k<>+12(SB)/4, $0xca62c1d6
GLOBL k<>(SB), RODATA|NOPTR, $16
