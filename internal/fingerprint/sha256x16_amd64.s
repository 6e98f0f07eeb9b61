// The 16-lane SHA-256 block function, the counterpart of sha1x16_amd64.s:
// crypto/sha256 hashes one message at a time, and sixteen independent
// chunks, one per 32-bit lane, are what 512-bit ALUs can run in parallel.

//go:build amd64 && !purego

#include "textflag.h"
#include "x16_amd64.h"

// Register plan of blockSHA256X16: every ZMM register holds one 32-bit
// word of each of the sixteen lanes. RA-RH are the working variables a-h;
// W0-W15 are the message schedule, W[t] in W(t mod 16); T1-T3 are a
// round's scratch. Before RA-RD are loaded they are the transpose's
// scratch.
#define RA Z0
#define RB Z1
#define RC Z2
#define RD Z3
#define RE Z4
#define RF Z5
#define RG Z6
#define RH Z7
#define T1 Z8
#define T2 Z9
#define T3 Z10
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

// ROUND is round t on every lane: h += Σ1(e) + Ch(e, f, g) + K[t] + w,
// d += h, h += Σ0(a) + Maj(a, b, c); the caller renames a-h instead of
// moving them, so h is the next round's a and d its e. Ch and Maj are
// the VPTERNLOGD truth tables 0xca over (e, f, g) and 0xe8 over
// (a, b, c); the three-way XOR of each Σ is 0x96.
#define ROUND(a, b, c, d, e, f, g, h, w, t) \
	VPADDD      w, h, h; \
	VPADDD.BCST (t*4)(R9), h, h; \
	VPRORD      $6, e, T1; \
	VPRORD      $11, e, T2; \
	VPRORD      $25, e, T3; \
	VPTERNLOGD  $0x96, T3, T2, T1; \
	VPADDD      T1, h, h; \
	VMOVDQA32   e, T1; \
	VPTERNLOGD  $0xca, g, f, T1; \
	VPADDD      T1, h, h; \
	VPADDD      h, d, d; \
	VPRORD      $2, a, T1; \
	VPRORD      $13, a, T2; \
	VPRORD      $22, a, T3; \
	VPTERNLOGD  $0x96, T3, T2, T1; \
	VPADDD      T1, h, h; \
	VMOVDQA32   a, T1; \
	VPTERNLOGD  $0xe8, c, b, T1; \
	VPADDD      T1, h, h

// SROUND is ROUND on W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16],
// computed in the register that held W[t-16].
#define SROUND(a, b, c, d, e, f, g, h, w, t, w1, w9, w14) \
	VPRORD     $7, w1, T1; \
	VPRORD     $18, w1, T2; \
	VPSRLD     $3, w1, T3; \
	VPTERNLOGD $0x96, T3, T2, T1; \
	VPADDD     T1, w, w; \
	VPRORD     $17, w14, T1; \
	VPRORD     $19, w14, T2; \
	VPSRLD     $10, w14, T3; \
	VPTERNLOGD $0x96, T3, T2, T1; \
	VPADDD     T1, w, w; \
	VPADDD     w9, w, w; \
	ROUND(a, b, c, d, e, f, g, h, w, t)

// func blockSHA256X16(h *[8][16]uint32, p *[16]*byte, n int)
//
// Folds n 64-byte blocks, at least one, into each lane's state: lane i
// reads p[i][0 : 64*n] and its state is h[0][i] to h[7][i].
TEXT ·blockSHA256X16(SB), NOSPLIT, $0-24
	MOVQ h+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ n+16(FP), DX
	LEAQ k256<>(SB), R9
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
	VMOVDQU32 (5*64)(DI), RF
	VMOVDQU32 (6*64)(DI), RG
	VMOVDQU32 (7*64)(DI), RH

	ROUND(RA, RB, RC, RD, RE, RF, RG, RH, W0, 0)
	ROUND(RH, RA, RB, RC, RD, RE, RF, RG, W1, 1)
	ROUND(RG, RH, RA, RB, RC, RD, RE, RF, W2, 2)
	ROUND(RF, RG, RH, RA, RB, RC, RD, RE, W3, 3)
	ROUND(RE, RF, RG, RH, RA, RB, RC, RD, W4, 4)
	ROUND(RD, RE, RF, RG, RH, RA, RB, RC, W5, 5)
	ROUND(RC, RD, RE, RF, RG, RH, RA, RB, W6, 6)
	ROUND(RB, RC, RD, RE, RF, RG, RH, RA, W7, 7)
	ROUND(RA, RB, RC, RD, RE, RF, RG, RH, W8, 8)
	ROUND(RH, RA, RB, RC, RD, RE, RF, RG, W9, 9)
	ROUND(RG, RH, RA, RB, RC, RD, RE, RF, W10, 10)
	ROUND(RF, RG, RH, RA, RB, RC, RD, RE, W11, 11)
	ROUND(RE, RF, RG, RH, RA, RB, RC, RD, W12, 12)
	ROUND(RD, RE, RF, RG, RH, RA, RB, RC, W13, 13)
	ROUND(RC, RD, RE, RF, RG, RH, RA, RB, W14, 14)
	ROUND(RB, RC, RD, RE, RF, RG, RH, RA, W15, 15)
	SROUND(RA, RB, RC, RD, RE, RF, RG, RH, W0, 16, W1, W9, W14)
	SROUND(RH, RA, RB, RC, RD, RE, RF, RG, W1, 17, W2, W10, W15)
	SROUND(RG, RH, RA, RB, RC, RD, RE, RF, W2, 18, W3, W11, W0)
	SROUND(RF, RG, RH, RA, RB, RC, RD, RE, W3, 19, W4, W12, W1)
	SROUND(RE, RF, RG, RH, RA, RB, RC, RD, W4, 20, W5, W13, W2)
	SROUND(RD, RE, RF, RG, RH, RA, RB, RC, W5, 21, W6, W14, W3)
	SROUND(RC, RD, RE, RF, RG, RH, RA, RB, W6, 22, W7, W15, W4)
	SROUND(RB, RC, RD, RE, RF, RG, RH, RA, W7, 23, W8, W0, W5)
	SROUND(RA, RB, RC, RD, RE, RF, RG, RH, W8, 24, W9, W1, W6)
	SROUND(RH, RA, RB, RC, RD, RE, RF, RG, W9, 25, W10, W2, W7)
	SROUND(RG, RH, RA, RB, RC, RD, RE, RF, W10, 26, W11, W3, W8)
	SROUND(RF, RG, RH, RA, RB, RC, RD, RE, W11, 27, W12, W4, W9)
	SROUND(RE, RF, RG, RH, RA, RB, RC, RD, W12, 28, W13, W5, W10)
	SROUND(RD, RE, RF, RG, RH, RA, RB, RC, W13, 29, W14, W6, W11)
	SROUND(RC, RD, RE, RF, RG, RH, RA, RB, W14, 30, W15, W7, W12)
	SROUND(RB, RC, RD, RE, RF, RG, RH, RA, W15, 31, W0, W8, W13)
	SROUND(RA, RB, RC, RD, RE, RF, RG, RH, W0, 32, W1, W9, W14)
	SROUND(RH, RA, RB, RC, RD, RE, RF, RG, W1, 33, W2, W10, W15)
	SROUND(RG, RH, RA, RB, RC, RD, RE, RF, W2, 34, W3, W11, W0)
	SROUND(RF, RG, RH, RA, RB, RC, RD, RE, W3, 35, W4, W12, W1)
	SROUND(RE, RF, RG, RH, RA, RB, RC, RD, W4, 36, W5, W13, W2)
	SROUND(RD, RE, RF, RG, RH, RA, RB, RC, W5, 37, W6, W14, W3)
	SROUND(RC, RD, RE, RF, RG, RH, RA, RB, W6, 38, W7, W15, W4)
	SROUND(RB, RC, RD, RE, RF, RG, RH, RA, W7, 39, W8, W0, W5)
	SROUND(RA, RB, RC, RD, RE, RF, RG, RH, W8, 40, W9, W1, W6)
	SROUND(RH, RA, RB, RC, RD, RE, RF, RG, W9, 41, W10, W2, W7)
	SROUND(RG, RH, RA, RB, RC, RD, RE, RF, W10, 42, W11, W3, W8)
	SROUND(RF, RG, RH, RA, RB, RC, RD, RE, W11, 43, W12, W4, W9)
	SROUND(RE, RF, RG, RH, RA, RB, RC, RD, W12, 44, W13, W5, W10)
	SROUND(RD, RE, RF, RG, RH, RA, RB, RC, W13, 45, W14, W6, W11)
	SROUND(RC, RD, RE, RF, RG, RH, RA, RB, W14, 46, W15, W7, W12)
	SROUND(RB, RC, RD, RE, RF, RG, RH, RA, W15, 47, W0, W8, W13)
	SROUND(RA, RB, RC, RD, RE, RF, RG, RH, W0, 48, W1, W9, W14)
	SROUND(RH, RA, RB, RC, RD, RE, RF, RG, W1, 49, W2, W10, W15)
	SROUND(RG, RH, RA, RB, RC, RD, RE, RF, W2, 50, W3, W11, W0)
	SROUND(RF, RG, RH, RA, RB, RC, RD, RE, W3, 51, W4, W12, W1)
	SROUND(RE, RF, RG, RH, RA, RB, RC, RD, W4, 52, W5, W13, W2)
	SROUND(RD, RE, RF, RG, RH, RA, RB, RC, W5, 53, W6, W14, W3)
	SROUND(RC, RD, RE, RF, RG, RH, RA, RB, W6, 54, W7, W15, W4)
	SROUND(RB, RC, RD, RE, RF, RG, RH, RA, W7, 55, W8, W0, W5)
	SROUND(RA, RB, RC, RD, RE, RF, RG, RH, W8, 56, W9, W1, W6)
	SROUND(RH, RA, RB, RC, RD, RE, RF, RG, W9, 57, W10, W2, W7)
	SROUND(RG, RH, RA, RB, RC, RD, RE, RF, W10, 58, W11, W3, W8)
	SROUND(RF, RG, RH, RA, RB, RC, RD, RE, W11, 59, W12, W4, W9)
	SROUND(RE, RF, RG, RH, RA, RB, RC, RD, W12, 60, W13, W5, W10)
	SROUND(RD, RE, RF, RG, RH, RA, RB, RC, W13, 61, W14, W6, W11)
	SROUND(RC, RD, RE, RF, RG, RH, RA, RB, W14, 62, W15, W7, W12)
	SROUND(RB, RC, RD, RE, RF, RG, RH, RA, W15, 63, W0, W8, W13)

	// Sixty-four renamings later a-h are back in RA-RH.
	VPADDD    (0*64)(DI), RA, RA
	VPADDD    (1*64)(DI), RB, RB
	VPADDD    (2*64)(DI), RC, RC
	VPADDD    (3*64)(DI), RD, RD
	VPADDD    (4*64)(DI), RE, RE
	VPADDD    (5*64)(DI), RF, RF
	VPADDD    (6*64)(DI), RG, RG
	VPADDD    (7*64)(DI), RH, RH
	VMOVDQU32 RA, (0*64)(DI)
	VMOVDQU32 RB, (1*64)(DI)
	VMOVDQU32 RC, (2*64)(DI)
	VMOVDQU32 RD, (3*64)(DI)
	VMOVDQU32 RE, (4*64)(DI)
	VMOVDQU32 RF, (5*64)(DI)
	VMOVDQU32 RG, (6*64)(DI)
	VMOVDQU32 RH, (7*64)(DI)

	ADDQ $64, CX
	DECQ DX
	JNZ  loop

	VZEROUPPER
	RET

// The round constants K[0..63], two per line, each broadcast to all
// lanes by the round that adds it.
DATA k256<>+0(SB)/8, $0x71374491428a2f98
DATA k256<>+8(SB)/8, $0xe9b5dba5b5c0fbcf
DATA k256<>+16(SB)/8, $0x59f111f13956c25b
DATA k256<>+24(SB)/8, $0xab1c5ed5923f82a4
DATA k256<>+32(SB)/8, $0x12835b01d807aa98
DATA k256<>+40(SB)/8, $0x550c7dc3243185be
DATA k256<>+48(SB)/8, $0x80deb1fe72be5d74
DATA k256<>+56(SB)/8, $0xc19bf1749bdc06a7
DATA k256<>+64(SB)/8, $0xefbe4786e49b69c1
DATA k256<>+72(SB)/8, $0x240ca1cc0fc19dc6
DATA k256<>+80(SB)/8, $0x4a7484aa2de92c6f
DATA k256<>+88(SB)/8, $0x76f988da5cb0a9dc
DATA k256<>+96(SB)/8, $0xa831c66d983e5152
DATA k256<>+104(SB)/8, $0xbf597fc7b00327c8
DATA k256<>+112(SB)/8, $0xd5a79147c6e00bf3
DATA k256<>+120(SB)/8, $0x1429296706ca6351
DATA k256<>+128(SB)/8, $0x2e1b213827b70a85
DATA k256<>+136(SB)/8, $0x53380d134d2c6dfc
DATA k256<>+144(SB)/8, $0x766a0abb650a7354
DATA k256<>+152(SB)/8, $0x92722c8581c2c92e
DATA k256<>+160(SB)/8, $0xa81a664ba2bfe8a1
DATA k256<>+168(SB)/8, $0xc76c51a3c24b8b70
DATA k256<>+176(SB)/8, $0xd6990624d192e819
DATA k256<>+184(SB)/8, $0x106aa070f40e3585
DATA k256<>+192(SB)/8, $0x1e376c0819a4c116
DATA k256<>+200(SB)/8, $0x34b0bcb52748774c
DATA k256<>+208(SB)/8, $0x4ed8aa4a391c0cb3
DATA k256<>+216(SB)/8, $0x682e6ff35b9cca4f
DATA k256<>+224(SB)/8, $0x78a5636f748f82ee
DATA k256<>+232(SB)/8, $0x8cc7020884c87814
DATA k256<>+240(SB)/8, $0xa4506ceb90befffa
DATA k256<>+248(SB)/8, $0xc67178f2bef9a3f7
GLOBL k256<>(SB), RODATA|NOPTR, $256
