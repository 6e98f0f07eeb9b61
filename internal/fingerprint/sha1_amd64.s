// Delete when go.mod reaches 1.25: that release's crypto/sha1 ships the
// same SHA-extensions kernel (see kernels.go).

//go:build amd64 && !purego

#include "textflag.h"

// Register plan of blockSHANI. The four message registers hold W[4i..4i+3]
// of the schedule, rotating through the twenty four-round groups; the two
// E registers alternate between "E for this group" and "ABCD before this
// group" (from which SHA1NEXTE derives the next group's E).
#define ABCD  X0
#define E0    X1
#define E1    X2
#define M0    X3
#define M1    X4
#define M2    X5
#define M3    X6
#define SWAP  X7
#define ABCD0 X8
#define E00   X9

// LOAD reads sixteen message bytes big-endian into m.
#define LOAD(off, m) \
	MOVOU off(SI), m; \
	PSHUFB SWAP, m

// ROUNDS4 runs four rounds with round function f (0-3) on message group
// cur, e holding the previous group's pre-round ABCD and enext receiving
// this group's.
#define ROUNDS4(f, e, enext, cur) \
	SHA1NEXTE cur, e; \
	MOVO      ABCD, enext; \
	SHA1RNDS4 $f, e, ABCD

// SCHED is ROUNDS4 plus this group's share of the message schedule:
// cur completes next (W[t-3] term), starts far (W[t-14] xor W[t-16]) and
// is folded into mid (W[t-8] term).
#define SCHED(f, e, enext, cur, next, mid, far) \
	ROUNDS4(f, e, enext, cur); \
	SHA1MSG2 cur, next; \
	SHA1MSG1 cur, far; \
	PXOR     cur, mid

// func blockSHANI(h *[5]uint32, p []byte)
//
// p is a whole number of 64-byte blocks, at least one.
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	SHRQ $6, DX

	MOVOU  (DI), ABCD
	PSHUFD $0x1b, ABCD, ABCD // a in the top lane, as SHA1RNDS4 wants it
	PXOR   E0, E0
	PINSRD $3, 16(DI), E0
	MOVOU  bswap<>(SB), SWAP

loop:
	MOVO ABCD, ABCD0
	MOVO E0, E00

	// Rounds 0-15: the message as loaded. The first group adds W to e
	// directly — there is no previous ABCD to rotate e out of.
	LOAD(0, M0)
	PADDD     M0, E0
	MOVO      ABCD, E1
	SHA1RNDS4 $0, E0, ABCD

	LOAD(16, M1)
	ROUNDS4(0, E1, E0, M1)
	SHA1MSG1 M1, M0

	LOAD(32, M2)
	ROUNDS4(0, E0, E1, M2)
	SHA1MSG1 M2, M1
	PXOR     M2, M0

	LOAD(48, M3)

	// Rounds 12-67: fourteen scheduled groups.
	SCHED(0, E1, E0, M3, M0, M1, M2)
	SCHED(0, E0, E1, M0, M1, M2, M3)
	SCHED(1, E1, E0, M1, M2, M3, M0)
	SCHED(1, E0, E1, M2, M3, M0, M1)
	SCHED(1, E1, E0, M3, M0, M1, M2)
	SCHED(1, E0, E1, M0, M1, M2, M3)
	SCHED(1, E1, E0, M1, M2, M3, M0)
	SCHED(2, E0, E1, M2, M3, M0, M1)
	SCHED(2, E1, E0, M3, M0, M1, M2)
	SCHED(2, E0, E1, M0, M1, M2, M3)
	SCHED(2, E1, E0, M1, M2, M3, M0)
	SCHED(2, E0, E1, M2, M3, M0, M1)
	SCHED(3, E1, E0, M3, M0, M1, M2)
	SCHED(3, E0, E1, M0, M1, M2, M3)

	// Rounds 68-79: the schedule runs out.
	ROUNDS4(3, E1, E0, M1)
	SHA1MSG2 M1, M2
	PXOR     M1, M3

	ROUNDS4(3, E0, E1, M2)
	SHA1MSG2 M2, M3

	ROUNDS4(3, E1, E0, M3)

	SHA1NEXTE E00, E0
	PADDD     ABCD0, ABCD

	ADDQ $64, SI
	DECQ DX
	JNZ  loop

	PSHUFD $0x1b, ABCD, ABCD
	MOVOU  ABCD, (DI)
	PEXTRD $3, E0, 16(DI)
	RET

// PSHUFB mask reversing all sixteen bytes: big-endian words, first word in
// the top lane.
DATA bswap<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap<>+8(SB)/8, $0x0001020304050607
GLOBL bswap<>(SB), RODATA|NOPTR, $16
