// The message load both 16-lane kernels share (sha1x16_amd64.s,
// sha256x16_amd64.s): sixteen lanes' 64-byte blocks, byte-swapped to
// big-endian words and transposed so that Z16 + j holds word j of every
// lane. Expects p, the *[16]*byte of lane pointers, in SI and the block's
// offset in CX; Z0-Z3 are its scratch.

// LOADROW reads lane i's 64-byte block into z with its words big-endian.
#define LOADROW(i, z) \
	MOVQ      (i*8)(SI), R8; \
	VMOVDQU32 (R8)(CX*1), z; \
	VPSHUFB   bswap32<>(SB), z, z

// GROUP4 is the first half of the 16x16 word transpose, for the rows of
// four lanes: afterwards the m-th register holds, in 128-bit chunk k,
// word 4k+m of the four lanes.
#define GROUP4(r0, r1, r2, r3) \
	VPUNPCKLDQ  r1, r0, Z0; \
	VPUNPCKHDQ  r1, r0, Z1; \
	VPUNPCKLDQ  r3, r2, Z2; \
	VPUNPCKHDQ  r3, r2, Z3; \
	VPUNPCKLQDQ Z2, Z0, r0; \
	VPUNPCKHQDQ Z2, Z0, r1; \
	VPUNPCKLQDQ Z3, Z1, r2; \
	VPUNPCKHQDQ Z3, Z1, r3

// CROSS4 is the second half: a 4x4 transpose of 128-bit chunks across the
// m-th registers of the four groups, leaving W[m], W[m+4], W[m+8] and
// W[m+12] of all sixteen lanes in the registers they came from.
#define CROSS4(u0, u1, u2, u3) \
	VSHUFI32X4 $0x44, u1, u0, Z0; \
	VSHUFI32X4 $0xee, u1, u0, Z1; \
	VSHUFI32X4 $0x44, u3, u2, Z2; \
	VSHUFI32X4 $0xee, u3, u2, Z3; \
	VSHUFI32X4 $0x88, Z2, Z0, u0; \
	VSHUFI32X4 $0xdd, Z2, Z0, u1; \
	VSHUFI32X4 $0x88, Z3, Z1, u2; \
	VSHUFI32X4 $0xdd, Z3, Z1, u3

// LOADX16: lane i's block into Z16 + i, then transposed.
#define LOADX16 \
	LOADROW(0, Z16); \
	LOADROW(1, Z17); \
	LOADROW(2, Z18); \
	LOADROW(3, Z19); \
	LOADROW(4, Z20); \
	LOADROW(5, Z21); \
	LOADROW(6, Z22); \
	LOADROW(7, Z23); \
	LOADROW(8, Z24); \
	LOADROW(9, Z25); \
	LOADROW(10, Z26); \
	LOADROW(11, Z27); \
	LOADROW(12, Z28); \
	LOADROW(13, Z29); \
	LOADROW(14, Z30); \
	LOADROW(15, Z31); \
	GROUP4(Z16, Z17, Z18, Z19); \
	GROUP4(Z20, Z21, Z22, Z23); \
	GROUP4(Z24, Z25, Z26, Z27); \
	GROUP4(Z28, Z29, Z30, Z31); \
	CROSS4(Z16, Z20, Z24, Z28); \
	CROSS4(Z17, Z21, Z25, Z29); \
	CROSS4(Z18, Z22, Z26, Z30); \
	CROSS4(Z19, Z23, Z27, Z31)

// VPSHUFB mask reversing the bytes of every 32-bit word.
DATA bswap32<>+0(SB)/8, $0x0405060700010203
DATA bswap32<>+8(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap32<>+16(SB)/8, $0x0405060700010203
DATA bswap32<>+24(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap32<>+32(SB)/8, $0x0405060700010203
DATA bswap32<>+40(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap32<>+48(SB)/8, $0x0405060700010203
DATA bswap32<>+56(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswap32<>(SB), RODATA|NOPTR, $64
