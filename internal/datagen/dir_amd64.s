#include "textflag.h"

// The AVX2 kernel behind directions (EXPERIMENTS.md "Exact particle
// directions"): four particles at a time, math.Sincos(θ), math.Acos(u) and
// math.Sincos(φ) with the stdlib's IEEE operations in the stdlib's order,
// so every lane has the bits the Go calls give. No FMA: on amd64 Go rounds
// each product of these functions before its add.
//
// SINCOS, for 0 ≤ x < 2^29 (the stdlib's reduceThreshold):
//   - j = uint64(x*(4/π)) is a truncation (VCVTTPD2DQ), and the stdlib's
//     "if j&1 == 1 { j++; y++ }" is y = float64(j + j&1).
//   - z = ((x - y·PI4A) - y·PI4B) - y·PI4C, zz = z·z; the cosine is
//     (1 - 0.5·zz) + (zz·zz)·p and the sine z + (z·zz)·p, p each one's
//     Horner polynomial.
//   - With j even, bit 2 of j reflects in the x axis (both signs flip) and
//     bit 1 swaps sine and cosine and flips the cosine's sign: VPSLLQ moves
//     each bit to a lane's sign, where VBLENDVPD reads it and VXORPD
//     applies it.
//
// ACOS, for -1 ≤ u ≤ 1, is π/2 - asin(u), asin(u) the sign of u on
// asin(|u|). With x = |u| and t = sqrt(1 - x·x), asin(x) is π/2 - satan(t/x)
// where x > 0.7 (GT, not GE), else satan(x/t): one VDIVPD of two blends.
// satan(a) is xatan(a) where a ≤ 0.66, else (π/4 + xatan((a-1)/(a+1))) +
// 0.5·Morebits, one constant as Go folds it: again one VDIVPD (a/1 is a).
// That last add is below half an ulp of π/4 + xatan ≥ 0.58, so it never
// changes a bit; it stays to mirror satan. satan's third range, a >
// tan(3π/8), cannot occur: a ≤ 0.7/sqrt(0.51) < 1.03. xatan(t) is
// t·((z·P)/Q) + t, z = t·t.
//
// Constants are 32-byte rows of four equal lanes in dirc.

#define FOPI 0
#define PI4A 32
#define PI4B 64
#define PI4C 96
#define SIN0 128
#define COS0 320
#define HALF 512
#define ONE 544
#define SIGN 576
#define ABS 608
#define C07 640
#define C066 672
#define P0 704
#define Q0 864
#define PIO2 1024
#define PIO4 1056
#define HMORE 1088
#define ONES32 1120

#define K4(off, bits) \
	DATA dirc<>+off+0(SB)/8, $bits; \
	DATA dirc<>+off+8(SB)/8, $bits; \
	DATA dirc<>+off+16(SB)/8, $bits; \
	DATA dirc<>+off+24(SB)/8, $bits

K4(FOPI, 0x3ff45f306dc9c883)
K4(PI4A, 0x3fe921fb40000000)
K4(PI4B, 0x3e64442d00000000)
K4(PI4C, 0x3ce8469898cc5170)
K4(SIN0+0, 0x3de5d8fd1fd19ccd)
K4(SIN0+32, 0xbe5ae5e5a9291f5d)
K4(SIN0+64, 0x3ec71de3567d48a1)
K4(SIN0+96, 0xbf2a01a019bfdf03)
K4(SIN0+128, 0x3f8111111110f7d0)
K4(SIN0+160, 0xbfc5555555555548)
K4(COS0+0, 0xbda8fa49a0861a9b)
K4(COS0+32, 0x3e21ee9d7b4e3f05)
K4(COS0+64, 0xbe927e4f7eac4bc6)
K4(COS0+96, 0x3efa01a019c844f5)
K4(COS0+128, 0xbf56c16c16c14f91)
K4(COS0+160, 0x3fa555555555554b)
K4(HALF, 0x3fe0000000000000)
K4(ONE, 0x3ff0000000000000)
K4(SIGN, 0x8000000000000000)
K4(ABS, 0x7fffffffffffffff)
K4(C07, 0x3fe6666666666666)
K4(C066, 0x3fe51eb851eb851f)
K4(P0+0, 0xbfec007fa1f72594)
K4(P0+32, 0xc03028545b6b807a)
K4(P0+64, 0xc052c08c36880273)
K4(P0+96, 0xc05eb8bf2d05ba25)
K4(P0+128, 0xc0503669fd28ec8e)
K4(Q0+0, 0x4038dbc45b14603c)
K4(Q0+32, 0x4064a0dd43b8fa25)
K4(Q0+64, 0x407b0e18d2e2be3b)
K4(Q0+96, 0x407e563f13b049ea)
K4(Q0+128, 0x4068519efbbd62ec)
K4(PIO2, 0x3ff921fb54442d18)
K4(PIO4, 0x3fe921fb54442d18)
K4(HMORE, 0x3c81a62633145c07)
K4(ONES32, 0x0000000100000001)
GLOBL dirc<>(SB), RODATA|NOPTR, $1152

// HORNER takes acc, holding a product with z, through four more Horner
// steps: acc = (((acc + c1)·z + c2)·z + c3)·z + c4, c the row of c0.
#define HORNER(c, z, acc) \
	VADDPD dirc<>+c+32(SB), acc, acc; \
	VMULPD z, acc, acc; \
	VADDPD dirc<>+c+64(SB), acc, acc; \
	VMULPD z, acc, acc; \
	VADDPD dirc<>+c+96(SB), acc, acc; \
	VMULPD z, acc, acc; \
	VADDPD dirc<>+c+128(SB), acc, acc

// SINCOS stores the sines and cosines of the four angles in x (Y1-Y13
// scratch).
#define SINCOS(x, sdst, cdst) \
	VMULPD      dirc<>+FOPI(SB), x, Y1; \
	VCVTTPD2DQY Y1, X1; \
	VPAND       dirc<>+ONES32(SB), X1, X2; \
	VPADDD      X2, X1, X1; \
	VCVTDQ2PD   X1, Y2; \
	VPMOVZXDQ   X1, Y3; \
	VPSLLQ      $62, Y3, Y4; \
	VPSLLQ      $61, Y3, Y3; \
	VXORPD      Y4, Y3, Y5; \
	VANDPD      dirc<>+SIGN(SB), Y3, Y3; \
	VANDPD      dirc<>+SIGN(SB), Y5, Y5; \
	VMULPD      dirc<>+PI4A(SB), Y2, Y6; \
	VSUBPD      Y6, x, Y6; \
	VMULPD      dirc<>+PI4B(SB), Y2, Y7; \
	VSUBPD      Y7, Y6, Y6; \
	VMULPD      dirc<>+PI4C(SB), Y2, Y7; \
	VSUBPD      Y7, Y6, Y6; \
	VMULPD      Y6, Y6, Y7; \
	VMULPD      dirc<>+COS0(SB), Y7, Y8; \
	HORNER(COS0, Y7, Y8); \
	VMULPD      Y7, Y8, Y8; \
	VADDPD      dirc<>+COS0+160(SB), Y8, Y8; \
	VMULPD      dirc<>+SIN0(SB), Y7, Y9; \
	HORNER(SIN0, Y7, Y9); \
	VMULPD      Y7, Y9, Y9; \
	VADDPD      dirc<>+SIN0+160(SB), Y9, Y9; \
	VMULPD      dirc<>+HALF(SB), Y7, Y10; \
	VMOVUPD     dirc<>+ONE(SB), Y11; \
	VSUBPD      Y10, Y11, Y10; \
	VMULPD      Y7, Y7, Y11; \
	VMULPD      Y8, Y11, Y11; \
	VADDPD      Y11, Y10, Y10; \
	VMULPD      Y7, Y6, Y11; \
	VMULPD      Y9, Y11, Y11; \
	VADDPD      Y11, Y6, Y11; \
	VBLENDVPD   Y4, Y10, Y11, Y12; \
	VBLENDVPD   Y4, Y11, Y10, Y13; \
	VXORPD      Y3, Y12, Y12; \
	VXORPD      Y5, Y13, Y13; \
	VMOVUPD     Y12, sdst; \
	VMOVUPD     Y13, cdst

// ACOS replaces the four cosines in Y0 with their angles (Y1-Y12 scratch).
#define ACOS \
	VANDPD      dirc<>+ABS(SB), Y0, Y1; \
	VANDPD      dirc<>+SIGN(SB), Y0, Y2; \
	VMULPD      Y1, Y1, Y3; \
	VMOVUPD     dirc<>+ONE(SB), Y4; \
	VSUBPD      Y3, Y4, Y3; \
	VSQRTPD     Y3, Y3; \
	VCMPPD      $0x1e, dirc<>+C07(SB), Y1, Y5; \
	VBLENDVPD   Y5, Y3, Y1, Y6; \
	VBLENDVPD   Y5, Y1, Y3, Y7; \
	VDIVPD      Y7, Y6, Y6; \
	VCMPPD      $0x12, dirc<>+C066(SB), Y6, Y7; \
	VSUBPD      Y4, Y6, Y8; \
	VADDPD      Y4, Y6, Y9; \
	VBLENDVPD   Y7, Y6, Y8, Y8; \
	VBLENDVPD   Y7, Y4, Y9, Y9; \
	VDIVPD      Y9, Y8, Y8; \
	VMULPD      Y8, Y8, Y9; \
	VMULPD      dirc<>+P0(SB), Y9, Y10; \
	HORNER(P0, Y9, Y10); \
	VADDPD      dirc<>+Q0(SB), Y9, Y11; \
	VMULPD      Y9, Y11, Y11; \
	HORNER(Q0, Y9, Y11); \
	VMULPD      Y10, Y9, Y10; \
	VDIVPD      Y11, Y10, Y10; \
	VMULPD      Y10, Y8, Y10; \
	VADDPD      Y8, Y10, Y10; \
	VADDPD      dirc<>+PIO4(SB), Y10, Y11; \
	VADDPD      dirc<>+HMORE(SB), Y11, Y11; \
	VBLENDVPD   Y7, Y10, Y11, Y10; \
	VMOVUPD     dirc<>+PIO2(SB), Y11; \
	VSUBPD      Y10, Y11, Y12; \
	VBLENDVPD   Y5, Y12, Y10, Y10; \
	VXORPD      Y2, Y10, Y10; \
	VSUBPD      Y10, Y11, Y0

// func dirQuads(theta, u, sinT, cosT, sinP, cosP *float64, n int)
TEXT ·dirQuads(SB), NOSPLIT, $0-56
	MOVQ theta+0(FP), SI
	MOVQ u+8(FP), DI
	MOVQ sinT+16(FP), R8
	MOVQ cosT+24(FP), R9
	MOVQ sinP+32(FP), R10
	MOVQ cosP+40(FP), R11
	MOVQ n+48(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

quad:
	VMOVUPD (SI)(AX*1), Y0
	SINCOS(Y0, (R8)(AX*1), (R9)(AX*1))
	VMOVUPD (DI)(AX*1), Y0
	ACOS
	SINCOS(Y0, (R10)(AX*1), (R11)(AX*1))
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      quad

	VZEROUPPER
	RET
