#include "textflag.h"

// The AVX2 octet kernel behind centroidSet.fold (EXPERIMENTS.md "Branch-free
// KMeans kernel"). It does foldBlock's IEEE operations in foldBlock's order,
// so its labels, acc and local are foldBlock's bits:
//
//   - A point's [X Y Z VX] widen with VCVTPS2PD, and four of them transpose
//     in registers into X, Y and Z columns; an octet is two such groups.
//   - Per centroid, e = (dx*dx + dy*dy) + dz*dz with no FMA. The label takes
//     c where e < D (LT_OQ) and D becomes VMINPD(e, D), e < D ? e : D. From
//     D = MaxFloat64, with e in +0…+Inf or NaN, that is foldBlock's uint64
//     compare and min of the distance bits.
//   - Then, per point in point order: local += d, the label's store, and
//     [X Y Z 1] + acc's row into the row. The point is the first operand,
//     as in a plain build of foldBlock (CVTSS2SD, then ADDSD from acc).
//     Only the payload of a sum of two NaNs depends on that order, and Go
//     does not fix it: a -race build of foldBlock adds the other way.
//
// Every instruction is VEX-encoded: a legacy SSE one among them costs an
// AVX/SSE transition on each pass.
//
// Frame: 0 the labels of the octet (eight int64 lanes), 64 its distances,
// 128 the int64 lanes' increment 1, 160 the four 1.0 of the count lane, 192
// the labels' row when lab is nil.

// ACC adds point j of the octet at SI: l = 8j, d = 64+8j, o = 4j, p = 24j.
#define ACC(l, d, o, p) \
	MOVQ         l(SP), R14; \
	MOVL         R14, o(DI); \
	VADDSD       d(SP), X15, X15; \
	VCVTPS2PD    p(SI), Y12; \
	VBLENDPD     $8, Y14, Y12, Y12; \
	SHLQ         $5, R14; \
	VADDPD       (BX)(R14*1), Y12, Y12; \
	VMOVUPD      Y12, (BX)(R14*1)

// LOAD4 widens the four points at off(SI) into X, Y and Z columns.
#define LOAD4(off, x, y, z) \
	VCVTPS2PD    off+0(SI), x; \
	VCVTPS2PD    off+24(SI), y; \
	VCVTPS2PD    off+48(SI), z; \
	VCVTPS2PD    off+72(SI), Y15; \
	VUNPCKLPD    y, x, Y12; \
	VUNPCKHPD    y, x, Y13; \
	VUNPCKLPD    Y15, z, Y14; \
	VUNPCKHPD    Y15, z, Y15; \
	VPERM2F128   $0x20, Y14, Y12, x; \
	VPERM2F128   $0x20, Y15, Y13, y; \
	VPERM2F128   $0x31, Y14, Y12, z

// NEAR folds the centroid in Y12-Y14 (its index in Y10) into one group:
// columns x, y, z, minimum dist, label lab.
#define NEAR(x, y, z, dist, lab) \
	VSUBPD       Y12, x, Y15; \
	VMULPD       Y15, Y15, Y15; \
	VSUBPD       Y13, y, Y11; \
	VMULPD       Y11, Y11, Y11; \
	VADDPD       Y11, Y15, Y15; \
	VSUBPD       Y14, z, Y11; \
	VMULPD       Y11, Y11, Y11; \
	VADDPD       Y11, Y15, Y15; \
	VCMPPD       $0x11, dist, Y15, Y11; \
	VMINPD       dist, Y15, dist; \
	VBLENDVPD    Y11, Y10, lab, lab

// func foldOcts(cen *float64, k int, pts *datagen.Particle, n int, acc *float64, lab *int32, local float64) float64
TEXT ·foldOcts(SB), NOSPLIT, $224-64
	MOVQ cen+0(FP), AX
	MOVQ k+8(FP), R11
	MOVQ pts+16(FP), SI
	MOVQ n+24(FP), DX
	MOVQ acc+32(FP), BX
	MOVQ lab+40(FP), DI
	MOVQ local+48(FP), R13
	MOVQ R11, R9
	SHLQ $3, R9                 // the y column's offset from x
	LEAQ (R9)(R9*1), R10        // the z column's
	MOVQ $32, R12               // the labels' step per octet
	TESTQ DI, DI
	JNZ  consts
	LEAQ 192(SP), DI
	XORQ R12, R12

consts:
	MOVQ         $1, R14
	VMOVQ        R14, X15
	VPBROADCASTQ X15, Y15
	VMOVDQU      Y15, 128(SP)
	MOVQ         $0x3ff0000000000000, R14
	VMOVQ        R14, X15
	VPBROADCASTQ X15, Y15
	VMOVDQU      Y15, 160(SP)
	SHRQ         $3, DX
	JZ           done

octet:
	LOAD4(0, Y0, Y1, Y2)
	LOAD4(96, Y3, Y4, Y5)
	MOVQ         $0x7fefffffffffffff, R14
	VMOVQ        R14, X6
	VPBROADCASTQ X6, Y6
	VMOVDQU      Y6, Y7
	VPXOR        Y8, Y8, Y8
	VPXOR        Y9, Y9, Y9
	VPXOR        Y10, Y10, Y10
	MOVQ         AX, R8
	MOVQ         R11, CX

centroid:
	VBROADCASTSD (R8), Y12
	VBROADCASTSD (R8)(R9*1), Y13
	VBROADCASTSD (R8)(R10*1), Y14
	NEAR(Y0, Y1, Y2, Y6, Y8)
	NEAR(Y3, Y4, Y5, Y7, Y9)
	VPADDQ       128(SP), Y10, Y10
	ADDQ         $8, R8
	DECQ         CX
	JNZ          centroid

	VMOVDQU      Y8, 0(SP)
	VMOVDQU      Y9, 32(SP)
	VMOVUPD      Y6, 64(SP)
	VMOVUPD      Y7, 96(SP)
	VMOVQ        R13, X15
	VMOVUPD      160(SP), Y14
	ACC(0, 64, 0, 0)
	ACC(8, 72, 4, 24)
	ACC(16, 80, 8, 48)
	ACC(24, 88, 12, 72)
	ACC(32, 96, 16, 96)
	ACC(40, 104, 20, 120)
	ACC(48, 112, 24, 144)
	ACC(56, 120, 28, 168)
	VMOVQ        X15, R13
	ADDQ         $192, SI
	ADDQ         R12, DI
	DECQ         DX
	JNZ          octet

done:
	VZEROUPPER
	MOVQ R13, ret+56(FP)
	RET
