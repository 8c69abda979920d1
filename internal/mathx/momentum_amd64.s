#include "textflag.h"

// func momentumStepAVX(w, v []float64, rows, cols int, x, delta, below []float64, lr, mo float64)
//
// For the first rows rows (a multiple of 4) of the rows×cols weights w and
// velocities v (cols a multiple of 4), the result of momentumStepGo with
// nlr = −lr, bit for bit. Per element it computes
//
//	a = v·mo;  h = (lr·delta[r])·x[c];  v = a − h;  w += v
//	below[c] = Σ_r w_old·delta[r], in order from +0
//
// each product rounded before it is added (VMULPD, then VADDPD or VSUBPD,
// never a fused multiply-add). lr·d is exactly −(nlr·d) and h exactly
// −((nlr·d)·x[c]), since negation commutes with rounding, and a − h is
// a + (−h) in IEEE arithmetic, so v gets the Go body's a += f·x[c] bits; a
// NaN h carries the NaN of d or x[c] either way (a NaN lr, whose sign would
// flip, never comes here). Where delta[r] is exactly ±0 (VCMPPD NEQ_UQ
// against +0, which is Go's d != 0, NaN included), h and the backprop
// product are masked to +0 (VANDPD): a − (+0) is a for every a, −0
// included, and below's sum, started at +0, is never −0, so adding +0
// leaves it too. That is the Go body's skip, with no branch.
//
// Four rows go at a time, four outputs per block. A block loads its rows'
// weights and velocities before it stores any: w and v have one shape and
// large arrays start on a page, so a load issued after a store a multiple
// of 4 KiB away (the same row of the other array) would wait on it. The four rows' products are transposed 4×4
// (VUNPCKLPD/VUNPCKHPD, then VPERM2F128), so lane i of Y12 adds row c+i's
// products output by output, in order. A nil below skips the stores.
//
// SI = w and DI = v at (row c, output r), BX = delta[r], DX = the end of
// delta, R13 = x[c], R11 = below[c] (0 when below is nil), R10 = the row
// stride in bytes, R12 = three strides, CX = c, R8 = rows. Y12 holds the
// four backprop sums, Y13 +0, Y14 lr and Y15 mo in every lane.
TEXT ·momentumStepAVX(SB), NOSPLIT, $0-152
	MOVQ w_base+0(FP), SI
	MOVQ v_base+24(FP), DI
	MOVQ rows+48(FP), R8
	MOVQ cols+56(FP), R10
	MOVQ x_base+64(FP), R13
	MOVQ delta_base+88(FP), DX
	MOVQ below_base+112(FP), R11
	VBROADCASTSD lr+136(FP), Y14
	VBROADCASTSD mo+144(FP), Y15
	VXORPD Y13, Y13, Y13
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R12
	ADDQ R10, DX // DX = &delta[cols]
	XORQ CX, CX

group:
	CMPQ CX, R8
	JGE  done
	VXORPD Y12, Y12, Y12
	MOVQ delta_base+88(FP), BX

block:
	CMPQ BX, DX
	JGE  sums
	VMOVUPD (BX), Y0       // d
	VCMPPD $4, Y13, Y0, Y1 // NEQ_UQ: all ones where d != 0
	VMULPD Y14, Y0, Y2     // lr·d
	VMOVUPD (SI), Y4       // w_old, rows c..c+3
	VMOVUPD (SI)(R10*1), Y5
	VMOVUPD (SI)(R10*2), Y6
	VMOVUPD (SI)(R12*1), Y7
	VMULPD (DI), Y15, Y8   // a = v·mo
	VMULPD (DI)(R10*1), Y15, Y9
	VMULPD (DI)(R10*2), Y15, Y10
	VMULPD (DI)(R12*1), Y15, Y11

	// Row c.
	VBROADCASTSD 0(R13), Y3
	VMULPD Y3, Y2, Y3         // h = (lr·d)·x
	VANDPD Y1, Y3, Y3         // +0 where d == 0
	VSUBPD Y3, Y8, Y8
	VMOVUPD Y8, (DI)
	VADDPD Y8, Y4, Y8
	VMOVUPD Y8, (SI)
	VMULPD Y0, Y4, Y4         // w_old·d
	VANDPD Y1, Y4, Y4

	// Row c+1.
	VBROADCASTSD 8(R13), Y3
	VMULPD Y3, Y2, Y3         // h = (lr·d)·x
	VANDPD Y1, Y3, Y3         // +0 where d == 0
	VSUBPD Y3, Y9, Y9
	VMOVUPD Y9, (DI)(R10*1)
	VADDPD Y9, Y5, Y9
	VMOVUPD Y9, (SI)(R10*1)
	VMULPD Y0, Y5, Y5         // w_old·d
	VANDPD Y1, Y5, Y5

	// Row c+2.
	VBROADCASTSD 16(R13), Y3
	VMULPD Y3, Y2, Y3         // h = (lr·d)·x
	VANDPD Y1, Y3, Y3         // +0 where d == 0
	VSUBPD Y3, Y10, Y10
	VMOVUPD Y10, (DI)(R10*2)
	VADDPD Y10, Y6, Y10
	VMOVUPD Y10, (SI)(R10*2)
	VMULPD Y0, Y6, Y6         // w_old·d
	VANDPD Y1, Y6, Y6

	// Row c+3.
	VBROADCASTSD 24(R13), Y3
	VMULPD Y3, Y2, Y3         // h = (lr·d)·x
	VANDPD Y1, Y3, Y3         // +0 where d == 0
	VSUBPD Y3, Y11, Y11
	VMOVUPD Y11, (DI)(R12*1)
	VADDPD Y11, Y7, Y11
	VMOVUPD Y11, (SI)(R12*1)
	VMULPD Y0, Y7, Y7         // w_old·d
	VANDPD Y1, Y7, Y7

	// Y4–Y7 hold rows c..c+3, lanes r..r+3; transpose to one register per
	// output, lanes c..c+3, and add the outputs in order.
	VUNPCKLPD Y5, Y4, Y0         // c0r0 c1r0 c0r2 c1r2
	VUNPCKHPD Y5, Y4, Y1         // c0r1 c1r1 c0r3 c1r3
	VUNPCKLPD Y7, Y6, Y2         // c2r0 c3r0 c2r2 c3r2
	VUNPCKHPD Y7, Y6, Y3         // c2r1 c3r1 c2r3 c3r3
	VPERM2F128 $0x20, Y2, Y0, Y4 // output r
	VPERM2F128 $0x20, Y3, Y1, Y5 // output r+1
	VPERM2F128 $0x31, Y2, Y0, Y6 // output r+2
	VPERM2F128 $0x31, Y3, Y1, Y7 // output r+3
	VADDPD Y4, Y12, Y12
	VADDPD Y5, Y12, Y12
	VADDPD Y6, Y12, Y12
	VADDPD Y7, Y12, Y12

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, BX
	JMP  block

sums:
	TESTQ R11, R11
	JZ    next
	VMOVUPD Y12, (R11)
	ADDQ  $32, R11

next:
	ADDQ R12, SI // the block loop left SI and DI on row c+1
	ADDQ R12, DI
	ADDQ $32, R13
	ADDQ $4, CX
	JMP  group

done:
	VZEROUPPER
	RET
