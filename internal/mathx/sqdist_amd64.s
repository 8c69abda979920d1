#include "textflag.h"

// func sqDist16AVX(block, pred []float64, rowLen int, bound float64, out *[Lanes]float64) bool
//
// out[ℓ] = Σ_k (pred[k] − block[k*16+ℓ])² for the 16 lanes ℓ, with, for
// every lane, exactly the operations of sqDist16Go in the same order: the
// sum starts at +0, takes the elements in order, and rounds the difference
// and the square before it adds (VSUBPD, VMULPD, VADDPD, never a fused
// multiply-add). Y0–Y3 hold lanes 0–3, 4–7, 8–11 and 12–15: four
// independent add chains. After every rowLen elements, and after the last,
// the group is abandoned once all 16 sums are >= bound (VCMPPD GE_OQ, false
// on NaN, then VMOVMSKPD).
//
// SI = block, DI = pred, R8 = len(pred), R9 = rowLen, CX = the element,
// BX = the end of the current row, Y9 = bound in every lane.
TEXT ·sqDist16AVX(SB), NOSPLIT, $0-73
	MOVQ block_base+0(FP), SI
	MOVQ pred_base+24(FP), DI
	MOVQ pred_len+32(FP), R8
	MOVQ rowLen+48(FP), R9
	VBROADCASTSD bound+56(FP), Y9
	MOVQ out+64(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ CX, CX

row:
	CMPQ CX, R8
	JGE  whole
	MOVQ CX, BX
	ADDQ R9, BX
	CMPQ BX, R8
	CMOVQGT R8, BX       // BX = min(CX+rowLen, len(pred))

elem:
	VBROADCASTSD (DI)(CX*8), Y4
	VSUBPD (SI), Y4, Y5
	VSUBPD 32(SI), Y4, Y6
	VSUBPD 64(SI), Y4, Y7
	VSUBPD 96(SI), Y4, Y8
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VMULPD Y8, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $128, SI
	INCQ CX
	CMPQ CX, BX
	JLT  elem

	VCMPPD $0x0d, Y9, Y0, Y10 // GE_OQ: Y10 = Y0 >= bound, lane by lane
	VCMPPD $0x0d, Y9, Y1, Y11
	VCMPPD $0x0d, Y9, Y2, Y12
	VCMPPD $0x0d, Y9, Y3, Y13
	VANDPD Y11, Y10, Y10
	VANDPD Y13, Y12, Y12
	VANDPD Y12, Y10, Y10
	VMOVMSKPD Y10, AX
	CMPQ AX, $15
	JNE  row
	MOVB $1, ret+72(FP)
	JMP  store

whole:
	MOVB $0, ret+72(FP)

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET
