#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV               // XCR0 into DX:AX
	ANDL $6, AX          // the OS saves XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func matVecTAVX(a []float64, rows, cols int, x, out []float64)
//
// out[c] = Σ_r a[r*cols+c]·x[r] with, for every c, exactly the operations
// of matVecTGo in the same order: the sum starts at +0, takes the rows in
// order, skips a row whose x[r] is ±0, and rounds each product before it
// adds it (VMULPD then VADDPD, never a fused multiply-add). The columns go
// in blocks of 32, 16, 4 and 1; a block's sums stay in registers while the
// rows stream past, each x[r] broadcast to all four lanes.
//
// SI = a, DI = x, DX = out, R8 = rows, R9 = cols, R10 = row stride in
// bytes, R11 = the block's first column, BX = the block's place in row CX.
TEXT ·matVecTAVX(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), SI
	MOVQ rows+24(FP), R8
	MOVQ cols+32(FP), R9
	MOVQ x_base+40(FP), DI
	MOVQ out_base+64(FP), DX
	MOVQ R9, R10
	SHLQ $3, R10
	XORQ R11, R11

block32:
	MOVQ R9, AX
	SUBQ R11, AX
	CMPQ AX, $32
	JLT  block16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (SI)(R11*8), BX
	XORQ CX, CX
row32:
	CMPQ CX, R8
	JGE  store32
	MOVQ (DI)(CX*8), AX
	SHLQ $1, AX          // drop the sign bit: zero iff x[r] is ±0
	JZ   next32
	VBROADCASTSD (DI)(CX*8), Y8
	VMULPD (BX), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(BX), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(BX), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(BX), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(BX), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 160(BX), Y8, Y10
	VADDPD Y10, Y5, Y5
	VMULPD 192(BX), Y8, Y11
	VADDPD Y11, Y6, Y6
	VMULPD 224(BX), Y8, Y12
	VADDPD Y12, Y7, Y7
next32:
	ADDQ R10, BX
	INCQ CX
	JMP  row32
store32:
	VMOVUPD Y0, (DX)(R11*8)
	VMOVUPD Y1, 32(DX)(R11*8)
	VMOVUPD Y2, 64(DX)(R11*8)
	VMOVUPD Y3, 96(DX)(R11*8)
	VMOVUPD Y4, 128(DX)(R11*8)
	VMOVUPD Y5, 160(DX)(R11*8)
	VMOVUPD Y6, 192(DX)(R11*8)
	VMOVUPD Y7, 224(DX)(R11*8)
	ADDQ $32, R11
	JMP  block32

block16:
	MOVQ R9, AX
	SUBQ R11, AX
	CMPQ AX, $16
	JLT  block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (SI)(R11*8), BX
	XORQ CX, CX
row16:
	CMPQ CX, R8
	JGE  store16
	MOVQ (DI)(CX*8), AX
	SHLQ $1, AX
	JZ   next16
	VBROADCASTSD (DI)(CX*8), Y8
	VMULPD (BX), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(BX), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(BX), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(BX), Y8, Y12
	VADDPD Y12, Y3, Y3
next16:
	ADDQ R10, BX
	INCQ CX
	JMP  row16
store16:
	VMOVUPD Y0, (DX)(R11*8)
	VMOVUPD Y1, 32(DX)(R11*8)
	VMOVUPD Y2, 64(DX)(R11*8)
	VMOVUPD Y3, 96(DX)(R11*8)
	ADDQ $16, R11

block4:
	MOVQ R9, AX
	SUBQ R11, AX
	CMPQ AX, $4
	JLT  tail
	VXORPD Y0, Y0, Y0
	LEAQ (SI)(R11*8), BX
	XORQ CX, CX
row4:
	CMPQ CX, R8
	JGE  store4
	MOVQ (DI)(CX*8), AX
	SHLQ $1, AX
	JZ   next4
	VBROADCASTSD (DI)(CX*8), Y8
	VMULPD (BX), Y8, Y9
	VADDPD Y9, Y0, Y0
next4:
	ADDQ R10, BX
	INCQ CX
	JMP  row4
store4:
	VMOVUPD Y0, (DX)(R11*8)
	ADDQ $4, R11
	JMP  block4

// The last cols % 4 columns, one at a time in the low lane.
tail:
	CMPQ R11, R9
	JGE  done
	VXORPD X0, X0, X0
	LEAQ (SI)(R11*8), BX
	XORQ CX, CX
row1:
	CMPQ CX, R8
	JGE  store1
	MOVQ (DI)(CX*8), AX
	SHLQ $1, AX
	JZ   next1
	VMOVSD (DI)(CX*8), X8
	VMULSD (BX), X8, X9
	VADDSD X9, X0, X0
next1:
	ADDQ R10, BX
	INCQ CX
	JMP  row1
store1:
	VMOVSD X0, (DX)(R11*8)
	INCQ R11
	JMP  tail

done:
	VZEROUPPER
	RET
