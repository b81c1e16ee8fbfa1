//go:build !purego

#include "textflag.h"

// The training kernels: the row update y += f·x (Axpy), GateBackward
// whole, the RMSprop weight update, the clip decision's eight-chain sum
// of squares, and the weight transposes. The arithmetic ones are
// element-wise, so a lane owns one element (or one chain) and performs
// the scalar loop's operations for it in the scalar loop's order, each
// rounded on its own (separate VMULPD/VADDPD/VSQRTPD/VDIVPD, never FMA):
// every element comes out bit-identical to the Go loop whatever the
// width. Scalar tails are VEX-encoded (VMULSD, not MULSD): a legacy-SSE
// instruction run while the upper halves are dirty costs a state
// transition per call, and calls here are many and short.

// func axpy256(f float64, x, y []float64)
//
// y[i] = y[i] + f·x[i] for i < len(x), axpy4 bit for bit. Sixteen
// elements at a time, then four, then one. len(y) >= len(x); the caller
// checks.
TEXT ·axpy256(SB), NOSPLIT, $0-56
	VBROADCASTSD f+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI

axpyblk16:
	CMPQ CX, $16
	JLT  axpyblk4
	VMULPD (SI), Y0, Y1
	VMULPD 32(SI), Y0, Y2
	VMULPD 64(SI), Y0, Y3
	VMULPD 96(SI), Y0, Y4
	VADDPD (DI), Y1, Y1
	VADDPD 32(DI), Y2, Y2
	VADDPD 64(DI), Y3, Y3
	VADDPD 96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  axpyblk16

axpyblk4:
	CMPQ CX, $4
	JLT  axpyone
	VMULPD (SI), Y0, Y1
	VADDPD (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  axpyblk4

axpyone:
	TESTQ CX, CX
	JZ   axpydone
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  axpyone

axpydone:
	VZEROUPPER
	RET

// func axpy512(f float64, x, y []float64)
//
// axpy256 at eight lanes: thirty-two elements at a time, then eight, then
// the last one to seven under the opmask K1, whose masked loads neither
// read nor fault past the end.
TEXT ·axpy512(SB), NOSPLIT, $0-56
	VBROADCASTSD f+0(FP), Z0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI

axpy32z:
	CMPQ CX, $32
	JLT  axpy8z
	VMULPD (SI), Z0, Z1
	VMULPD 64(SI), Z0, Z2
	VMULPD 128(SI), Z0, Z3
	VMULPD 192(SI), Z0, Z4
	VADDPD (DI), Z1, Z1
	VADDPD 64(DI), Z2, Z2
	VADDPD 128(DI), Z3, Z3
	VADDPD 192(DI), Z4, Z4
	VMOVUPD Z1, (DI)
	VMOVUPD Z2, 64(DI)
	VMOVUPD Z3, 128(DI)
	VMOVUPD Z4, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $32, CX
	JMP  axpy32z

axpy8z:
	CMPQ CX, $8
	JLT  axpy4z
	VMULPD (SI), Z0, Z1
	VADDPD (DI), Z1, Z1
	VMOVUPD Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  axpy8z

axpy4z:
	CMPQ CX, $4
	JLT  axpy1z
	VMULPD (SI), Y0, Y1
	VADDPD (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX

axpy1z:
	TESTQ CX, CX
	JZ   axpydonez
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  axpy1z

axpydonez:
	VZEROUPPER
	RET

// func rms256(w, g, c []float64, lr, rho, omr, eps float64)
//
// For i < len(w), with omr = 1−ρ computed once by the caller as the Go
// loop computes it:
//
//	c[i] = ρ·c[i] + (omr·g[i])·g[i]
//	w[i] = w[i] − (lr·g[i]) / (√c[i] + ε)
//	g[i] = 0
//
// Four elements at a time, then one. len(g), len(c) >= len(w); the
// caller checks.
TEXT ·rms256(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ c_base+48(FP), DX
	VBROADCASTSD lr+72(FP), Y12
	VBROADCASTSD rho+80(FP), Y13
	VBROADCASTSD omr+88(FP), Y14
	VBROADCASTSD eps+96(FP), Y15
	VXORPD Y11, Y11, Y11

rms4:
	CMPQ CX, $4
	JLT  rms1
	VMOVUPD (SI), Y0           // g
	VMULPD (DX), Y13, Y1       // ρ·c
	VMULPD Y0, Y14, Y2         // omr·g
	VMULPD Y0, Y2, Y2          // (omr·g)·g
	VADDPD Y2, Y1, Y1          // c'
	VMOVUPD Y1, (DX)
	VSQRTPD Y1, Y1
	VADDPD Y15, Y1, Y1         // √c' + ε
	VMULPD Y0, Y12, Y0         // lr·g
	VDIVPD Y1, Y0, Y0          // (lr·g) / (√c' + ε)
	VMOVUPD (DI), Y2
	VSUBPD Y0, Y2, Y2          // w − that
	VMOVUPD Y2, (DI)
	VMOVUPD Y11, (SI)          // g = 0
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  rms4

rms1:
	TESTQ CX, CX
	JZ   rmsdone
	VMOVSD (SI), X0
	VMULSD (DX), X13, X1
	VMULSD X0, X14, X2
	VMULSD X0, X2, X2
	VADDSD X2, X1, X1
	VMOVSD X1, (DX)
	VSQRTSD X1, X1, X1
	VADDSD X15, X1, X1
	VMULSD X0, X12, X0
	VDIVSD X1, X0, X0
	VMOVSD (DI), X2
	VSUBSD X0, X2, X2
	VMOVSD X2, (DI)
	VMOVSD X11, (SI)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ CX
	JMP  rms1

rmsdone:
	VZEROUPPER
	RET

// func rms512(w, g, c []float64, lr, rho, omr, eps float64)
//
// rms256 at eight lanes: eight elements at a time, then the last one to
// seven under the opmask K1. The masked-off lanes compute on zeros and
// are never stored.
TEXT ·rms512(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ c_base+48(FP), DX
	VBROADCASTSD lr+72(FP), Z12
	VBROADCASTSD rho+80(FP), Z13
	VBROADCASTSD omr+88(FP), Z14
	VBROADCASTSD eps+96(FP), Z15
	VXORPD Z11, Z11, Z11

rms8z:
	CMPQ CX, $8
	JLT  rmstailz
	VMOVUPD (SI), Z0
	VMULPD (DX), Z13, Z1
	VMULPD Z0, Z14, Z2
	VMULPD Z0, Z2, Z2
	VADDPD Z2, Z1, Z1
	VMOVUPD Z1, (DX)
	VSQRTPD Z1, Z1
	VADDPD Z15, Z1, Z1
	VMULPD Z0, Z12, Z0
	VDIVPD Z1, Z0, Z0
	VMOVUPD (DI), Z2
	VSUBPD Z0, Z2, Z2
	VMOVUPD Z2, (DI)
	VMOVUPD Z11, (SI)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $8, CX
	JMP  rms8z

rmstailz:
	TESTQ CX, CX
	JZ   rmsdonez
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVB AX, K1
	VMOVUPD.Z (SI), K1, Z0
	VMULPD.Z (DX), Z13, K1, Z1
	VMULPD Z0, Z14, Z2
	VMULPD Z0, Z2, Z2
	VADDPD Z2, Z1, Z1
	VMOVUPD Z1, K1, (DX)
	VSQRTPD Z1, Z1
	VADDPD Z15, Z1, Z1
	VMULPD Z0, Z12, Z0
	VDIVPD Z1, Z0, Z0
	VMOVUPD.Z (DI), K1, Z2
	VSUBPD Z0, Z2, Z2
	VMOVUPD Z2, K1, (DI)
	VMOVUPD Z11, K1, (SI)

rmsdonez:
	VZEROUPPER
	RET

// func gateBack256(dz, x, wx, gwx, dx, h, wh, gwh, dh []float64)
//
// GateBackward's two sides in one call: first x (wx, gwx, dx), then h
// (wh, gwh, dh). For a side with input v, weights w, gradient gw and
// output dv (n columns, a row per element of dz):
//
//	for each row r with dz[r] != 0, in order:
//		gw[r] += dz[r]·v     (axpy256's VMULPD then VADDPD per element)
//		dv    += dz[r]·w[r]
//
// dv is overwritten: it starts from +0, as GateBackward's VecZero
// leaves it. The columns go in blocks of sixteen (four ymm), then four,
// then two (one xmm), then one; a block keeps its v and its dv in
// registers across every row, so each row costs its w and gw loads and
// the gw stores alone.
// Every dv element still adds the rows in ascending order and every gw
// element its one product, so each element comes out as the Go row loop
// leaves it. A row with dz[r] == 0 (either sign) is skipped whole; a NaN
// is not. Lengths are the caller's to check.
TEXT ·gateBack256(SB), NOSPLIT, $0-216
	MOVQ dz_base+0(FP), DX
	MOVQ dz_len+8(FP), CX
	VXORPD X7, X7, X7          // 0 for the skip test
	MOVQ x_base+24(FP), R11    // v
	MOVQ x_len+32(FP), R12     // columns left
	MOVQ wx_base+48(FP), SI    // w, at the block's first column
	MOVQ gwx_base+72(FP), DI   // gw, likewise
	MOVQ dx_base+96(FP), R13   // dv
	XORQ R15, R15              // 0 on the x side, 1 on the h side

side256:
	MOVQ R12, R14
	SHLQ $3, R14               // row stride in bytes

cols256:
	CMPQ R12, $16
	JGE  gb16
	CMPQ R12, $4
	JGE  gb4
	CMPQ R12, $2
	JGE  gb2
	TESTQ R12, R12
	JNZ  gb1
	TESTQ R15, R15
	JNZ  gbdone
	MOVQ $1, R15
	MOVQ h_base+120(FP), R11
	MOVQ h_len+128(FP), R12
	MOVQ wh_base+144(FP), SI
	MOVQ gwh_base+168(FP), DI
	MOVQ dh_base+192(FP), R13
	JMP  side256

gb16:
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	VMOVUPD 64(R11), Y10
	VMOVUPD 96(R11), Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	MOVQ SI, AX                // w row
	MOVQ DI, R9                // gw row
	XORQ BX, BX
row16:
	CMPQ BX, CX
	JGE  end16
	VMOVSD (DX)(BX*8), X0
	VUCOMISD X7, X0
	JPS  take16                // NaN
	JEQ  skip16
take16:
	VBROADCASTSD X0, Y0
	VMULPD Y8, Y0, Y1
	VMULPD Y9, Y0, Y2
	VMULPD Y10, Y0, Y3
	VMULPD Y11, Y0, Y4
	VADDPD (R9), Y1, Y1
	VADDPD 32(R9), Y2, Y2
	VADDPD 64(R9), Y3, Y3
	VADDPD 96(R9), Y4, Y4
	VMOVUPD Y1, (R9)
	VMOVUPD Y2, 32(R9)
	VMOVUPD Y3, 64(R9)
	VMOVUPD Y4, 96(R9)
	VMULPD (AX), Y0, Y1
	VMULPD 32(AX), Y0, Y2
	VMULPD 64(AX), Y0, Y3
	VMULPD 96(AX), Y0, Y4
	VADDPD Y12, Y1, Y12
	VADDPD Y13, Y2, Y13
	VADDPD Y14, Y3, Y14
	VADDPD Y15, Y4, Y15
skip16:
	ADDQ R14, AX
	ADDQ R14, R9
	INCQ BX
	JMP  row16
end16:
	VMOVUPD Y12, (R13)
	VMOVUPD Y13, 32(R13)
	VMOVUPD Y14, 64(R13)
	VMOVUPD Y15, 96(R13)
	ADDQ $128, R11
	ADDQ $128, R13
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, R12
	JMP  cols256

gb4:
	VMOVUPD (R11), Y8
	VXORPD Y12, Y12, Y12
	MOVQ SI, AX
	MOVQ DI, R9
	XORQ BX, BX
row4:
	CMPQ BX, CX
	JGE  end4
	VMOVSD (DX)(BX*8), X0
	VUCOMISD X7, X0
	JPS  take4
	JEQ  skip4
take4:
	VBROADCASTSD X0, Y0
	VMULPD Y8, Y0, Y1
	VADDPD (R9), Y1, Y1
	VMOVUPD Y1, (R9)
	VMULPD (AX), Y0, Y1
	VADDPD Y12, Y1, Y12
skip4:
	ADDQ R14, AX
	ADDQ R14, R9
	INCQ BX
	JMP  row4
end4:
	VMOVUPD Y12, (R13)
	ADDQ $32, R11
	ADDQ $32, R13
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, R12
	JMP  cols256

gb2:
	VMOVUPD (R11), X8
	VXORPD X12, X12, X12
	MOVQ SI, AX
	MOVQ DI, R9
	XORQ BX, BX
row2:
	CMPQ BX, CX
	JGE  end2
	VMOVSD (DX)(BX*8), X0
	VUCOMISD X7, X0
	JPS  take2
	JEQ  skip2
take2:
	VMOVDDUP X0, X0
	VMULPD X8, X0, X1
	VADDPD (R9), X1, X1
	VMOVUPD X1, (R9)
	VMULPD (AX), X0, X1
	VADDPD X12, X1, X12
skip2:
	ADDQ R14, AX
	ADDQ R14, R9
	INCQ BX
	JMP  row2
end2:
	VMOVUPD X12, (R13)
	ADDQ $16, R11
	ADDQ $16, R13
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $2, R12
	JMP  cols256

gb1:
	VMOVSD (R11), X8
	VXORPD X12, X12, X12
	MOVQ SI, AX
	MOVQ DI, R9
	XORQ BX, BX
row1:
	CMPQ BX, CX
	JGE  end1
	VMOVSD (DX)(BX*8), X0
	VUCOMISD X7, X0
	JPS  take1
	JEQ  skip1
take1:
	VMULSD X8, X0, X1
	VADDSD (R9), X1, X1
	VMOVSD X1, (R9)
	VMULSD (AX), X0, X1
	VADDSD X12, X1, X12
skip1:
	ADDQ R14, AX
	ADDQ R14, R9
	INCQ BX
	JMP  row1
end1:
	VMOVSD X12, (R13)
	ADDQ $8, R11
	ADDQ $8, R13
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ R12
	JMP  cols256

gbdone:
	VZEROUPPER
	RET

// func gateBack512(dz, x, wx, gwx, dx, h, wh, gwh, dh []float64)
//
// gateBack256 at eight lanes: column blocks of thirty-two (four zmm),
// then eight (one zmm), then gateBack256's four (one ymm), two (one xmm)
// and one (VEX scalar), so no load or store is masked.
TEXT ·gateBack512(SB), NOSPLIT, $0-216
	MOVQ dz_base+0(FP), DX
	MOVQ dz_len+8(FP), CX
	VXORPD X7, X7, X7
	MOVQ x_base+24(FP), R11
	MOVQ x_len+32(FP), R12
	MOVQ wx_base+48(FP), SI
	MOVQ gwx_base+72(FP), DI
	MOVQ dx_base+96(FP), R13
	XORQ R15, R15

side512:
	MOVQ R12, R14
	SHLQ $3, R14

cols512:
	CMPQ R12, $32
	JGE  gb32z
	CMPQ R12, $8
	JGE  gb8z
	CMPQ R12, $4
	JGE  gb4z
	CMPQ R12, $2
	JGE  gb2z
	TESTQ R12, R12
	JNZ  gb1z
	TESTQ R15, R15
	JNZ  gbdonez
	MOVQ $1, R15
	MOVQ h_base+120(FP), R11
	MOVQ h_len+128(FP), R12
	MOVQ wh_base+144(FP), SI
	MOVQ gwh_base+168(FP), DI
	MOVQ dh_base+192(FP), R13
	JMP  side512

gb32z:
	VMOVUPD (R11), Z8
	VMOVUPD 64(R11), Z9
	VMOVUPD 128(R11), Z10
	VMOVUPD 192(R11), Z11
	VXORPD Z12, Z12, Z12
	VXORPD Z13, Z13, Z13
	VXORPD Z14, Z14, Z14
	VXORPD Z15, Z15, Z15
	MOVQ SI, AX
	MOVQ DI, R9
	XORQ BX, BX
row32z:
	CMPQ BX, CX
	JGE  end32z
	VMOVSD (DX)(BX*8), X0
	VUCOMISD X7, X0
	JPS  take32z
	JEQ  skip32z
take32z:
	VBROADCASTSD X0, Z0
	VMULPD Z8, Z0, Z1
	VMULPD Z9, Z0, Z2
	VMULPD Z10, Z0, Z3
	VMULPD Z11, Z0, Z4
	VADDPD (R9), Z1, Z1
	VADDPD 64(R9), Z2, Z2
	VADDPD 128(R9), Z3, Z3
	VADDPD 192(R9), Z4, Z4
	VMOVUPD Z1, (R9)
	VMOVUPD Z2, 64(R9)
	VMOVUPD Z3, 128(R9)
	VMOVUPD Z4, 192(R9)
	VMULPD (AX), Z0, Z1
	VMULPD 64(AX), Z0, Z2
	VMULPD 128(AX), Z0, Z3
	VMULPD 192(AX), Z0, Z4
	VADDPD Z12, Z1, Z12
	VADDPD Z13, Z2, Z13
	VADDPD Z14, Z3, Z14
	VADDPD Z15, Z4, Z15
skip32z:
	ADDQ R14, AX
	ADDQ R14, R9
	INCQ BX
	JMP  row32z
end32z:
	VMOVUPD Z12, (R13)
	VMOVUPD Z13, 64(R13)
	VMOVUPD Z14, 128(R13)
	VMOVUPD Z15, 192(R13)
	ADDQ $256, R11
	ADDQ $256, R13
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $32, R12
	JMP  cols512

gb8z:
	VMOVUPD (R11), Z8
	VXORPD Z12, Z12, Z12
	MOVQ SI, AX
	MOVQ DI, R9
	XORQ BX, BX
row8z:
	CMPQ BX, CX
	JGE  end8z
	VMOVSD (DX)(BX*8), X0
	VUCOMISD X7, X0
	JPS  take8z
	JEQ  skip8z
take8z:
	VBROADCASTSD X0, Z0
	VMULPD Z8, Z0, Z1
	VADDPD (R9), Z1, Z1
	VMOVUPD Z1, (R9)
	VMULPD (AX), Z0, Z1
	VADDPD Z12, Z1, Z12
skip8z:
	ADDQ R14, AX
	ADDQ R14, R9
	INCQ BX
	JMP  row8z
end8z:
	VMOVUPD Z12, (R13)
	ADDQ $64, R11
	ADDQ $64, R13
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, R12
	JMP  cols512

gb4z:
	VMOVUPD (R11), Y8
	VXORPD Y12, Y12, Y12
	MOVQ SI, AX
	MOVQ DI, R9
	XORQ BX, BX
row4z:
	CMPQ BX, CX
	JGE  end4z
	VMOVSD (DX)(BX*8), X0
	VUCOMISD X7, X0
	JPS  take4z
	JEQ  skip4z
take4z:
	VBROADCASTSD X0, Y0
	VMULPD Y8, Y0, Y1
	VADDPD (R9), Y1, Y1
	VMOVUPD Y1, (R9)
	VMULPD (AX), Y0, Y1
	VADDPD Y12, Y1, Y12
skip4z:
	ADDQ R14, AX
	ADDQ R14, R9
	INCQ BX
	JMP  row4z
end4z:
	VMOVUPD Y12, (R13)
	ADDQ $32, R11
	ADDQ $32, R13
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, R12
	JMP  cols512

gb2z:
	VMOVUPD (R11), X8
	VXORPD X12, X12, X12
	MOVQ SI, AX
	MOVQ DI, R9
	XORQ BX, BX
row2z:
	CMPQ BX, CX
	JGE  end2z
	VMOVSD (DX)(BX*8), X0
	VUCOMISD X7, X0
	JPS  take2z
	JEQ  skip2z
take2z:
	VMOVDDUP X0, X0
	VMULPD X8, X0, X1
	VADDPD (R9), X1, X1
	VMOVUPD X1, (R9)
	VMULPD (AX), X0, X1
	VADDPD X12, X1, X12
skip2z:
	ADDQ R14, AX
	ADDQ R14, R9
	INCQ BX
	JMP  row2z
end2z:
	VMOVUPD X12, (R13)
	ADDQ $16, R11
	ADDQ $16, R13
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $2, R12
	JMP  cols512

gb1z:
	VMOVSD (R11), X8
	VXORPD X12, X12, X12
	MOVQ SI, AX
	MOVQ DI, R9
	XORQ BX, BX
row1z:
	CMPQ BX, CX
	JGE  end1z
	VMOVSD (DX)(BX*8), X0
	VUCOMISD X7, X0
	JPS  take1z
	JEQ  skip1z
take1z:
	VMULSD X8, X0, X1
	VADDSD (R9), X1, X1
	VMOVSD X1, (R9)
	VMULSD (AX), X0, X1
	VADDSD X12, X1, X12
skip1z:
	ADDQ R14, AX
	ADDQ R14, R9
	INCQ BX
	JMP  row1z
end1z:
	VMOVSD X12, (R13)
	ADDQ $8, R11
	ADDQ $8, R13
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ R12
	JMP  cols512

gbdonez:
	VZEROUPPER
	RET

// func transpose256(dst, a []float64, rows, cols int)
//
// Writes the transpose of a's leading rows&^3 x cols&^3 block (a is
// rows x cols, row-major) into dst (cols x rows), four by four: four
// source rows in Y0-Y3, VUNPCKLPD/VUNPCKHPD pair their elements, and
// VPERM2F128 joins the 128-bit halves into four dst rows. A copy: every
// element keeps its bits. The caller transposes the rest and checks the
// shapes.
TEXT ·transpose256(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ rows+48(FP), R8
	MOVQ cols+56(FP), R9
	MOVQ R9, R10
	SHLQ $3, R10               // a's row stride in bytes
	MOVQ R8, R11
	SHLQ $3, R11               // dst's row stride in bytes
	ANDQ $-4, R8
	ANDQ $-4, R9
	XORQ AX, AX                // first source row of the block
trow4:
	CMPQ AX, R8
	JGE  tdone4
	MOVQ AX, BX
	IMULQ R10, BX
	ADDQ SI, BX                // &a[AX][0]
	LEAQ (DI)(AX*8), DX        // &dst[0][AX]
	XORQ CX, CX                // first source column of the block
tcol4:
	CMPQ CX, R9
	JGE  tnext4
	LEAQ (BX)(CX*8), R12
	VMOVUPD (R12), Y0
	ADDQ R10, R12
	VMOVUPD (R12), Y1
	ADDQ R10, R12
	VMOVUPD (R12), Y2
	ADDQ R10, R12
	VMOVUPD (R12), Y3
	VUNPCKLPD Y1, Y0, Y4       // a00 a10 a02 a12
	VUNPCKHPD Y1, Y0, Y5       // a01 a11 a03 a13
	VUNPCKLPD Y3, Y2, Y6       // a20 a30 a22 a32
	VUNPCKHPD Y3, Y2, Y7       // a21 a31 a23 a33
	VPERM2F128 $0x20, Y6, Y4, Y0 // column 0
	VPERM2F128 $0x20, Y7, Y5, Y1 // column 1
	VPERM2F128 $0x31, Y6, Y4, Y2 // column 2
	VPERM2F128 $0x31, Y7, Y5, Y3 // column 3
	MOVQ CX, R13
	IMULQ R11, R13
	ADDQ DX, R13               // &dst[CX][AX]
	VMOVUPD Y0, (R13)
	ADDQ R11, R13
	VMOVUPD Y1, (R13)
	ADDQ R11, R13
	VMOVUPD Y2, (R13)
	ADDQ R11, R13
	VMOVUPD Y3, (R13)
	ADDQ $4, CX
	JMP  tcol4
tnext4:
	ADDQ $4, AX
	JMP  trow4
tdone4:
	VZEROUPPER
	RET

// func transpose512(dst, a []float64, rows, cols int)
//
// transpose256 eight by eight: eight source rows in Z0-Z7; VUNPCKLPD/
// VUNPCKHPD pair their elements (Z8-Z15), then two rounds of VSHUFF64X2
// gather the 128-bit lanes, 0x88 taking lanes 0 and 2 of each source
// and 0xDD lanes 1 and 3 (Z16-Z23, then the eight dst rows in Z24-Z31).
TEXT ·transpose512(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ rows+48(FP), R8
	MOVQ cols+56(FP), R9
	MOVQ R9, R10
	SHLQ $3, R10
	MOVQ R8, R11
	SHLQ $3, R11
	ANDQ $-8, R8
	ANDQ $-8, R9
	XORQ AX, AX
trow8:
	CMPQ AX, R8
	JGE  tdone8
	MOVQ AX, BX
	IMULQ R10, BX
	ADDQ SI, BX
	LEAQ (DI)(AX*8), DX
	XORQ CX, CX
tcol8:
	CMPQ CX, R9
	JGE  tnext8
	LEAQ (BX)(CX*8), R12
	VMOVUPD (R12), Z0
	ADDQ R10, R12
	VMOVUPD (R12), Z1
	ADDQ R10, R12
	VMOVUPD (R12), Z2
	ADDQ R10, R12
	VMOVUPD (R12), Z3
	ADDQ R10, R12
	VMOVUPD (R12), Z4
	ADDQ R10, R12
	VMOVUPD (R12), Z5
	ADDQ R10, R12
	VMOVUPD (R12), Z6
	ADDQ R10, R12
	VMOVUPD (R12), Z7
	VUNPCKLPD Z1, Z0, Z8       // a00 a10 a02 a12 a04 a14 a06 a16
	VUNPCKHPD Z1, Z0, Z9       // a01 a11 a03 a13 a05 a15 a07 a17
	VUNPCKLPD Z3, Z2, Z10
	VUNPCKHPD Z3, Z2, Z11
	VUNPCKLPD Z5, Z4, Z12
	VUNPCKHPD Z5, Z4, Z13
	VUNPCKLPD Z7, Z6, Z14
	VUNPCKHPD Z7, Z6, Z15
	VSHUFF64X2 $0x88, Z10, Z8, Z16  // a00 a10 a04 a14 a20 a30 a24 a34
	VSHUFF64X2 $0x88, Z11, Z9, Z17  // a01 a11 a05 a15 a21 a31 a25 a35
	VSHUFF64X2 $0xDD, Z10, Z8, Z18  // a02 a12 a06 a16 a22 a32 a26 a36
	VSHUFF64X2 $0xDD, Z11, Z9, Z19  // a03 a13 a07 a17 a23 a33 a27 a37
	VSHUFF64X2 $0x88, Z14, Z12, Z20 // rows 4-7, likewise
	VSHUFF64X2 $0x88, Z15, Z13, Z21
	VSHUFF64X2 $0xDD, Z14, Z12, Z22
	VSHUFF64X2 $0xDD, Z15, Z13, Z23
	VSHUFF64X2 $0x88, Z20, Z16, Z24 // column 0
	VSHUFF64X2 $0x88, Z21, Z17, Z25 // column 1
	VSHUFF64X2 $0x88, Z22, Z18, Z26 // column 2
	VSHUFF64X2 $0x88, Z23, Z19, Z27 // column 3
	VSHUFF64X2 $0xDD, Z20, Z16, Z28 // column 4
	VSHUFF64X2 $0xDD, Z21, Z17, Z29 // column 5
	VSHUFF64X2 $0xDD, Z22, Z18, Z30 // column 6
	VSHUFF64X2 $0xDD, Z23, Z19, Z31 // column 7
	MOVQ CX, R13
	IMULQ R11, R13
	ADDQ DX, R13
	VMOVUPD Z24, (R13)
	ADDQ R11, R13
	VMOVUPD Z25, (R13)
	ADDQ R11, R13
	VMOVUPD Z26, (R13)
	ADDQ R11, R13
	VMOVUPD Z27, (R13)
	ADDQ R11, R13
	VMOVUPD Z28, (R13)
	ADDQ R11, R13
	VMOVUPD Z29, (R13)
	ADDQ R11, R13
	VMOVUPD Z30, (R13)
	ADDQ R11, R13
	VMOVUPD Z31, (R13)
	ADDQ $8, CX
	JMP  tcol8
tnext8:
	ADDQ $8, AX
	JMP  trow8
tdone8:
	VZEROUPPER
	RET

// func sumSquares256(acc *[8]float64, d []float64)
//
// withinNorm's eight chains over one gradient: acc[k] += d[i]·d[i] for
// each i ≡ k (mod 8) below len(d)&^7, in order, and then acc[0] += d[i]·
// d[i] for the tail, each product and sum separately rounded — the Go
// loop's operations, so every chain ends with its bits. Two ymm hold
// the eight chains.
TEXT ·sumSquares256(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ d_base+8(FP), SI
	MOVQ d_len+16(FP), CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
sq8:
	CMPQ CX, $8
	JLT  sqtail
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VMULPD Y2, Y2, Y2
	VMULPD Y3, Y3, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	ADDQ $64, SI
	SUBQ $8, CX
	JMP  sq8
sqtail:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVSD (DI), X0
sq1:
	TESTQ CX, CX
	JZ   sqdone
	VMOVSD (SI), X2
	VMULSD X2, X2, X2
	VADDSD X2, X0, X0
	ADDQ $8, SI
	DECQ CX
	JMP  sq1
sqdone:
	VMOVSD X0, (DI)
	VZEROUPPER
	RET

// func sumSquares512(acc *[8]float64, d []float64)
//
// sumSquares256 with the eight chains in one zmm.
TEXT ·sumSquares512(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ d_base+8(FP), SI
	MOVQ d_len+16(FP), CX
	VMOVUPD (DI), Z0
sq8z:
	CMPQ CX, $8
	JLT  sqtailz
	VMOVUPD (SI), Z2
	VMULPD Z2, Z2, Z2
	VADDPD Z2, Z0, Z0
	ADDQ $64, SI
	SUBQ $8, CX
	JMP  sq8z
sqtailz:
	VMOVUPD Z0, (DI)
	VMOVSD (DI), X0
sq1z:
	TESTQ CX, CX
	JZ   sqdonez
	VMOVSD (SI), X2
	VMULSD X2, X2, X2
	VADDSD X2, X0, X0
	ADDQ $8, SI
	DECQ CX
	JMP  sq1z
sqdonez:
	VMOVSD X0, (DI)
	VZEROUPPER
	RET
