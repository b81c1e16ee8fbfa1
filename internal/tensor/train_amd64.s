//go:build !purego

#include "textflag.h"

// The training kernels: GateBackward's row update y += f·x and the
// RMSprop weight update. Both are element-wise, so a lane owns one
// element and performs the scalar loop's operations for it in the scalar
// loop's order, each rounded on its own (separate VMULPD/VADDPD/VSQRTPD/
// VDIVPD, never FMA): every element comes out bit-identical to the Go
// loop whatever the width. Scalar tails are VEX-encoded (VMULSD, not
// MULSD): a legacy-SSE instruction run while the upper halves are dirty
// costs a state transition per call, and calls here are many and short.

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
