//go:build !purego

#include "textflag.h"

// func gateT(dst, wxT, x, whT, h, bias []float64)
//
// dst[j] = sx[j] + (sh[j] + bias[j]) with sx[j] = Σk wxT[k*R+j]·x[k] and
// sh[j] = Σk whT[k*R+j]·h[k], R = len(dst), one vector lane per output
// row j. Every lane starts from +0 and adds its products in ascending k
// with separate VMULPD and VADDPD — never FMA — so each row sees exactly
// dot4's operation sequence and the result equals GateMatVec bit for
// bit. R must be a multiple of 4; the caller checks every length.
//
// Rows go sixteen at a time (Y0-Y3 accumulate sx, Y4-Y7 accumulate sh,
// Y8 holds the broadcast input, Y9-Y12 the products), then four at a
// time for what is left of R.
TEXT ·gateT(SB), NOSPLIT, $0-144
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ wxT_base+24(FP), SI
	MOVQ x_base+48(FP), R9
	MOVQ x_len+56(FP), R10
	MOVQ whT_base+72(FP), DX
	MOVQ h_base+96(FP), R11
	MOVQ h_len+104(FP), R12
	MOVQ bias_base+120(FP), R13
	MOVQ R8, R14
	SHLQ $3, R14               // bytes between consecutive k in wxT/whT

rows16:
	CMPQ R8, $16
	JLT  rows4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   h16
x16:
	VBROADCASTSD (BX), Y8
	VMULPD (AX), Y8, Y9
	VMULPD 32(AX), Y8, Y10
	VMULPD 64(AX), Y8, Y11
	VMULPD 96(AX), Y8, Y12
	VADDPD Y9, Y0, Y0
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  x16
h16:
	MOVQ DX, AX
	MOVQ R11, BX
	MOVQ R12, CX
	TESTQ CX, CX
	JZ   out16
hloop16:
	VBROADCASTSD (BX), Y8
	VMULPD (AX), Y8, Y9
	VMULPD 32(AX), Y8, Y10
	VMULPD 64(AX), Y8, Y11
	VMULPD 96(AX), Y8, Y12
	VADDPD Y9, Y4, Y4
	VADDPD Y10, Y5, Y5
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  hloop16
out16:
	VADDPD (R13), Y4, Y4       // sh + bias
	VADDPD 32(R13), Y5, Y5
	VADDPD 64(R13), Y6, Y6
	VADDPD 96(R13), Y7, Y7
	VADDPD Y4, Y0, Y0          // sx + (sh + bias)
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, R13
	SUBQ $16, R8
	JMP  rows16

rows4:
	CMPQ R8, $4
	JLT  done
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   h4
x4:
	VBROADCASTSD (BX), Y8
	VMULPD (AX), Y8, Y9
	VADDPD Y9, Y0, Y0
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  x4
h4:
	MOVQ DX, AX
	MOVQ R11, BX
	MOVQ R12, CX
	TESTQ CX, CX
	JZ   out4
hloop4:
	VBROADCASTSD (BX), Y8
	VMULPD (AX), Y8, Y9
	VADDPD Y9, Y4, Y4
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  hloop4
out4:
	VADDPD (R13), Y4, Y4
	VADDPD Y4, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R13
	SUBQ $4, R8
	JMP  rows4

done:
	VZEROUPPER
	RET

// func cpuFeatures() (avx2, avx2fma bool)
//
// AVX2 is usable when CPUID reports it (leaf 7 EBX bit 5) and the OS
// saves the YMM state: leaf 1 ECX OSXSAVE (bit 27) and AVX (bit 28),
// then XCR0 bits 1 and 2 via XGETBV. avx2fma adds leaf 1 ECX FMA
// (bit 12) — with the YMM check, the condition under which math.Exp
// takes its own FMA path (math.useFMA).
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB $0, avx2+0(FP)
	MOVB $0, avx2fma+1(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, avx2+0(FP)
	BTL  $12, R8
	JCC  no
	MOVB $1, avx2fma+1(FP)
no:
	RET
