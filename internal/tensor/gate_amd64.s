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

// func gate512(dst, wxT, x, whT, h, bias []float64)
//
// gateT at eight lanes: every lane runs the operation sequence gateT's
// lane runs for its row (+0, then VMULPD and VADDPD in ascending k, never
// FMA, sx + (sh + bias) last), so the result is GateMatVec's bit for bit.
// R must be a multiple of 4; the caller checks every length.
//
// Rows go thirty-two at a time (Z0-Z3 accumulate sx, Z4-Z7 accumulate
// sh, Z8 holds the broadcast input, Z9-Z12 the products), then eight at
// a time under the opmask K1. When R is not a multiple of eight the last
// of those blocks is four rows: K1 holds four lanes, the masked loads
// neither read nor fault past the row, and the store writes four rows.
TEXT ·gate512(SB), NOSPLIT, $0-144
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

rows32:
	CMPQ R8, $32
	JLT  rows8
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   h32
x32:
	VBROADCASTSD (BX), Z8
	VMULPD (AX), Z8, Z9
	VMULPD 64(AX), Z8, Z10
	VMULPD 128(AX), Z8, Z11
	VMULPD 192(AX), Z8, Z12
	VADDPD Z9, Z0, Z0
	VADDPD Z10, Z1, Z1
	VADDPD Z11, Z2, Z2
	VADDPD Z12, Z3, Z3
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  x32
h32:
	MOVQ DX, AX
	MOVQ R11, BX
	MOVQ R12, CX
	TESTQ CX, CX
	JZ   out32
hloop32:
	VBROADCASTSD (BX), Z8
	VMULPD (AX), Z8, Z9
	VMULPD 64(AX), Z8, Z10
	VMULPD 128(AX), Z8, Z11
	VMULPD 192(AX), Z8, Z12
	VADDPD Z9, Z4, Z4
	VADDPD Z10, Z5, Z5
	VADDPD Z11, Z6, Z6
	VADDPD Z12, Z7, Z7
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  hloop32
out32:
	VADDPD (R13), Z4, Z4       // sh + bias
	VADDPD 64(R13), Z5, Z5
	VADDPD 128(R13), Z6, Z6
	VADDPD 192(R13), Z7, Z7
	VADDPD Z4, Z0, Z0          // sx + (sh + bias)
	VADDPD Z5, Z1, Z1
	VADDPD Z6, Z2, Z2
	VADDPD Z7, Z3, Z3
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	ADDQ $256, DX
	ADDQ $256, R13
	SUBQ $32, R8
	JMP  rows32

rows8:
	TESTQ R8, R8
	JZ   done512
	MOVL $0xFF, AX
	CMPQ R8, $8
	JGE  mask8
	MOVL $0x0F, AX
mask8:
	KMOVB AX, K1
	VXORPD Z0, Z0, Z0
	VXORPD Z4, Z4, Z4
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   h8
x8:
	VBROADCASTSD (BX), Z8
	VMULPD.Z (AX), Z8, K1, Z9
	VADDPD Z9, Z0, Z0
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  x8
h8:
	MOVQ DX, AX
	MOVQ R11, BX
	MOVQ R12, CX
	TESTQ CX, CX
	JZ   out8
hloop8:
	VBROADCASTSD (BX), Z8
	VMULPD.Z (AX), Z8, K1, Z9
	VADDPD Z9, Z4, Z4
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  hloop8
out8:
	VADDPD.Z (R13), Z4, K1, Z4
	VADDPD Z4, Z0, Z0
	VMOVUPD Z0, K1, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, R13
	SUBQ $8, R8
	JG   rows8

done512:
	VZEROUPPER
	RET

// func cpuFeatures() (avx2, avx2fma, avx512 bool)
//
// AVX2 is usable when CPUID reports it (leaf 7 EBX bit 5) and the OS
// saves the YMM state: leaf 1 ECX OSXSAVE (bit 27) and AVX (bit 28),
// then XCR0 bits 1 and 2 via XGETBV. avx2fma adds leaf 1 ECX FMA
// (bit 12) — with the YMM check, the condition under which math.Exp
// takes its own FMA path (math.useFMA). avx512 adds to avx2fma leaf 7
// EBX AVX512F (bit 16) and AVX512DQ (bit 17) and the OS saving the
// opmask and full ZMM state: XCR0 bits 5, 6 and 7 as well (0xE6).
TEXT ·cpuFeatures(SB), NOSPLIT, $0-3
	MOVB $0, avx2+0(FP)
	MOVB $0, avx2fma+1(FP)
	MOVB $0, avx512+2(FP)
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
	MOVL AX, R9                // XCR0
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
	ANDL $0x30000, BX
	CMPL BX, $0x30000
	JNE  no
	ANDL $0xE6, R9
	CMPL R9, $0xE6
	JNE  no
	MOVB $1, avx512+2(FP)
no:
	RET
