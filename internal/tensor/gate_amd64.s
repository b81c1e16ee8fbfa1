//go:build !purego

#include "textflag.h"

// The gate kernel in two halves, so that a caller scoring many steps
// can keep one half's weights in L1 across all of them: gateInT/gateIn512
// compute the input half sx = wxᵀ·x, gateRecT/gateRec512 the
// sx-seeded recurrent half dst = sx + (whᵀ·h + bias). One vector lane
// owns one output row j (R = len(dst), the rows of wxT/whT contiguous
// for a fixed k). Every lane starts from +0 and adds its products in
// ascending k with separate VMULPD and VADDPD — never FMA — so each row
// sees exactly dot4's operation sequence, and the two halves in sequence
// (dst may be sx) equal GateMatVec bit for bit. R must be a multiple of
// 4; the caller checks every length.
//
// At four lanes rows go sixteen at a time (Y0-Y3 accumulate, Y8 holds
// the broadcast input, Y9-Y12 the products, Y4-Y7 the loaded sx), then
// four at a time for what is left of R.

// func gateInT(sx, wxT, x []float64)
TEXT ·gateInT(SB), NOSPLIT, $0-72
	MOVQ sx_base+0(FP), DI
	MOVQ sx_len+8(FP), R8
	MOVQ wxT_base+24(FP), SI
	MOVQ x_base+48(FP), R9
	MOVQ x_len+56(FP), R10
	MOVQ R8, R14
	SHLQ $3, R14               // bytes between consecutive k in wxT

in16:
	CMPQ R8, $16
	JLT  in4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   inout16
inloop16:
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
	JNZ  inloop16
inout16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, R8
	JMP  in16

in4:
	CMPQ R8, $4
	JLT  indone
	VXORPD Y0, Y0, Y0
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   inout4
inloop4:
	VBROADCASTSD (BX), Y8
	VMULPD (AX), Y8, Y9
	VADDPD Y9, Y0, Y0
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  inloop4
inout4:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, R8
	JMP  in4

indone:
	VZEROUPPER
	RET

// func gateRecT(dst, sx, whT, h, bias []float64)
TEXT ·gateRecT(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ sx_base+24(FP), R15
	MOVQ whT_base+48(FP), DX
	MOVQ h_base+72(FP), R11
	MOVQ h_len+80(FP), R12
	MOVQ bias_base+96(FP), R13
	MOVQ R8, R14
	SHLQ $3, R14               // bytes between consecutive k in whT

rec16:
	CMPQ R8, $16
	JLT  rec4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ DX, AX
	MOVQ R11, BX
	MOVQ R12, CX
	TESTQ CX, CX
	JZ   recout16
recloop16:
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
	JNZ  recloop16
recout16:
	VADDPD (R13), Y0, Y0       // sh + bias
	VADDPD 32(R13), Y1, Y1
	VADDPD 64(R13), Y2, Y2
	VADDPD 96(R13), Y3, Y3
	VMOVUPD (R15), Y4
	VMOVUPD 32(R15), Y5
	VMOVUPD 64(R15), Y6
	VMOVUPD 96(R15), Y7
	VADDPD Y0, Y4, Y4          // sx + (sh + bias)
	VADDPD Y1, Y5, Y5
	VADDPD Y2, Y6, Y6
	VADDPD Y3, Y7, Y7
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R15
	ADDQ $128, DX
	ADDQ $128, R13
	SUBQ $16, R8
	JMP  rec16

rec4:
	CMPQ R8, $4
	JLT  recdone
	VXORPD Y0, Y0, Y0
	MOVQ DX, AX
	MOVQ R11, BX
	MOVQ R12, CX
	TESTQ CX, CX
	JZ   recout4
recloop4:
	VBROADCASTSD (BX), Y8
	VMULPD (AX), Y8, Y9
	VADDPD Y9, Y0, Y0
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  recloop4
recout4:
	VADDPD (R13), Y0, Y0
	VMOVUPD (R15), Y4
	VADDPD Y0, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ $32, DI
	ADDQ $32, R15
	ADDQ $32, DX
	ADDQ $32, R13
	SUBQ $4, R8
	JMP  rec4

recdone:
	VZEROUPPER
	RET

// The halves at eight lanes: every lane runs the operation sequence its
// four-lane twin runs for its row, so the results are GateMatVec's bit
// for bit. Rows go thirty-two at a time (Z0-Z3 accumulate, Z8 holds the
// broadcast input, Z9-Z12 the products, Z4-Z7 the loaded sx), then eight
// at a time under the opmask K1. When R is not a multiple of eight the
// last of those blocks is four rows: K1 holds four lanes, the masked
// loads neither read nor fault past the row, and the store writes four
// rows.

// func gateIn512(sx, wxT, x []float64)
TEXT ·gateIn512(SB), NOSPLIT, $0-72
	MOVQ sx_base+0(FP), DI
	MOVQ sx_len+8(FP), R8
	MOVQ wxT_base+24(FP), SI
	MOVQ x_base+48(FP), R9
	MOVQ x_len+56(FP), R10
	MOVQ R8, R14
	SHLQ $3, R14               // bytes between consecutive k in wxT

in32:
	CMPQ R8, $32
	JLT  in8
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   inout32
inloop32:
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
	JNZ  inloop32
inout32:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, R8
	JMP  in32

in8:
	TESTQ R8, R8
	JZ   in512done
	MOVL $0xFF, AX
	CMPQ R8, $8
	JGE  inmask8
	MOVL $0x0F, AX
inmask8:
	KMOVB AX, K1
	VXORPD Z0, Z0, Z0
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   inout8
inloop8:
	VBROADCASTSD (BX), Z8
	VMULPD.Z (AX), Z8, K1, Z9
	VADDPD Z9, Z0, Z0
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  inloop8
inout8:
	VMOVUPD Z0, K1, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $8, R8
	JG   in8

in512done:
	VZEROUPPER
	RET

// func gateRec512(dst, sx, whT, h, bias []float64)
TEXT ·gateRec512(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ sx_base+24(FP), R15
	MOVQ whT_base+48(FP), DX
	MOVQ h_base+72(FP), R11
	MOVQ h_len+80(FP), R12
	MOVQ bias_base+96(FP), R13
	MOVQ R8, R14
	SHLQ $3, R14               // bytes between consecutive k in whT

rec32:
	CMPQ R8, $32
	JLT  rec8
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	MOVQ DX, AX
	MOVQ R11, BX
	MOVQ R12, CX
	TESTQ CX, CX
	JZ   recout32
recloop32:
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
	JNZ  recloop32
recout32:
	VADDPD (R13), Z0, Z0       // sh + bias
	VADDPD 64(R13), Z1, Z1
	VADDPD 128(R13), Z2, Z2
	VADDPD 192(R13), Z3, Z3
	VMOVUPD (R15), Z4
	VMOVUPD 64(R15), Z5
	VMOVUPD 128(R15), Z6
	VMOVUPD 192(R15), Z7
	VADDPD Z0, Z4, Z4          // sx + (sh + bias)
	VADDPD Z1, Z5, Z5
	VADDPD Z2, Z6, Z6
	VADDPD Z3, Z7, Z7
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	VMOVUPD Z6, 128(DI)
	VMOVUPD Z7, 192(DI)
	ADDQ $256, DI
	ADDQ $256, R15
	ADDQ $256, DX
	ADDQ $256, R13
	SUBQ $32, R8
	JMP  rec32

rec8:
	TESTQ R8, R8
	JZ   rec512done
	MOVL $0xFF, AX
	CMPQ R8, $8
	JGE  recmask8
	MOVL $0x0F, AX
recmask8:
	KMOVB AX, K1
	VXORPD Z0, Z0, Z0
	MOVQ DX, AX
	MOVQ R11, BX
	MOVQ R12, CX
	TESTQ CX, CX
	JZ   recout8
recloop8:
	VBROADCASTSD (BX), Z8
	VMULPD.Z (AX), Z8, K1, Z9
	VADDPD Z9, Z0, Z0
	ADDQ R14, AX
	ADDQ $8, BX
	DECQ CX
	JNZ  recloop8
recout8:
	VADDPD.Z (R13), Z0, K1, Z0
	VMOVUPD.Z (R15), K1, Z4
	VADDPD Z0, Z4, Z4
	VMOVUPD Z4, K1, (DI)
	ADDQ $64, DI
	ADDQ $64, R15
	ADDQ $64, DX
	ADDQ $64, R13
	SUBQ $8, R8
	JG   rec8

rec512done:
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
