//go:build !purego

#include "textflag.h"

// The LSTM cell's element-wise half, four hidden units per iteration.
// Every lane performs, operation for operation, what the scalar loop in
// nn.activate performs for its unit: math.archExp's FMA path
// (exp_amd64.s, taken when math.useFMA is set — the caller's condition
// for selecting this kernel), nn.sigmoid, math.tanh and the cell update.
// Packed MUL/ADD/SUB/DIV/FMA/CVT round each lane exactly as their scalar
// forms do, so each lane's result equals the scalar function's bit for
// bit; the constants below are the decimal literals of exp_amd64.s and
// tanh.go, parsed by the same assembler and compiler front end.

// Each constant is stored four times so that it can be a 256-bit memory
// operand.
#define QUAD(off, v) \
	DATA actconst<>+(off+0)(SB)/8, v \
	DATA actconst<>+(off+8)(SB)/8, v \
	DATA actconst<>+(off+16)(SB)/8, v \
	DATA actconst<>+(off+24)(SB)/8, v

QUAD(0, $0x7FFFFFFFFFFFFFFF)                          // |x| mask
QUAD(32, $0x8000000000000000)                         // sign mask
QUAD(64, $708.0)                                      // sigmoid hand-back bound
QUAD(96, $1.4426950408889634073599246810018920)       // LOG2E
QUAD(128, $0.69314718055966295651160180568695068359375) // LN2U
QUAD(160, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
QUAD(192, $0.0625)
QUAD(224, $2.4801587301587301587e-5)                  // exprodata+64
QUAD(256, $1.9841269841269841270e-4)                  // exprodata+56
QUAD(288, $1.3888888888888888889e-3)                  // exprodata+48
QUAD(320, $8.3333333333333333333e-3)                  // exprodata+40
QUAD(352, $4.1666666666666666667e-2)                  // exprodata+32
QUAD(384, $1.6666666666666666667e-1)                  // exprodata+24
QUAD(416, $0.5)
QUAD(448, $1.0)
QUAD(480, $2.0)
QUAD(512, $0x000003FF000003FF)                        // exponent bias, int32 lanes
QUAD(544, $0.625)                                     // tanh: rational below
QUAD(576, $44.014845965556527147994)                  // tanh: 0.5*MAXLOG, ±1 above
QUAD(608, $-9.64399179425052238628e-1)                // tanhP[0]
QUAD(640, $-9.92877231001918586564e1)                 // tanhP[1]
QUAD(672, $-1.61468768441708447952e3)                 // tanhP[2]
QUAD(704, $1.12811678491632931402e2)                  // tanhQ[0]
QUAD(736, $2.23548839060100448583e3)                  // tanhQ[1]
QUAD(768, $4.84406305325125486048e3)                  // tanhQ[2]
GLOBL actconst<>(SB), RODATA, $800

#define ABSMASK  actconst<>+0(SB)
#define SIGNMASK actconst<>+32(SB)
#define SIGLIM   actconst<>+64(SB)
#define LOG2E    actconst<>+96(SB)
#define LN2U     actconst<>+128(SB)
#define LN2L     actconst<>+160(SB)
#define SIXTEENTH actconst<>+192(SB)
#define EXPC8    actconst<>+224(SB)
#define EXPC7    actconst<>+256(SB)
#define EXPC6    actconst<>+288(SB)
#define EXPC5    actconst<>+320(SB)
#define EXPC4    actconst<>+352(SB)
#define EXPC3    actconst<>+384(SB)
#define HALF     actconst<>+416(SB)
#define ONE      actconst<>+448(SB)
#define TWO      actconst<>+480(SB)
#define EXPBIAS  actconst<>+512(SB)
#define TANHMID  actconst<>+544(SB)
#define TANHBIG  actconst<>+576(SB)
#define TANHP0   actconst<>+608(SB)
#define TANHP1   actconst<>+640(SB)
#define TANHP2   actconst<>+672(SB)
#define TANHQ0   actconst<>+704(SB)
#define TANHQ1   actconst<>+736(SB)
#define TANHQ2   actconst<>+768(SB)

// EXP4: Y0 = exp(Y0) per lane; clobbers Y1, Y2. archExp's avxfma path
// line for line: k = round(x·LOG2E) (CVTSD2SL, MXCSR rounding, becomes
// VCVTPD2DQ), two VFNMADD231 reductions by k·LN2U and k·LN2L, ×0.0625,
// seven VFMADD213 Horner steps, four (x+2)·x squarings of which the last
// is fused with the +1, then ·2^k built by adding the bias to k and
// shifting it into the exponent field. Valid where archExp takes none
// of its notFinite/overflow/denormal exits; a lane outside that range
// computes garbage without faulting (the caller never lets it out).
#define EXP4 \
	VMULPD       LOG2E, Y0, Y1 \
	VCVTPD2DQY   Y1, X2 \
	VCVTDQ2PD    X2, Y1 \
	VFNMADD231PD LN2U, Y1, Y0 \
	VFNMADD231PD LN2L, Y1, Y0 \
	VMULPD       SIXTEENTH, Y0, Y0 \
	VMOVUPD      EXPC8, Y1 \
	VFMADD213PD  EXPC7, Y0, Y1 \
	VFMADD213PD  EXPC6, Y0, Y1 \
	VFMADD213PD  EXPC5, Y0, Y1 \
	VFMADD213PD  EXPC4, Y0, Y1 \
	VFMADD213PD  EXPC3, Y0, Y1 \
	VFMADD213PD  HALF, Y0, Y1 \
	VFMADD213PD  ONE, Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       TWO, Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       TWO, Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       TWO, Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       TWO, Y0, Y1 \
	VFMADD213PD  ONE, Y1, Y0 \
	VPADDD       EXPBIAS, X2, X2 \
	VPMOVZXDQ    X2, Y2 \
	VPSLLQ       $52, Y2, Y2 \
	VMULPD       Y2, Y0, Y0

// SIGMOID4: Y0 = nn.sigmoid(Y0) per lane; clobbers Y1-Y4. The scalar
// takes exp(-x) and 1/(1+e) for x >= 0, exp(x) and e/(1+e) otherwise;
// here the argument and the numerator are selected by the x >= 0 mask
// (predicate 0x1D, GE_OQ: true for -0, as in Go).
#define SIGMOID4 \
	VXORPD    Y3, Y3, Y3 \
	VCMPPD    $0x1D, Y3, Y0, Y3 \
	VXORPD    SIGNMASK, Y0, Y4 \
	VBLENDVPD Y3, Y4, Y0, Y0 \
	EXP4 \
	VADDPD    ONE, Y0, Y4 \
	VBLENDVPD Y3, ONE, Y0, Y0 \
	VDIVPD    Y4, Y0, Y0

// TANH4: Y0 = math.tanh(Y0) per lane; clobbers Y1-Y8. The scalar picks
// one of four results; here all are computed and blended by its own
// tests, narrowest last: the rational x + x·s·P(s)/Q(s) with s = x·x;
// x itself where x == 0 (keeps -0); 1 - 2/(exp(2|x|)+1) with x's sign
// where |x| >= 0.625 (that value is at least 0.55, so OR-ing the sign
// in is the scalar's negation); ±1 where |x| > 0.5·MAXLOG. A NaN fails
// every test and leaves through the rational, as in the scalar. exp is
// only ever kept for 2|x| in [1.25, 88.03], inside EXP4's range.
#define TANH4 \
	VMOVAPD   Y0, Y3 \
	VANDPD    ABSMASK, Y3, Y4 \
	VANDPD    SIGNMASK, Y3, Y5 \
	VADDPD    Y4, Y4, Y0 \
	EXP4 \
	VADDPD    ONE, Y0, Y0 \
	VMOVUPD   TWO, Y1 \
	VDIVPD    Y0, Y1, Y0 \
	VMOVUPD   ONE, Y1 \
	VSUBPD    Y0, Y1, Y0 \
	VORPD     Y5, Y0, Y0 \
	VMULPD    Y3, Y3, Y6 \
	VMOVUPD   TANHP0, Y7 \
	VMULPD    Y6, Y7, Y7 \
	VADDPD    TANHP1, Y7, Y7 \
	VMULPD    Y6, Y7, Y7 \
	VADDPD    TANHP2, Y7, Y7 \
	VADDPD    TANHQ0, Y6, Y8 \
	VMULPD    Y6, Y8, Y8 \
	VADDPD    TANHQ1, Y8, Y8 \
	VMULPD    Y6, Y8, Y8 \
	VADDPD    TANHQ2, Y8, Y8 \
	VMULPD    Y6, Y3, Y6 \
	VMULPD    Y7, Y6, Y6 \
	VDIVPD    Y8, Y6, Y6 \
	VADDPD    Y6, Y3, Y6 \
	VXORPD    Y1, Y1, Y1 \
	VCMPPD    $0x00, Y1, Y3, Y1 \
	VBLENDVPD Y1, Y3, Y6, Y6 \
	VCMPPD    $0x1D, TANHMID, Y4, Y1 \
	VBLENDVPD Y1, Y0, Y6, Y6 \
	VCMPPD    $0x1E, TANHBIG, Y4, Y1 \
	VORPD     ONE, Y5, Y0 \
	VBLENDVPD Y1, Y0, Y6, Y0

// func activate4(z, h, c []float64) int
//
// For hidden units j = 0, 4, 8, … while j+4 <= len(h), with H = len(h)
// and z holding the gate pre-activations in blocks i, f, g, o:
//
//	i, f, o = sigmoid(z[j]), sigmoid(z[H+j]), sigmoid(z[3H+j])
//	g       = tanh(z[2H+j])
//	c[j]    = f·c[j] + i·g          (two products, one sum: three roundings)
//	h[j]    = o·tanh(c[j])
//
// It returns the number of units finished, a multiple of four. It stops
// early, leaving the block and everything after it untouched, at the
// first block in which a sigmoid input is not finite with |x| < 708:
// beyond that archExp leaves through its denormal or notFinite exits,
// which are not transcribed. tanh needs no such guard. The caller
// finishes units [ret, H) with the scalar loop and checks the lengths:
// len(z) = 4H, len(c) = H.
TEXT ·activate4(SB), NOSPLIT, $0-80
	MOVQ z_base+0(FP), SI
	MOVQ h_base+24(FP), DI
	MOVQ h_len+32(FP), CX
	MOVQ c_base+48(FP), DX
	LEAQ (SI)(CX*8), R9        // f block
	LEAQ (R9)(CX*8), R10       // g block
	LEAQ (R10)(CX*8), R11      // o block
	XORQ AX, AX                // units finished
	SUBQ $4, CX                // last j that starts a whole block

block:
	CMPQ AX, CX
	JGT  done
	VMOVUPD (SI)(AX*8), Y12
	VMOVUPD (R9)(AX*8), Y13
	VMOVUPD (R11)(AX*8), Y14
	VANDPD  ABSMASK, Y12, Y0
	VANDPD  ABSMASK, Y13, Y1
	VANDPD  ABSMASK, Y14, Y2
	VCMPPD  $0x11, SIGLIM, Y0, Y0   // LT_OQ: false for NaN
	VCMPPD  $0x11, SIGLIM, Y1, Y1
	VCMPPD  $0x11, SIGLIM, Y2, Y2
	VANDPD  Y1, Y0, Y0
	VANDPD  Y2, Y0, Y0
	VMOVMSKPD Y0, R12
	CMPL R12, $0xF
	JNE  done

	VMOVAPD Y12, Y0
	SIGMOID4
	VMOVAPD Y0, Y12            // i
	VMOVAPD Y13, Y0
	SIGMOID4
	VMOVAPD Y0, Y13            // f
	VMOVAPD Y14, Y0
	SIGMOID4
	VMOVAPD Y0, Y14            // o
	VMOVUPD (R10)(AX*8), Y0
	TANH4                      // g
	VMULPD  (DX)(AX*8), Y13, Y13
	VMULPD  Y0, Y12, Y12
	VADDPD  Y12, Y13, Y0
	VMOVUPD Y0, (DX)(AX*8)
	TANH4
	VMULPD  Y0, Y14, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  block

done:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET

// The same three functions at eight lanes, for activate8. Each lane runs
// the operation sequence of its ymm twin above, instruction for
// instruction; what changes is the encoding around it. Constants are
// 64-bit broadcast operands (.BCST, or VBROADCASTSD where the constant
// is the first operand), read from the first eight bytes of each QUAD
// — except EXPBIAS, which stays a 256-bit operand because the exponent
// arithmetic works on the eight int32 lanes of a ymm. Lane masks live
// in opmask registers: VCMPPD writes K, VBLENDMPD blends under it (where
// the ymm forms put the mask in a vector register for VBLENDVPD).

// EXP8: Z0 = exp(Z0) per lane; clobbers Z1, Z2. EXP4 line for line.
#define EXP8 \
	VMULPD.BCST       LOG2E, Z0, Z1 \
	VCVTPD2DQ         Z1, Y2 \
	VCVTDQ2PD         Y2, Z1 \
	VFNMADD231PD.BCST LN2U, Z1, Z0 \
	VFNMADD231PD.BCST LN2L, Z1, Z0 \
	VMULPD.BCST       SIXTEENTH, Z0, Z0 \
	VBROADCASTSD      EXPC8, Z1 \
	VFMADD213PD.BCST  EXPC7, Z0, Z1 \
	VFMADD213PD.BCST  EXPC6, Z0, Z1 \
	VFMADD213PD.BCST  EXPC5, Z0, Z1 \
	VFMADD213PD.BCST  EXPC4, Z0, Z1 \
	VFMADD213PD.BCST  EXPC3, Z0, Z1 \
	VFMADD213PD.BCST  HALF, Z0, Z1 \
	VFMADD213PD.BCST  ONE, Z0, Z1 \
	VMULPD            Z1, Z0, Z0 \
	VADDPD.BCST       TWO, Z0, Z1 \
	VMULPD            Z1, Z0, Z0 \
	VADDPD.BCST       TWO, Z0, Z1 \
	VMULPD            Z1, Z0, Z0 \
	VADDPD.BCST       TWO, Z0, Z1 \
	VMULPD            Z1, Z0, Z0 \
	VADDPD.BCST       TWO, Z0, Z1 \
	VFMADD213PD.BCST  ONE, Z1, Z0 \
	VPADDD            EXPBIAS, Y2, Y2 \
	VPMOVZXDQ         Y2, Z2 \
	VPSLLQ            $52, Z2, Z2 \
	VMULPD            Z2, Z0, Z0

// SIGMOID8: Z0 = nn.sigmoid(Z0) per lane; clobbers Z1-Z4 and K1.
// SIGMOID4 with the x >= 0 mask in K1.
#define SIGMOID8 \
	VXORPD         Z3, Z3, Z3 \
	VCMPPD         $0x1D, Z3, Z0, K1 \
	VXORPD.BCST    SIGNMASK, Z0, Z4 \
	VBLENDMPD      Z4, Z0, K1, Z0 \
	EXP8 \
	VADDPD.BCST    ONE, Z0, Z4 \
	VBLENDMPD.BCST ONE, Z0, K1, Z0 \
	VDIVPD         Z4, Z0, Z0

// TANH8: Z0 = math.tanh(Z0) per lane; clobbers Z1-Z8 and K2. TANH4
// with each range test in K2.
#define TANH8 \
	VMOVAPD        Z0, Z3 \
	VANDPD.BCST    ABSMASK, Z3, Z4 \
	VANDPD.BCST    SIGNMASK, Z3, Z5 \
	VADDPD         Z4, Z4, Z0 \
	EXP8 \
	VADDPD.BCST    ONE, Z0, Z0 \
	VBROADCASTSD   TWO, Z1 \
	VDIVPD         Z0, Z1, Z0 \
	VBROADCASTSD   ONE, Z1 \
	VSUBPD         Z0, Z1, Z0 \
	VORPD          Z5, Z0, Z0 \
	VMULPD         Z3, Z3, Z6 \
	VBROADCASTSD   TANHP0, Z7 \
	VMULPD         Z6, Z7, Z7 \
	VADDPD.BCST    TANHP1, Z7, Z7 \
	VMULPD         Z6, Z7, Z7 \
	VADDPD.BCST    TANHP2, Z7, Z7 \
	VADDPD.BCST    TANHQ0, Z6, Z8 \
	VMULPD         Z6, Z8, Z8 \
	VADDPD.BCST    TANHQ1, Z8, Z8 \
	VMULPD         Z6, Z8, Z8 \
	VADDPD.BCST    TANHQ2, Z8, Z8 \
	VMULPD         Z6, Z3, Z6 \
	VMULPD         Z7, Z6, Z6 \
	VDIVPD         Z8, Z6, Z6 \
	VADDPD         Z6, Z3, Z6 \
	VXORPD         Z1, Z1, Z1 \
	VCMPPD         $0x00, Z1, Z3, K2 \
	VBLENDMPD      Z3, Z6, K2, Z6 \
	VCMPPD.BCST    $0x1D, TANHMID, Z4, K2 \
	VBLENDMPD      Z0, Z6, K2, Z6 \
	VCMPPD.BCST    $0x1E, TANHBIG, Z4, K2 \
	VORPD.BCST     ONE, Z5, Z0 \
	VBLENDMPD      Z0, Z6, K2, Z0

// func activate8(z, h, c []float64) int
//
// activate4's contract at eight hidden units per block: same cell
// update, same return value (the number of units finished, a multiple
// of four), same stop at the first block holding a sigmoid input that is
// not finite with |x| < 708. Blocks are eight units while eight are
// left, then one block of four when four to seven are: the four-unit
// block runs the same code under a four-lane opmask in K3 (loads zero
// the other lanes without reading them, stores skip them), so a unit's
// operations do not depend on which kind of block it is in. A block that
// fails the range check hands back all of its units, so after a hand-back
// the return value is a multiple of eight, or of four at the last block.
TEXT ·activate8(SB), NOSPLIT, $0-80
	MOVQ z_base+0(FP), SI
	MOVQ h_base+24(FP), DI
	MOVQ h_len+32(FP), CX
	MOVQ c_base+48(FP), DX
	LEAQ (SI)(CX*8), R9        // f block
	LEAQ (R9)(CX*8), R10       // g block
	LEAQ (R10)(CX*8), R11      // o block
	XORQ AX, AX                // units finished
	MOVL $0xFF, R13            // lanes in this block, as a mask
	MOVQ $8, R14               // units in this block

block8:
	MOVQ CX, BX
	SUBQ AX, BX                // units left
	CMPQ BX, $8
	JGE  take8
	CMPQ BX, $4
	JLT  done8
	MOVL $0x0F, R13
	MOVQ $4, R14
take8:
	KMOVB R13, K3
	VMOVUPD.Z (SI)(AX*8), K3, Z12
	VMOVUPD.Z (R9)(AX*8), K3, Z13
	VMOVUPD.Z (R11)(AX*8), K3, Z14
	VANDPD.BCST ABSMASK, Z12, Z0
	VANDPD.BCST ABSMASK, Z13, Z1
	VANDPD.BCST ABSMASK, Z14, Z2
	VCMPPD.BCST $0x11, SIGLIM, Z0, K3, K1   // LT_OQ: false for NaN
	VCMPPD.BCST $0x11, SIGLIM, Z1, K1, K1
	VCMPPD.BCST $0x11, SIGLIM, Z2, K1, K1
	KMOVB K1, R12
	CMPL R12, R13
	JNE  done8

	VMOVAPD Z12, Z0
	SIGMOID8
	VMOVAPD Z0, Z12            // i
	VMOVAPD Z13, Z0
	SIGMOID8
	VMOVAPD Z0, Z13            // f
	VMOVAPD Z14, Z0
	SIGMOID8
	VMOVAPD Z0, Z14            // o
	VMOVUPD.Z (R10)(AX*8), K3, Z0
	TANH8                      // g
	VMULPD.Z (DX)(AX*8), Z13, K3, Z13
	VMULPD  Z0, Z12, Z12
	VADDPD  Z12, Z13, Z0
	VMOVUPD Z0, K3, (DX)(AX*8)
	TANH8
	VMULPD  Z0, Z14, Z0
	VMOVUPD Z0, K3, (DI)(AX*8)
	ADDQ R14, AX
	JMP  block8

done8:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET
