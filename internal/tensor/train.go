package tensor

import (
	"fmt"
	"math"
)

// Training on the serving tiers. Phase-2 training spends its time in
// three loops: the gate pre-activation (dot4, via GateMatVec), the four
// row updates y += f·x of GateBackward (axpy4), and the RMSprop element
// update. Each runs here on the widest assembly tier CPUID allows, and
// each tier reproduces the scalar loop bit for bit: the gate kernel by
// giving every output row its own lane (GateWeights), the two
// element-wise kernels by giving every element its own lane, with each
// operation separately rounded in the scalar order and never fused. So
// a model trains to the same bits on every tier and under -tags purego.

// GateTransposed reports whether GateMatVecT has a kernel for gates of
// the given row count on this host and build: an assembly tier is
// present and rows is a multiple of four. Where it does not, callers
// keep GateMatVec on the row-major weights.
func GateTransposed(rows int) bool { return useAVX2 && rows%4 == 0 }

// GateMatVecT computes dst = wx·x + (wh·h + bias) from the transposes
// wxT = wxᵀ [In x R] and whT = whᵀ [H x R] on the gate kernel that
// serves (GateKernel), bit-identical to GateMatVec on wx and wh. The
// transposes are the caller's and must hold the weights as they are now.
// It needs GateTransposed(R). dst must not alias x, h or the bias.
func GateMatVecT(dst []float64, wxT *Matrix, x []float64, whT *Matrix, h, bias []float64) {
	R := len(dst)
	if !GateTransposed(R) {
		panic(fmt.Sprintf("tensor: GateMatVecT has no kernel for %d rows", R))
	}
	if wxT.Cols != R || whT.Cols != R || len(bias) != R || len(x) != wxT.Rows || len(h) != whT.Rows {
		panic(fmt.Sprintf("tensor: GateMatVecT dst/bias %d/%d, x/h %d/%d, want %dx%d and %dx%d transposes",
			R, len(bias), len(x), len(h), wxT.Rows, wxT.Cols, whT.Rows, whT.Cols))
	}
	if useAVX512 {
		gate512(dst, wxT.Data, x, whT.Data, h, bias)
		return
	}
	gateT(dst, wxT.Data, x, whT.Data, h, bias)
}

// axpy computes y += f·x over len(x) elements on the widest tier this
// host has; every tier is axpy4 bit for bit.
func axpy(f float64, x, y []float64) {
	y = y[:len(x)]
	switch {
	case useAVX512:
		axpy512(f, x, y)
	case useAVX2:
		axpy256(f, x, y)
	default:
		axpy4(f, x, y)
	}
}

// RMSpropStep applies one RMSprop update to every weight and clears its
// gradient, element by element:
//
//	c = ρ·c + ((1−ρ)·g)·g
//	w = w − (lr·g) / (√c + ε)
//	g = 0
//
// c is the running mean of squared gradients. Every tier performs these
// operations in this order, separately rounded, so the result equals the
// Go loop bit for bit.
func RMSpropStep(w, g, c []float64, lr, rho, eps float64) {
	if len(g) != len(w) || len(c) != len(w) {
		panic(fmt.Sprintf("tensor: RMSpropStep w/g/c lengths %d/%d/%d", len(w), len(g), len(c)))
	}
	switch {
	case useAVX512:
		rms512(w, g, c, lr, rho, 1-rho, eps)
	case useAVX2:
		rms256(w, g, c, lr, rho, 1-rho, eps)
	default:
		rmsprop(w, g, c, lr, rho, eps)
	}
}

// rmsprop is RMSpropStep's Go loop: the generic tier and the reference
// the assembly tiers are held to.
func rmsprop(w, g, c []float64, lr, rho, eps float64) {
	g, c = g[:len(w)], c[:len(w)]
	for i, gi := range g {
		ci := rho*c[i] + (1-rho)*gi*gi
		c[i] = ci
		w[i] -= lr * gi / (math.Sqrt(ci) + eps)
		g[i] = 0
	}
}
