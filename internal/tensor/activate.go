package tensor

import "fmt"

// ActivationKernel names the kernel ActivateLSTM runs on this host and
// build: "avx2-fma" for the four-lane assembly kernel, "generic" when
// the caller's scalar loop does all the work (non-amd64, no AVX2 or no
// FMA, or -tags purego).
func ActivationKernel() string {
	if useFMA {
		return "avx2-fma"
	}
	return "generic"
}

// ActivateLSTM applies the LSTM cell's nonlinearities and state update
// to as many leading hidden units as the assembly kernel takes and
// returns how many that was; the caller's scalar loop finishes units
// [n, len(h)). z holds the 4H gate pre-activations in blocks i, f, g,
// o; h and c (length H) are updated in place:
//
//	c[j] = sigmoid(z[H+j])·c[j] + sigmoid(z[j])·tanh(z[2H+j])
//	h[j] = sigmoid(z[3H+j])·tanh(c[j])
//
// Every unit the kernel finishes carries exactly the bits the scalar
// loop (math.Exp, math.Tanh, separately rounded products and sum) would
// have produced: each vector lane runs the scalar functions' own
// operation sequence. The kernel takes whole blocks of four units and
// stops at the first block holding a sigmoid input outside the range it
// transcribes (NaN, ±Inf, |x| >= 708), so n is a multiple of four, and
// 0 on the generic path.
func ActivateLSTM(z, h, c []float64) int {
	if !useFMA {
		return 0
	}
	if len(z) != 4*len(h) || len(c) != len(h) {
		panic(fmt.Sprintf("tensor: ActivateLSTM z/h/c %d/%d/%d", len(z), len(h), len(c)))
	}
	return activate4(z, h, c)
}
