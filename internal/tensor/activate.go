package tensor

import "fmt"

// ActivationKernel names the kernel ActivateLSTM runs on this host and
// build: "avx512-fma" or "avx2-fma" for the assembly kernel at eight or
// four units a block, "generic" when the caller's scalar loop does all
// the work (non-amd64, no AVX2 or no FMA, or -tags purego).
func ActivationKernel() string {
	if t := ActivationTiers(); len(t) > 0 {
		return t[len(t)-1].Name
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
// operation sequence. The kernel takes whole blocks (eight units, or
// four; see ActivationTier.Block) and stops at the first block holding a
// sigmoid input outside the range it transcribes (NaN, ±Inf,
// |x| >= 708), so n is a multiple of four, and 0 on the generic path.
func ActivateLSTM(z, h, c []float64) int {
	if !useFMA {
		return 0
	}
	checkActivate(z, h, c)
	if useAVX512 {
		return activate8(z, h, c)
	}
	return activate4(z, h, c)
}

func checkActivate(z, h, c []float64) {
	if len(z) != 4*len(h) || len(c) != len(h) {
		panic(fmt.Sprintf("tensor: ActivateLSTM z/h/c %d/%d/%d", len(z), len(h), len(c)))
	}
}

// ActivationTier is one activation kernel this host and build can run:
// its name as ActivationKernel reports it, the hidden units it takes per
// block, and the kernel under ActivateLSTM's contract. A block that
// holds an out-of-range sigmoid input is handed back whole, so Block is
// the granularity of a hand-back (the last block may be four units).
type ActivationTier struct {
	Name  string
	Block int
	Run   func(z, h, c []float64) int
}

var activationTiers = func() []ActivationTier {
	var t []ActivationTier
	if useFMA {
		t = append(t, ActivationTier{"avx2-fma", 4, func(z, h, c []float64) int {
			checkActivate(z, h, c)
			return activate4(z, h, c)
		}})
	}
	if useAVX512 {
		t = append(t, ActivationTier{"avx512-fma", 8, func(z, h, c []float64) int {
			checkActivate(z, h, c)
			return activate8(z, h, c)
		}})
	}
	return t
}()

// ActivationTiers lists the activation kernels this host and build can
// run, narrowest first; ActivateLSTM runs the last, and the list is
// empty on the generic path. It lets the parity suites hold every tier
// to the scalar loop on one host, not only the one that serves.
func ActivationTiers() []ActivationTier { return activationTiers }
