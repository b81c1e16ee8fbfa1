// Package nn is the neural-network substrate for Desh: LSTM layers with
// full backprop-through-time, stacked (multi-hidden-layer) LSTMs, dense
// output layers, and the two sequence models the paper's three phases
// use — a softmax next-phrase classifier (Phase 1) and a 2-state
// (ΔT, phrase-id) regressor (Phases 2/3).
//
// Everything is deterministic given a seed: weight init, shuffling and
// training order all come from caller-provided *rand.Rand values.
package nn

import (
	"math"

	"desh/internal/tensor"
)

// Param couples a weight matrix with its accumulated gradient. Optimizers
// in internal/opt update Value in place from Grad and callers zero Grad
// between steps.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// newParam allocates a parameter and its gradient with the given shape.
func newParam(name string, rows, cols int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(rows, cols),
		Grad:  tensor.New(rows, cols),
	}
}

// sigmoid is the logistic function, split on sign to avoid overflow in
// Exp for large |x|.
func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
