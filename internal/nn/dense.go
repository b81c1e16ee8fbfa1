package nn

import (
	"fmt"
	"math/rand"

	"desh/internal/tensor"
)

// Dense is a fully connected layer y = W·x + b used as the output head
// of both sequence models (softmax logits in Phase 1, 2-state regression
// in Phases 2/3).
type Dense struct {
	InSize, OutSize int
	W, B            *Param

	// wT caches Wᵀ for the batched training head; refreshed once per
	// optimizer batch and shared with shard replicas.
	wT *tensor.Matrix
}

// NewDense builds a Xavier-initialized dense layer.
func NewDense(inSize, outSize int, rng *rand.Rand) *Dense {
	if inSize <= 0 || outSize <= 0 {
		panic(fmt.Sprintf("nn: invalid dense sizes in=%d out=%d", inSize, outSize))
	}
	d := &Dense{
		InSize:  inSize,
		OutSize: outSize,
		W:       newParam("dense.W", outSize, inSize),
		B:       newParam("dense.B", 1, outSize),
	}
	tensor.XavierInit(d.W.Value, inSize, outSize, rng)
	return d
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param {
	return []*Param{d.W, d.B}
}

// Forward computes y = W·x + b into a fresh slice.
func (d *Dense) Forward(x []float64) []float64 {
	y := make([]float64, d.OutSize)
	d.ForwardInto(y, x)
	return y
}

// ForwardInto computes dst = W·x + b into a caller-owned buffer — the
// allocation-free path used by streams and training workspaces. It only
// reads the layer's weights, so concurrent calls with distinct dst are
// safe.
func (d *Dense) ForwardInto(dst, x []float64) {
	tensor.MatVecBias(dst, d.W.Value, x, d.B.Value.Data)
}

// BackwardInto accumulates gradients for one (x, dy) pair and writes
// the input gradient into a caller-owned buffer.
func (d *Dense) BackwardInto(dx, x, dy []float64) {
	if len(x) != d.InSize || len(dy) != d.OutSize {
		panic(fmt.Sprintf("nn: dense backward lengths %d/%d, want %d/%d", len(x), len(dy), d.InSize, d.OutSize))
	}
	tensor.AddOuterScaled(d.W.Grad, dy, x, 1)
	tensor.Axpy(1, dy, d.B.Grad.Data)
	tensor.MatTVecInto(dx, d.W.Value, dy)
}
