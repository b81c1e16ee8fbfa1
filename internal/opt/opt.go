// Package opt implements the two optimizers Desh uses (Table 5):
// stochastic gradient descent with categorical cross-entropy in Phase 1,
// and RMSprop with MSE in Phases 2 and 3. Both support global-norm
// gradient clipping, which stabilizes BPTT on long log sequences.
package opt

import (
	"fmt"

	"desh/internal/nn"
	"desh/internal/tensor"
)

// Optimizer updates parameters in place from their accumulated gradients
// and zeroes the gradients afterwards.
type Optimizer interface {
	// Step applies one update. Implementations must tolerate the
	// parameter set changing between calls only by panicking clearly.
	Step(params []*nn.Param)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	// ClipNorm bounds the global gradient norm before the update;
	// 0 disables clipping.
	ClipNorm float64
	// BatchSize > 1 divides the accumulated gradients by the batch size
	// before clipping, turning a summed mini-batch gradient into the
	// mean — so clipping thresholds and learning rates keep per-example
	// semantics regardless of batch size.
	BatchSize int

	velocity map[*nn.Param]*tensor.Matrix
	gs       []*tensor.Matrix // reused grad-matrix list: no per-step alloc
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("opt: invalid SGD learning rate %v", lr))
	}
	return &SGD{LR: lr, ClipNorm: 5}
}

// Step applies w -= lr*g (with momentum if configured) and zeroes grads.
func (s *SGD) Step(params []*nn.Param) {
	s.gs = scaleGrads(s.gs[:0], params, s.BatchSize)
	if s.ClipNorm > 0 {
		tensor.ClipNorm(s.gs, s.ClipNorm)
	}
	for _, p := range params {
		if s.Momentum > 0 {
			if s.velocity == nil {
				s.velocity = make(map[*nn.Param]*tensor.Matrix)
			}
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(p.Value.Rows, p.Value.Cols)
				s.velocity[p] = v
			}
			v.Scale(s.Momentum)
			v.AddScaled(p.Grad, -s.LR)
			p.Value.Add(v)
		} else {
			p.Value.AddScaled(p.Grad, -s.LR)
		}
		p.Grad.Zero()
	}
}

// scaleGrads collects the gradient matrices into gs (reusing its
// backing array) and, when batch > 1, scales them by 1/batch so the
// optimizer consumes the batch-mean gradient.
func scaleGrads(gs []*tensor.Matrix, params []*nn.Param, batch int) []*tensor.Matrix {
	for _, p := range params {
		gs = append(gs, p.Grad)
	}
	if batch > 1 {
		inv := 1 / float64(batch)
		for _, g := range gs {
			g.Scale(inv)
		}
	}
	return gs
}

// RMSprop keeps a per-weight exponential moving average of squared
// gradients and divides updates by its square root (Hinton 2012).
type RMSprop struct {
	LR       float64
	Rho      float64
	Eps      float64
	ClipNorm float64

	cache map[*nn.Param]*tensor.Matrix
	gs    []*tensor.Matrix
}

// NewRMSprop returns an RMSprop optimizer with the conventional
// rho=0.9, eps=1e-8 settings.
func NewRMSprop(lr float64) *RMSprop {
	if lr <= 0 {
		panic(fmt.Sprintf("opt: invalid RMSprop learning rate %v", lr))
	}
	return &RMSprop{LR: lr, Rho: 0.9, Eps: 1e-8, ClipNorm: 5}
}

// Step applies the RMSprop update and zeroes grads. Clipping stays a
// scalar pass: its sum of squares is one serial chain, and splitting it
// over lanes would reassociate it. The update itself is element-wise and
// runs, gradient clearing included, in tensor.RMSpropStep's one pass.
func (r *RMSprop) Step(params []*nn.Param) {
	r.gs = scaleGrads(r.gs[:0], params, 1)
	if r.ClipNorm > 0 {
		tensor.ClipNorm(r.gs, r.ClipNorm)
	}
	if r.cache == nil {
		r.cache = make(map[*nn.Param]*tensor.Matrix)
	}
	for _, p := range params {
		c, ok := r.cache[p]
		if !ok {
			c = tensor.New(p.Value.Rows, p.Value.Cols)
			r.cache[p] = c
		}
		tensor.RMSpropStep(p.Value.Data, p.Grad.Data, c.Data, r.LR, r.Rho, r.Eps)
	}
}
