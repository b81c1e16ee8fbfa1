package nn

import (
	"math"
	"math/rand"
	"testing"

	"desh/internal/loss"
	"desh/internal/tensor"
)

// numericalGrad perturbs every element of p.Value and measures the change
// in f(), returning the numerical gradient matrix.
func numericalGrad(p *Param, f func() float64) *tensor.Matrix {
	const eps = 1e-5
	g := tensor.New(p.Value.Rows, p.Value.Cols)
	for i := range p.Value.Data {
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + eps
		up := f()
		p.Value.Data[i] = orig - eps
		down := f()
		p.Value.Data[i] = orig
		g.Data[i] = (up - down) / (2 * eps)
	}
	return g
}

// ZeroGrads clears the gradients of every parameter.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

func maxGradDiff(analytic, numeric *tensor.Matrix) float64 {
	worst := 0.0
	for i := range analytic.Data {
		d := math.Abs(analytic.Data[i] - numeric.Data[i])
		scale := math.Max(1, math.Abs(numeric.Data[i]))
		if rel := d / scale; rel > worst {
			worst = rel
		}
	}
	return worst
}

func TestLSTMLayerShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTMLayer(3, 4, rng)
	h, c, cache := l.StepForward(make([]float64, 3), make([]float64, 4), make([]float64, 4))
	if len(h) != 4 || len(c) != 4 {
		t.Fatalf("state lengths %d/%d", len(h), len(c))
	}
	if cache == nil {
		t.Fatal("nil cache")
	}
}

func TestLSTMForgetBiasInit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLSTMLayer(2, 3, rng)
	for j := 3; j < 6; j++ {
		if l.B.Value.Data[j] != 1 {
			t.Fatalf("forget bias %d = %v, want 1", j, l.B.Value.Data[j])
		}
	}
	for j := 0; j < 3; j++ {
		if l.B.Value.Data[j] != 0 {
			t.Fatalf("input bias %d = %v, want 0", j, l.B.Value.Data[j])
		}
	}
}

func TestLSTMInvalidSizesPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLSTMLayer(0, 4, rng)
}

func TestLSTMInputLengthPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTMLayer(3, 4, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.StepForward(make([]float64, 2), make([]float64, 4), make([]float64, 4))
}

func TestLSTMStateBounded(t *testing.T) {
	// Hidden activations are o*tanh(c), so |h| <= 1 always.
	rng := rand.New(rand.NewSource(5))
	l := NewLSTMLayer(2, 8, rng)
	h := make([]float64, 8)
	c := make([]float64, 8)
	for step := 0; step < 200; step++ {
		x := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		h, c, _ = l.StepForward(x, h, c)
		for _, v := range h {
			if math.Abs(v) > 1 {
				t.Fatalf("hidden activation %v out of [-1,1]", v)
			}
			if math.IsNaN(v) {
				t.Fatal("NaN hidden state")
			}
		}
	}
	_ = c
}

func TestLSTMDeterministic(t *testing.T) {
	mk := func() []float64 {
		rng := rand.New(rand.NewSource(6))
		l := NewLSTMLayer(2, 4, rng)
		h := make([]float64, 4)
		c := make([]float64, 4)
		h, _, _ = l.StepForward([]float64{1, -1}, h, c)
		return h
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical outputs")
		}
	}
}

// Gradient check: single LSTM layer, loss = sum of squared hidden outputs
// over a short sequence. Verifies Wx, Wh and B gradients against
// numerical differentiation, including the recurrent (through-time) path.
func TestLSTMGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const inSize, hidden, T = 3, 4, 5
	l := NewLSTMLayer(inSize, hidden, rng)
	xs := make([][]float64, T)
	for t2 := range xs {
		xs[t2] = make([]float64, inSize)
		for i := range xs[t2] {
			xs[t2][i] = rng.NormFloat64()
		}
	}

	// forward computes the scalar loss 0.5*sum_t |h_t|^2.
	forward := func() float64 {
		h := make([]float64, hidden)
		c := make([]float64, hidden)
		total := 0.0
		for t2 := 0; t2 < T; t2++ {
			h, c, _ = l.StepForward(xs[t2], h, c)
			for _, v := range h {
				total += 0.5 * v * v
			}
		}
		return total
	}

	// Analytic pass: forward with caches, then BPTT with dh_t = h_t.
	h := make([]float64, hidden)
	c := make([]float64, hidden)
	caches := make([]*stepCache, T)
	hs := make([][]float64, T)
	for t2 := 0; t2 < T; t2++ {
		h, c, caches[t2] = l.StepForward(xs[t2], h, c)
		hs[t2] = h
	}
	for _, p := range l.Params() {
		p.Grad.Zero()
	}
	var dhNext, dcNext []float64
	for t2 := T - 1; t2 >= 0; t2-- {
		dh := tensor.VecCopy(hs[t2])
		if dhNext != nil {
			tensor.Axpy(1, dhNext, dh)
		}
		_, dhNext, dcNext = l.StepBackward(caches[t2], dh, dcNext)
	}

	for _, p := range l.Params() {
		num := numericalGrad(p, forward)
		if diff := maxGradDiff(p.Grad, num); diff > 1e-4 {
			t.Errorf("%s: max relative grad error %v", p.Name, diff)
		}
	}
}

// Gradient check for the input path: dx from StepBackward must match
// numerical perturbation of the inputs.
func TestLSTMInputGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const inSize, hidden = 3, 4
	l := NewLSTMLayer(inSize, hidden, rng)
	x := []float64{0.3, -0.7, 1.2}

	forward := func() float64 {
		h, _, _ := l.StepForward(x, make([]float64, hidden), make([]float64, hidden))
		total := 0.0
		for _, v := range h {
			total += 0.5 * v * v
		}
		return total
	}

	h, _, cache := l.StepForward(x, make([]float64, hidden), make([]float64, hidden))
	for _, p := range l.Params() {
		p.Grad.Zero()
	}
	dx, _, _ := l.StepBackward(cache, tensor.VecCopy(h), nil)

	const eps = 1e-5
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		up := forward()
		x[i] = orig - eps
		down := forward()
		x[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-dx[i]) > 1e-5 {
			t.Errorf("dx[%d]: analytic %v numeric %v", i, dx[i], num)
		}
	}
}

// Full-stack gradient check: 2-layer stacked LSTM with the tape API and a
// cross-entropy head, mirroring the real Phase-1 training path.
func TestStackGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const inSize, hidden, layers, T = 2, 3, 2, 4
	stack := NewLSTMStack(inSize, hidden, layers, rng)
	head := NewDense(hidden, 3, rng)
	xs := make([][]float64, T)
	for t2 := range xs {
		xs[t2] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	target := 1

	forward := func() float64 {
		tape := stack.Forward(xs)
		logits := head.Forward(tape.Outputs[T-1])
		p := make([]float64, 3)
		loss.Softmax(p, logits)
		return loss.CrossEntropy(p, target)
	}

	tape := stack.Forward(xs)
	logits := head.Forward(tape.Outputs[T-1])
	p := make([]float64, 3)
	loss.Softmax(p, logits)
	dLogits := make([]float64, 3)
	loss.SoftmaxCrossEntropyGrad(dLogits, p, target)
	params := append(stack.Params(), head.Params()...)
	ZeroGrads(params)
	dOut := make([][]float64, T)
	dOut[T-1] = make([]float64, hidden)
	head.BackwardInto(dOut[T-1], tape.Outputs[T-1], dLogits)
	stack.Backward(tape, dOut)

	for _, prm := range params {
		num := numericalGrad(prm, forward)
		if diff := maxGradDiff(prm.Grad, num); diff > 1e-4 {
			t.Errorf("%s: max relative grad error %v", prm.Name, diff)
		}
	}
}

func TestStackForwardInferConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewLSTMStack(2, 4, 2, rng)
	xs := [][]float64{{1, 0}, {0, 1}, {0.5, -0.5}}
	tape := s.Forward(xs)
	st := s.NewState()
	var h []float64
	for _, x := range xs {
		h = s.StepInfer(x, st)
	}
	for i := range h {
		if math.Abs(h[i]-tape.Outputs[2][i]) > 1e-12 {
			t.Fatal("Forward and StepInfer must agree")
		}
	}
}

func TestStackBackwardLengthPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := NewLSTMStack(2, 3, 1, rng)
	tape := s.Forward([][]float64{{1, 2}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Backward(tape, make([][]float64, 2))
}

func TestNewLSTMStackInvalidLayersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLSTMStack(2, 3, 0, rand.New(rand.NewSource(1)))
}

// TestForwardAfterStepMatchesGateMatVec is the stale-transpose test. On
// hosts with the gate kernel, Forward runs every gate over transposes of
// the weights it copies at its start; an optimizer step between two
// Forwards must be seen by the second. Every cache of its tape must
// equal, bit for bit, a replay through StepForward, which reads the
// live row-major weights through GateMatVec.
func TestForwardAfterStepMatchesGateMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewSeqRegressorIO(2, 2, 8, 2, rng)
	in, tg := randSeq(rng, 6, 2), randSeq(rng, 6, 2)
	m.SequenceLoss(in, tg)
	for _, p := range m.Params() {
		p.Value.AddScaled(p.Grad, -0.5)
	}
	ZeroGrads(m.Params())
	tape := m.Stack.Forward(in)

	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	hs, cs := make([][]float64, len(m.Stack.Layers)), make([][]float64, len(m.Stack.Layers))
	for k, l := range m.Stack.Layers {
		hs[k], cs[k] = make([]float64, l.HiddenSize), make([]float64, l.HiddenSize)
	}
	for step, x := range in {
		for k, l := range m.Stack.Layers {
			var want *stepCache
			hs[k], cs[k], want = l.StepForward(x, hs[k], cs[k])
			got := tape.caches[step][k]
			for name, pair := range map[string][2][]float64{
				"i": {got.i, want.i}, "f": {got.f, want.f}, "g": {got.g, want.g}, "o": {got.o, want.o},
				"c": {got.c, want.c}, "tanh(c)": {got.tc, want.tc}, "h": {got.h, want.h},
			} {
				if !same(pair[0], pair[1]) {
					t.Fatalf("step %d layer %d: %s = %v after the update, GateMatVec gives %v", step, k, name, pair[0], pair[1])
				}
			}
			x = hs[k]
		}
	}
}
