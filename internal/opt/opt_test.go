package opt

import (
	"math"
	"math/rand"
	"testing"

	"desh/internal/nn"
	"desh/internal/tensor"
)

// quadParam builds a parameter whose loss is 0.5*|w - target|^2, so the
// gradient is (w - target) and any sane optimizer converges to target.
func quadParam(t *testing.T, init []float64) *nn.Param {
	t.Helper()
	p := &nn.Param{
		Name:  "w",
		Value: tensor.FromSlice(1, len(init), append([]float64(nil), init...)),
		Grad:  tensor.New(1, len(init)),
	}
	return p
}

func setQuadGrad(p *nn.Param, target []float64) {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = p.Value.Data[i] - target[i]
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := quadParam(t, []float64{5, -3})
	target := []float64{1, 2}
	s := NewSGD(0.2)
	for i := 0; i < 200; i++ {
		setQuadGrad(p, target)
		s.Step([]*nn.Param{p})
	}
	for i, want := range target {
		if math.Abs(p.Value.Data[i]-want) > 1e-3 {
			t.Fatalf("w[%d]=%v, want %v", i, p.Value.Data[i], want)
		}
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	p := quadParam(t, []float64{10})
	s := NewSGD(0.05)
	s.Momentum = 0.9
	for i := 0; i < 300; i++ {
		setQuadGrad(p, []float64{0})
		s.Step([]*nn.Param{p})
	}
	if math.Abs(p.Value.Data[0]) > 1e-3 {
		t.Fatalf("w=%v, want ~0", p.Value.Data[0])
	}
}

func TestSGDZeroesGrads(t *testing.T) {
	p := quadParam(t, []float64{1})
	p.Grad.Data[0] = 3
	NewSGD(0.1).Step([]*nn.Param{p})
	if p.Grad.Data[0] != 0 {
		t.Fatal("Step must zero gradients")
	}
}

func TestSGDClipNorm(t *testing.T) {
	p := quadParam(t, []float64{0})
	p.Grad.Data[0] = 1000
	s := NewSGD(0.1)
	s.ClipNorm = 1
	s.Step([]*nn.Param{p})
	// Clipped gradient is 1, so the update is exactly -0.1.
	if math.Abs(p.Value.Data[0]+0.1) > 1e-12 {
		t.Fatalf("w=%v, want -0.1", p.Value.Data[0])
	}
}

func TestSGDInvalidLRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSGD(0)
}

func TestRMSpropConvergesOnQuadratic(t *testing.T) {
	p := quadParam(t, []float64{5, -3})
	target := []float64{1, 2}
	r := NewRMSprop(0.05)
	for i := 0; i < 500; i++ {
		setQuadGrad(p, target)
		r.Step([]*nn.Param{p})
	}
	for i, want := range target {
		if math.Abs(p.Value.Data[i]-want) > 1e-2 {
			t.Fatalf("w[%d]=%v, want %v", i, p.Value.Data[i], want)
		}
	}
}

func TestRMSpropHandlesScaleImbalance(t *testing.T) {
	// One coordinate has gradients 100x the other; RMSprop's per-weight
	// normalization should still move both towards the target.
	p := quadParam(t, []float64{100, 0.01})
	r := NewRMSprop(0.05)
	r.ClipNorm = 0
	for i := 0; i < 6000; i++ {
		p.Grad.Data[0] = (p.Value.Data[0]) * 100
		p.Grad.Data[1] = (p.Value.Data[1]) * 0.01
		r.Step([]*nn.Param{p})
	}
	if math.Abs(p.Value.Data[0]) > 0.5 || math.Abs(p.Value.Data[1]) > 0.5 {
		t.Fatalf("w=%v, want ~[0,0]", p.Value.Data)
	}
}

func TestRMSpropZeroesGrads(t *testing.T) {
	p := quadParam(t, []float64{1})
	p.Grad.Data[0] = 3
	NewRMSprop(0.01).Step([]*nn.Param{p})
	if p.Grad.Data[0] != 0 {
		t.Fatal("Step must zero gradients")
	}
}

func TestRMSpropInvalidLRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRMSprop(-1)
}

func TestOptimizersTrainRealLSTM(t *testing.T) {
	// End-to-end: both optimizers must reduce the training loss of a
	// small classifier on a repeating sequence.
	for name, mk := range map[string]func() Optimizer{
		"sgd":     func() Optimizer { return NewSGD(0.1) },
		"rmsprop": func() Optimizer { return NewRMSprop(0.01) },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(40))
			m := nn.NewSeqClassifier(4, 6, 10, 2, rng)
			o := mk()
			seq := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}
			const history, steps = 3, 1
			first, last := 0.0, 0.0
			for epoch := 0; epoch < 40; epoch++ {
				total := 0.0
				n := 0
				for i := 0; i+history+steps <= len(seq); i++ {
					total += m.WindowLoss(seq[i:i+history+steps], history, steps)
					n++
					o.Step(m.Params())
				}
				avg := total / float64(n)
				if epoch == 0 {
					first = avg
				}
				last = avg
			}
			if last > first*0.5 {
				t.Fatalf("%s: loss did not halve: first %v last %v", name, first, last)
			}
		})
	}
}

// BenchmarkRMSpropStep times one optimizer step over DefaultConfig's
// Phase-2 model (2 in, 2 out, two layers of 32; 12.9k weights), clipping
// included, on the update tier that serves. Each op first copies a fixed
// gradient back in (Step clears it), which keeps the squared-gradient
// cache at a steady level instead of decaying to subnormals. Steady
// state allocates nothing.
func BenchmarkRMSpropStep(b *testing.B) {
	m := nn.NewSeqRegressorIO(2, 2, 32, 2, rand.New(rand.NewSource(45)))
	params := m.Params()
	rng := rand.New(rand.NewSource(46))
	grads := make([][]float64, len(params))
	for k, p := range params {
		grads[k] = make([]float64, len(p.Grad.Data))
		for i := range grads[k] {
			grads[k][i] = 0.01 * rng.NormFloat64()
		}
	}
	r := NewRMSprop(0.01)
	r.Step(params) // builds the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, p := range params {
			copy(p.Grad.Data, grads[k])
		}
		r.Step(params)
	}
}
