package opt

import (
	"fmt"
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

// stepParams builds parameters at the Phase-2 trainer's sizes, weights
// and gradients drawn from seed.
func stepParams(seed int64) []*nn.Param {
	rng := rand.New(rand.NewSource(seed))
	var ps []*nn.Param
	for _, sh := range [][2]int{{128, 2}, {128, 32}, {1, 128}, {2, 32}, {1, 2}} {
		p := &nn.Param{Name: "p", Value: tensor.New(sh[0], sh[1]), Grad: tensor.New(sh[0], sh[1])}
		for i := range p.Value.Data {
			p.Value.Data[i] = rng.NormFloat64()
			p.Grad.Data[i] = 0.1 * rng.NormFloat64()
		}
		ps = append(ps, p)
	}
	return ps
}

// chainNorm is the square root of the clip decision's eight-chain sum of
// squares over the gradients (tensor.ClipGrads: element i of each
// gradient into chain i mod 8 below its length&^7, the tail into chain
// 0), divided by batch first when batch > 1.
func chainNorm(params []*nn.Param, batch int) float64 {
	var c [8]float64
	for _, p := range params {
		d := append([]float64(nil), p.Grad.Data...)
		if batch > 1 {
			tensor.VecScale(d, 1/float64(batch))
		}
		for ; len(d) >= 8; d = d[8:] {
			for k := range c {
				c[k] += d[k] * d[k]
			}
		}
		for _, v := range d {
			c[0] += v * v
		}
	}
	return math.Sqrt(((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7])))
}

// splitParams finds a stepParams set, its gradients spread over twelve
// decades, whose eight-chain sum of squares rounds to a lower norm than
// ClipNorm's sequential sum, and returns its seed and that lower norm: a
// limit ClipNorm clips at and the eight-chain sum alone would not.
func splitParams(t *testing.T, batch int) (int64, float64) {
	t.Helper()
	for seed := int64(100); seed < 2100; seed++ {
		ps := spread(stepParams(seed), seed)
		if lo := chainNorm(ps, batch); lo < seqNorm(ps, batch) {
			return seed, lo
		}
	}
	t.Fatal("premise: no gradient set found whose eight-chain and sequential sums round to different norms")
	return 0, 0
}

// spread rescales each gradient element by a power of ten drawn from seed
// in [1e-6, 1e6).
func spread(params []*nn.Param, seed int64) []*nn.Param {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= math.Pow(10, 12*rng.Float64()-6)
		}
	}
	return params
}

// seqNorm is the norm ClipNorm measures: its sequential sum of squares
// over every gradient, divided by batch first when batch > 1.
func seqNorm(params []*nn.Param, batch int) float64 {
	var gs []*tensor.Matrix
	for _, p := range params {
		g := p.Grad.Clone()
		if batch > 1 {
			g.Scale(1 / float64(batch))
		}
		gs = append(gs, g)
	}
	return math.Sqrt(sumSquares(gs))
}

func sumSquares(gs []*tensor.Matrix) float64 {
	total := 0.0
	for _, g := range gs {
		for _, v := range g.Data {
			total += v * v
		}
	}
	return total
}

// clipFirst clips params' gradients with tensor.ClipNorm, the sequential
// path, after the batch scaling Step applies before it.
func clipFirst(params []*nn.Param, maxNorm float64, batch int) {
	var gs []*tensor.Matrix
	for _, p := range params {
		if batch > 1 {
			p.Grad.Scale(1 / float64(batch))
		}
		gs = append(gs, p.Grad)
	}
	tensor.ClipNorm(gs, maxNorm)
}

func sameParams(t *testing.T, what string, got, want []*nn.Param) {
	t.Helper()
	for k := range want {
		for i, w := range want[k].Value.Data {
			if g := got[k].Value.Data[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s: param %d weight %d = %x, sequential clip %x", what, k, i, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// TestClipDecisionStepsMatchSequential holds RMSprop and SGD (plain,
// with momentum, and with a batch divisor) to the same optimizer with
// clipping done first by tensor.ClipNorm's sequential sum, over three
// steps, at limits just below, at and just above the gradient norm,
// inside the decision's error margin on both sides, and clear of it;
// with a NaN or an infinity among the gradients; and at a limit the
// eight-chain sum and the sequential sum fall on either side of.
func TestClipDecisionStepsMatchSequential(t *testing.T) {
	type variant struct {
		name  string
		batch int
		make  func(maxNorm float64) Optimizer
	}
	variants := []variant{
		{"rmsprop", 1, func(m float64) Optimizer { r := NewRMSprop(0.01); r.ClipNorm = m; return r }},
		{"sgd", 1, func(m float64) Optimizer { s := NewSGD(0.1); s.ClipNorm = m; return s }},
		{"sgd momentum", 1, func(m float64) Optimizer { s := NewSGD(0.1); s.ClipNorm, s.Momentum = m, 0.9; return s }},
		{"sgd batch 4", 4, func(m float64) Optimizer { s := NewSGD(0.1); s.ClipNorm, s.BatchSize = m, 4; return s }},
	}
	for _, v := range variants {
		norm := seqNorm(stepParams(47), v.batch)
		for _, m := range []float64{norm, math.Nextafter(norm, 0), math.Nextafter(norm, math.Inf(1)),
			norm * (1 - 1e-14), norm * (1 + 1e-14), norm / 3, 3 * norm} {
			for _, bad := range []float64{0, math.NaN(), math.Inf(1)} {
				got, want := stepParams(47), stepParams(47)
				got[1].Grad.Data[7], want[1].Grad.Data[7] = got[1].Grad.Data[7]+bad, want[1].Grad.Data[7]+bad
				opt, ref := v.make(m), v.make(0)
				if s, ok := ref.(*SGD); ok {
					s.BatchSize = 1
				}
				for step := 0; step < 3; step++ {
					if step > 0 {
						for k := range got {
							for i := range got[k].Grad.Data {
								g := 0.1 * math.Sin(float64(i+k+step))
								got[k].Grad.Data[i], want[k].Grad.Data[i] = g, g
							}
						}
					}
					opt.Step(got)
					clipFirst(want, m, v.batch)
					ref.Step(want)
				}
				sameParams(t, fmt.Sprintf("%s, limit %v, gradient %v added", v.name, m, bad), got, want)
			}
		}
		// A limit between the eight-chain norm and the sequential one:
		// only the decision's error margin sends this step to ClipNorm.
		seed, m := splitParams(t, v.batch)
		got, want := spread(stepParams(seed), seed), spread(stepParams(seed), seed)
		opt, ref := v.make(m), v.make(0)
		if s, ok := ref.(*SGD); ok {
			s.BatchSize = 1
		}
		opt.Step(got)
		clipFirst(want, m, v.batch)
		ref.Step(want)
		sameParams(t, fmt.Sprintf("%s, limit %v between the chain and sequential norms", v.name, m), got, want)
	}
}
