package nn

import (
	"math"
	"math/rand"
	"testing"

	"desh/internal/loss"
	"desh/internal/tensor"
)

func TestDenseForward(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	d := NewDense(2, 3, rng)
	d.W.Value.CopyFrom(tensor.FromSlice(3, 2, []float64{1, 0, 0, 1, 1, 1}))
	d.B.Value.CopyFrom(tensor.FromSlice(1, 3, []float64{0.5, 0, -0.5}))
	y := d.Forward([]float64{2, 3})
	want := []float64{2.5, 3, 4.5}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v want %v", y, want)
		}
	}
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := NewDense(3, 2, rng)
	x := []float64{0.5, -1, 2}
	target := []float64{1, -1}
	forward := func() float64 {
		return loss.MSE(d.Forward(x), target)
	}
	pred := d.Forward(x)
	dPred := make([]float64, 2)
	loss.MSEGrad(dPred, pred, target)
	ZeroGrads(d.Params())
	dx := make([]float64, len(x))
	d.BackwardInto(dx, x, dPred)
	for _, p := range d.Params() {
		num := numericalGrad(p, forward)
		if diff := maxGradDiff(p.Grad, num); diff > 1e-5 {
			t.Errorf("%s: grad error %v", p.Name, diff)
		}
	}
	// Input gradient.
	const eps = 1e-6
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

func TestDenseInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(0, 1, rand.New(rand.NewSource(1)))
}

func TestClassifierWindowLossShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := NewSeqClassifier(5, 4, 6, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong window length")
		}
	}()
	m.WindowLoss([]int{1, 2, 3}, 3, 3)
}

func TestClassifierTokenRangePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := NewSeqClassifier(5, 4, 6, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-vocab token")
		}
	}()
	m.NextProbs([]int{7})
}

func TestClassifierGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := NewSeqClassifier(4, 3, 3, 2, rng)
	window := []int{0, 1, 2, 3, 1}
	const history, steps = 3, 2
	forward := func() float64 {
		// WindowLoss accumulates grads; for numerical probing we only
		// need the loss value, so zero afterwards.
		l := m.WindowLoss(window, history, steps)
		ZeroGrads(m.Params())
		return l
	}
	ZeroGrads(m.Params())
	m.WindowLoss(window, history, steps)
	// Snapshot analytic grads before probing (probing zeroes them).
	analytic := make([]*tensor.Matrix, len(m.Params()))
	for i, p := range m.Params() {
		analytic[i] = p.Grad.Clone()
	}
	for i, p := range m.Params() {
		num := numericalGrad(p, forward)
		if diff := maxGradDiff(analytic[i], num); diff > 1e-4 {
			t.Errorf("%s: grad error %v", p.Name, diff)
		}
	}
}

// The classifier must be able to memorize a simple repeating sequence —
// the smoke test that BPTT + SGD actually learn.
func TestClassifierLearnsRepeatingSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const vocab = 5
	m := NewSeqClassifier(vocab, 8, 16, 2, rng)
	seq := make([]int, 200)
	for i := range seq {
		seq[i] = i % vocab
	}
	const history, steps = 4, 1
	lr := 0.5
	for epoch := 0; epoch < 30; epoch++ {
		for i := 0; i+history+steps <= len(seq); i++ {
			m.WindowLoss(seq[i:i+history+steps], history, steps)
			for _, p := range m.Params() {
				p.Value.AddScaled(p.Grad, -lr/10)
				p.Grad.Zero()
			}
		}
	}
	correct := 0
	trials := 50
	pr := m.NewPredictor()
	for i := 0; i < trials; i++ {
		hist := seq[i : i+history]
		pred := pr.Predict(hist, 1)
		if pred[0] == seq[i+history] {
			correct++
		}
	}
	if correct < trials*9/10 {
		t.Fatalf("classifier memorized %d/%d of a cyclic sequence, want >= 90%%", correct, trials)
	}
}

func TestClassifierPredictRolloutLength(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m := NewSeqClassifier(6, 4, 5, 1, rng)
	out := m.NewPredictor().Predict([]int{1, 2, 3}, 3)
	if len(out) != 3 {
		t.Fatalf("rollout length %d", len(out))
	}
	for _, tok := range out {
		if tok < 0 || tok >= 6 {
			t.Fatalf("token %d out of vocab", tok)
		}
	}
}

func TestClassifierNextProbsIsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	m := NewSeqClassifier(7, 4, 5, 2, rng)
	p := m.NextProbs([]int{0, 1, 2})
	sum := 0.0
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestClassifierEmptyHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	m := NewSeqClassifier(4, 3, 4, 1, rng)
	p := m.NextProbs(nil)
	if len(p) != 4 {
		t.Fatalf("probs length %d", len(p))
	}
}

func TestSetEmbeddings(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := NewSeqClassifier(3, 2, 4, 1, rng)
	emb := tensor.FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	m.SetEmbeddings(emb)
	if m.Embed.Value.At(2, 1) != 6 {
		t.Fatal("embeddings not installed")
	}
	emb.Set(0, 0, 99)
	if m.Embed.Value.At(0, 0) == 99 {
		t.Fatal("SetEmbeddings must copy")
	}
}

func TestSetEmbeddingsShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m := NewSeqClassifier(3, 2, 4, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetEmbeddings(tensor.New(2, 2))
}

// TestRegressorGradientCheck differentiates SequenceLoss, the loss
// Phase 2 trains on: every step predicts the next vector, so the check
// covers each step's head gradient and their sum through time.
func TestRegressorGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := NewSeqRegressorIO(2, 2, 3, 2, rng)
	window := [][]float64{{0.1, 0.5}, {0.2, 0.4}, {0.3, 0.3}, {0.4, 0.2}}
	forward := func() float64 {
		l := m.SequenceLoss(window[:3], window[1:])
		ZeroGrads(m.Params())
		return l
	}
	ZeroGrads(m.Params())
	m.SequenceLoss(window[:3], window[1:])
	analytic := make([]*tensor.Matrix, len(m.Params()))
	for i, p := range m.Params() {
		analytic[i] = p.Grad.Clone()
	}
	for i, p := range m.Params() {
		num := numericalGrad(p, forward)
		if diff := maxGradDiff(analytic[i], num); diff > 1e-4 {
			t.Errorf("%s: grad error %v", p.Name, diff)
		}
	}
}

// The regressor must learn a deterministic countdown pattern — the shape
// of Desh's ΔT sequences (cumulative time decreasing to 0).
func TestRegressorLearnsCountdown(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := NewSeqRegressorIO(2, 2, 12, 2, rng)
	// Sequence: ΔT decreasing 1.0, 0.9, ..., phrase-id cycling.
	mkSeq := func() [][]float64 {
		seq := make([][]float64, 11)
		for i := range seq {
			seq[i] = []float64{1 - float64(i)*0.1, float64(i%3) * 0.2}
		}
		return seq
	}
	seq := mkSeq()
	// SequenceLoss averages its five per-step gradients, hence the
	// larger step.
	const history = 5
	lr := 0.05
	for epoch := 0; epoch < 400; epoch++ {
		for i := 0; i+history+1 <= len(seq); i++ {
			m.SequenceLoss(seq[i:i+history], seq[i+1:i+history+1])
			for _, p := range m.Params() {
				p.Value.AddScaled(p.Grad, -lr)
				p.Grad.Zero()
			}
		}
	}
	var pred []float64
	for s, i := m.NewStream(), 0; i < history; i++ {
		pred = s.Step(seq[i])
	}
	if got := loss.MSE(pred, seq[history]); got > 0.01 {
		t.Fatalf("countdown prediction MSE %v, want < 0.01 (pred %v want %v)", got, pred, seq[history])
	}
}

func TestRegressorWindowTooShortPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m := NewSeqRegressorIO(2, 2, 3, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SequenceLoss(nil, nil)
}

func TestRegressorTargetDimPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := NewSeqRegressorIO(2, 3, 4, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SequenceLoss([][]float64{{1, 2}}, [][]float64{{1, 2}})
}

func TestRegressorIODims(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	m := NewSeqRegressorIO(3, 2, 4, 1, rng)
	pred := m.NewStream().Step([]float64{1, 2, 3})
	if len(pred) != 2 {
		t.Fatalf("prediction width %d, want 2", len(pred))
	}
}

func TestRegressorStream(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	m := NewSeqRegressorIO(2, 2, 4, 2, rng)
	window := [][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}}
	s, st := m.NewStream(), m.Stack.NewState()
	for _, x := range window {
		want := stepInferRef(m, st, x)
		got := s.Step(x)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatal("Stream and StepInfer must agree")
			}
		}
	}

	// A vector of the wrong width must refuse loudly, not score garbage.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on input length mismatch")
		}
	}()
	s.Step([]float64{0.1})
}
