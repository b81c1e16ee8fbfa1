package nn

import (
	"math"
	"math/rand"
	"testing"
)

// stepInferRef is the serving step as the row-major scalar kernels
// compute it: LSTMStack.StepInfer (tensor.GateMatVec) plus the dense
// head. Stream.Step must equal it bit for bit on every kernel.
func stepInferRef(m *SeqRegressor, st *State, x []float64) []float64 {
	return m.Out.Forward(m.Stack.StepInfer(x, st))
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %x, want %x", label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestStreamMatchesStepInfer pins the serving kernel to the scalar one
// at model level: the Phase-2 serving shape, a hidden width whose 4H is
// not a multiple of 16, and one below 16 rows.
func TestStreamMatchesStepInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for _, shape := range []struct{ in, hidden, layers int }{{2, 32, 2}, {2, 50, 2}, {7, 3, 3}, {1, 16, 1}} {
		m := NewSeqRegressorIO(shape.in, 2, shape.hidden, shape.layers, rng)
		s, st := m.NewStream(), m.Stack.NewState()
		for step, x := range randSeq(rng, 12, shape.in) {
			want := stepInferRef(m, st, x)
			sameBits(t, "Stream.Step", s.Step(x), want)
			if step == 5 { // a rewound stream starts over
				s.Reset()
				st.Reset()
			}
		}
	}
}

func TestStreamStepAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	m := NewSeqRegressorIO(2, 2, 32, 2, rng)
	s := m.NewStream()
	seq := randSeq(rng, 8, 2)
	if n := testing.AllocsPerRun(50, func() {
		s.Reset()
		for _, x := range seq {
			s.Step(x)
		}
	}); n != 0 {
		t.Fatalf("Stream.Step allocates %v per sequence", n)
	}
}

// TestStreamGatesFollowTraining covers the life of the serving images:
// streams of one model share them, and a stream built after the weights
// moved scores the new weights, never a stale transpose.
func TestStreamGatesFollowTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	m := NewSeqRegressorIO(2, 2, 32, 2, rng)
	a, b := m.NewStream(), m.NewStreamBatch()
	if &a.b.gates[0] != &b.gates[0] {
		t.Fatal("streams of one unchanged model do not share gate images")
	}

	// One training pass moves every weight, as an optimizer step would.
	seq := randSeq(rng, 6, 2)
	m.SequenceLoss(seq, seq)
	for _, p := range m.Params() {
		for i, g := range p.Grad.Data {
			p.Value.Data[i] -= 0.05 * g
		}
	}

	s, sb, st := m.NewStream(), m.NewStreamBatch(), m.Stack.NewState()
	sb.Begin(1)
	for _, x := range seq {
		want := stepInferRef(m, st, x)
		sameBits(t, "Stream.Step after training", s.Step(x), want)
		copy(sb.Input(0), x)
		sameBits(t, "StreamBatch.Step after training", sb.Step().Row(0), want)
	}
}
