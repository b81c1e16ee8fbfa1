package nn

import (
	"fmt"
	"math/rand"

	"desh/internal/loss"
	"desh/internal/tensor"
)

// SeqClassifier is the Phase-1 model: encoded phrases are embedded,
// pushed through a stacked LSTM and projected onto vocabulary logits to
// predict upcoming phrases (Table 5, row Phase-1: SGD + categorical
// cross-entropy, 2 hidden layers, 3-step prediction, history size 8).
//
// The same model class doubles as the DeepLog baseline, which flags an
// anomaly when the observed phrase is outside the top-g predictions.
type SeqClassifier struct {
	Vocab, EmbDim int
	Embed         *Param // [vocab x embDim] phrase embedding table
	Stack         *LSTMStack
	Out           *Dense

	ws clsWS
}

// clsWS holds grow-only training buffers for WindowLoss. Like the stack
// workspace it makes training single-threaded per model; inference
// fan-out uses per-goroutine Predictors.
type clsWS struct {
	xs      [][]float64 // embedding-row views per input step
	dOut    [][]float64 // per-step slots passed to Stack.Backward
	dOutBuf [][]float64 // backing buffers for dOut entries
	logits  []float64
	dLogits []float64
	probs   []float64
}

// NewSeqClassifier builds the Phase-1 architecture. The embedding table
// starts as small Gaussian noise and is typically overwritten by
// SetEmbeddings with skip-gram vectors.
func NewSeqClassifier(vocab, embDim, hidden, layers int, rng *rand.Rand) *SeqClassifier {
	if vocab <= 0 || embDim <= 0 {
		panic(fmt.Sprintf("nn: invalid classifier sizes vocab=%d emb=%d", vocab, embDim))
	}
	m := &SeqClassifier{
		Vocab:  vocab,
		EmbDim: embDim,
		Embed:  newParam("classifier.Embed", vocab, embDim),
		Stack:  NewLSTMStack(embDim, hidden, layers, rng),
		Out:    NewDense(hidden, vocab, rng),
	}
	tensor.Randn(m.Embed.Value, 0.1, rng)
	return m
}

// SetEmbeddings installs pre-trained vectors (e.g. from internal/embed).
// The matrix must be [vocab x embDim]; it is copied.
func (m *SeqClassifier) SetEmbeddings(emb *tensor.Matrix) {
	if emb.Rows != m.Vocab || emb.Cols != m.EmbDim {
		panic(fmt.Sprintf("nn: embeddings %dx%d, want %dx%d", emb.Rows, emb.Cols, m.Vocab, m.EmbDim))
	}
	m.Embed.Value.CopyFrom(emb)
}

// Params returns the trainable parameters. The embedding table is one
// of them: Desh pre-trains it with skip-gram and Phase 1 fine-tunes it.
func (m *SeqClassifier) Params() []*Param {
	ps := append(m.Stack.Params(), m.Out.Params()...)
	return append(ps, m.Embed)
}

// growWS sizes the training workspace for a T-step window.
func (m *SeqClassifier) growWS(T int) {
	if m.ws.probs == nil {
		m.ws.probs = make([]float64, m.Vocab)
		m.ws.logits = make([]float64, m.Vocab)
		m.ws.dLogits = make([]float64, m.Vocab)
	}
	for len(m.ws.dOutBuf) < T {
		m.ws.dOutBuf = append(m.ws.dOutBuf, make([]float64, m.Stack.HiddenSize()))
	}
	for len(m.ws.dOut) < T {
		m.ws.dOut = append(m.ws.dOut, nil)
		m.ws.xs = append(m.ws.xs, nil)
	}
}

// embed looks up the embedding row for a token (aliased, do not mutate).
func (m *SeqClassifier) embedRow(tok int) []float64 {
	if tok < 0 || tok >= m.Vocab {
		panic(fmt.Sprintf("nn: token %d out of vocab %d", tok, m.Vocab))
	}
	return m.Embed.Value.Row(tok)
}

// WindowLoss performs one teacher-forced training pass over a window.
// The first history tokens are context; the model is asked to predict
// the following steps tokens (so len(window) must be history+steps).
// Gradients accumulate into Params; the caller owns zeroing and the
// optimizer step. The return value is the mean cross-entropy over the
// predicted steps.
func (m *SeqClassifier) WindowLoss(window []int, history, steps int) float64 {
	if steps < 1 || history < 1 {
		panic(fmt.Sprintf("nn: invalid history=%d steps=%d", history, steps))
	}
	if len(window) != history+steps {
		panic(fmt.Sprintf("nn: window length %d, want history+steps=%d", len(window), history+steps))
	}
	T := history + steps - 1 // inputs fed (teacher forcing)
	m.growWS(T)
	xs := m.ws.xs[:T]
	for t := 0; t < T; t++ {
		xs[t] = m.embedRow(window[t])
	}
	tape := m.Stack.Forward(xs)

	total := 0.0
	dOut := m.ws.dOut[:T]
	for t := range dOut {
		dOut[t] = nil
	}
	probs := m.ws.probs
	for t := history - 1; t < T; t++ {
		target := window[t+1]
		m.Out.ForwardInto(m.ws.logits, tape.Outputs[t])
		loss.Softmax(probs, m.ws.logits)
		total += loss.CrossEntropy(probs, target)
		loss.SoftmaxCrossEntropyGrad(m.ws.dLogits, probs, target)
		tensor.VecScale(m.ws.dLogits, 1/float64(steps))
		m.Out.BackwardInto(m.ws.dOutBuf[t], tape.Outputs[t], m.ws.dLogits)
		dOut[t] = m.ws.dOutBuf[t]
	}
	dxs := m.Stack.Backward(tape, dOut)
	for t := 0; t < T; t++ {
		tensor.Axpy(1, dxs[t], m.Embed.Grad.Row(window[t]))
	}
	return total / float64(steps)
}

// NextProbs returns the softmax distribution over the next phrase given
// a history of tokens (no gradient recording).
func (m *SeqClassifier) NextProbs(history []int) []float64 {
	st := m.Stack.NewState()
	var h []float64
	for _, tok := range history {
		h = m.Stack.StepInfer(m.embedRow(tok), st)
	}
	if h == nil {
		h = make([]float64, m.Stack.HiddenSize())
	}
	logits := m.Out.Forward(h)
	p := make([]float64, m.Vocab)
	loss.Softmax(p, logits)
	return p
}

// Predict rolls the model out steps tokens past the history, greedily
// feeding each argmax prediction back as the next input — the paper's
// "3-step prediction" inference mode. This convenience wrapper builds a
// fresh Predictor per call; hot loops should hold one and reuse it.
func (m *SeqClassifier) Predict(history []int, steps int) []int {
	out := m.NewPredictor().Predict(history, steps)
	return append([]int(nil), out...)
}

// Predictor is a reusable inference cursor for the Phase-1 classifier:
// the Figure-10 prediction-cost kernel. All state and scratch live on
// the predictor, so steady-state Predict calls allocate nothing, and
// distinct predictors over one model may run concurrently.
type Predictor struct {
	m      *SeqClassifier
	st     *State
	zeroH  []float64
	logits []float64
	probs  []float64
	out    []int
}

// NewPredictor allocates an inference cursor for the model.
func (m *SeqClassifier) NewPredictor() *Predictor {
	return &Predictor{
		m:      m,
		st:     m.Stack.NewState(),
		zeroH:  make([]float64, m.Stack.HiddenSize()),
		logits: make([]float64, m.Vocab),
		probs:  make([]float64, m.Vocab),
		out:    make([]int, 0, 8),
	}
}

// Predict is SeqClassifier.Predict without per-call allocation. The
// returned slice is owned by the predictor and valid until the next
// call.
func (p *Predictor) Predict(history []int, steps int) []int {
	m := p.m
	p.st.Reset()
	var h []float64
	for _, tok := range history {
		h = m.Stack.StepInfer(m.embedRow(tok), p.st)
	}
	if h == nil {
		h = p.zeroH
	}
	p.out = p.out[:0]
	for s := 0; s < steps; s++ {
		m.Out.ForwardInto(p.logits, h)
		loss.Softmax(p.probs, p.logits)
		tok := tensor.ArgMax(p.probs)
		p.out = append(p.out, tok)
		if s+1 < steps {
			h = m.Stack.StepInfer(m.embedRow(tok), p.st)
		}
	}
	return p.out
}
