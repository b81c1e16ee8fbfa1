package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"desh/internal/loss"
	"desh/internal/tensor"
)

// SeqRegressor is the Phase-2/3 model: it consumes 2-state vectors
// (ΔT, phrase-id) from failure chains and predicts the next vector with
// MSE loss (Table 5, rows Phase-2/3: MSE + RMSprop, history size 5,
// 1-step prediction, 2 hidden layers).
//
// Input and output dimensions are independent so callers can feed the
// LSTM normalized features while regressing differently-scaled targets.
//
// Training entry points (WindowLoss, SequenceLoss) share a reusable
// workspace and are single-threaded per model; concurrent inference must
// go through per-goroutine Streams.
type SeqRegressor struct {
	InDim, OutDim int
	Stack         *LSTMStack
	Out           *Dense

	ws regWS

	// Serving gate images, one per layer (serveGates).
	gateMu sync.Mutex
	gates  []*tensor.GateWeights
}

// regWS holds grow-only training buffers, valid within one loss call.
type regWS struct {
	pred    []float64
	dPred   []float64
	dOut    [][]float64 // per-step slots passed to Stack.Backward
	dOutBuf [][]float64 // backing buffers for dOut entries
}

// NewSeqRegressor builds the Phase-2 architecture with equal input and
// output width.
func NewSeqRegressor(dim, hidden, layers int, rng *rand.Rand) *SeqRegressor {
	return NewSeqRegressorIO(dim, dim, hidden, layers, rng)
}

// NewSeqRegressorIO builds a regressor with distinct input and output
// widths.
func NewSeqRegressorIO(inDim, outDim, hidden, layers int, rng *rand.Rand) *SeqRegressor {
	if inDim <= 0 || outDim <= 0 {
		panic(fmt.Sprintf("nn: invalid regressor dims in=%d out=%d", inDim, outDim))
	}
	return &SeqRegressor{
		InDim:  inDim,
		OutDim: outDim,
		Stack:  NewLSTMStack(inDim, hidden, layers, rng),
		Out:    NewDense(hidden, outDim, rng),
	}
}

// Params returns the trainable parameters.
func (m *SeqRegressor) Params() []*Param {
	return append(m.Stack.Params(), m.Out.Params()...)
}

// growWS sizes the workspace for a T-step sequence.
func (m *SeqRegressor) growWS(T int) {
	if m.ws.pred == nil {
		m.ws.pred = make([]float64, m.OutDim)
		m.ws.dPred = make([]float64, m.OutDim)
	}
	for len(m.ws.dOutBuf) < T {
		m.ws.dOutBuf = append(m.ws.dOutBuf, make([]float64, m.Stack.HiddenSize()))
	}
	for len(m.ws.dOut) < T {
		m.ws.dOut = append(m.ws.dOut, nil)
	}
}

// WindowLoss performs one training pass: the inputs are the context
// window and target is the 1-step prediction target. Gradients
// accumulate into Params. Returns the MSE of the prediction.
func (m *SeqRegressor) WindowLoss(inputs [][]float64, target []float64) float64 {
	if len(inputs) < 1 {
		panic("nn: regressor needs at least one context vector")
	}
	if len(target) != m.OutDim {
		panic(fmt.Sprintf("nn: regressor target length %d, want %d", len(target), m.OutDim))
	}
	T := len(inputs)
	m.growWS(T)
	tape := m.Stack.Forward(inputs)
	last := T - 1
	hLast := tape.Outputs[last]
	m.Out.ForwardInto(m.ws.pred, hLast)
	mse := loss.MSE(m.ws.pred, target)

	loss.MSEGrad(m.ws.dPred, m.ws.pred, target)
	dOut := m.ws.dOut[:T]
	for t := range dOut {
		dOut[t] = nil
	}
	m.Out.BackwardInto(m.ws.dOutBuf[last], hLast, m.ws.dPred)
	dOut[last] = m.ws.dOutBuf[last]
	m.Stack.Backward(tape, dOut)
	return mse
}

// SequenceLoss performs one teacher-forced training pass over a whole
// sequence: after reading inputs[0..t] the model must predict
// targets[t]. This mirrors streaming inference (Stream.Step) exactly, so
// a model trained this way is never asked to predict from a context it
// will not see at detection time. Gradients accumulate into Params.
// Returns the mean MSE across the sequence.
func (m *SeqRegressor) SequenceLoss(inputs, targets [][]float64) float64 {
	if len(inputs) == 0 || len(inputs) != len(targets) {
		panic(fmt.Sprintf("nn: SequenceLoss lengths %d/%d", len(inputs), len(targets)))
	}
	T := len(inputs)
	m.growWS(T)
	tape := m.Stack.Forward(inputs)
	total := 0.0
	dOut := m.ws.dOut[:T]
	inv := 1 / float64(T)
	for t := range inputs {
		m.Out.ForwardInto(m.ws.pred, tape.Outputs[t])
		total += loss.MSE(m.ws.pred, targets[t])
		loss.MSEGrad(m.ws.dPred, m.ws.pred, targets[t])
		for i := range m.ws.dPred {
			m.ws.dPred[i] *= inv
		}
		m.Out.BackwardInto(m.ws.dOutBuf[t], tape.Outputs[t], m.ws.dPred)
		dOut[t] = m.ws.dOutBuf[t]
	}
	m.Stack.Backward(tape, dOut)
	return total * inv
}

// serveGates returns the serving image of each layer's gate weights
// (tensor.GateWeights: on AVX2 hosts a transposed copy, ~100 KB for the
// Phase-2 model). The images are built on the first call and shared by
// every Stream and StreamBatch made from this model afterwards, so one
// adopted model costs one copy however many shards serve it. Each call
// checks the images against the live weights and builds fresh ones if
// training has moved them; streams that exist by then keep the images
// they were built with, so a stream scores the weights as they stood
// when it was made. The check is a pass over the weights: it runs where
// streams are built, never where they step.
func (m *SeqRegressor) serveGates() []*tensor.GateWeights {
	m.gateMu.Lock()
	defer m.gateMu.Unlock()
	for _, g := range m.gates {
		if !g.Current() {
			m.gates = nil
			break
		}
	}
	if m.gates == nil {
		gates := make([]*tensor.GateWeights, len(m.Stack.Layers))
		for k, l := range m.Stack.Layers {
			gates[k] = tensor.NewGateWeights(l.Wx.Value, l.Wh.Value, l.B.Value.Data)
		}
		m.gates = gates
	}
	return m.gates
}
