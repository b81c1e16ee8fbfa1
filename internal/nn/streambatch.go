package nn

import (
	"fmt"

	"desh/internal/tensor"
)

// StreamBatch is the float64 serving scorer. It runs sequences through
// the model two ways, forward-only and from the all-zero state, with no
// tape recorded:
//
//   - Score takes one whole sequence and runs it a chunk of steps at a
//     time, layer by layer: each layer's input half over the chunk's
//     steps, then its recurrence, then the output head over the chunk.
//     Phase 3 scores closed chains this way.
//   - Begin/Input/Step advance up to `capacity` sequences in lockstep,
//     one timestep a call: each row through each layer's stepServe plus
//     one tensor.MatMulABtBiasInto for the output head, hidden and cell
//     state updated in place. Stream is this at one row.
//
// Parity contract: a row's predictions are LSTMStack.StepInfer plus the
// dense head on that row's sequence, bit for bit, either way —
// GateWeights.Input then Recur is GateMatVec, MatMulABtBiasInto is
// per-row MatVecBias, and the order in which independent rows and the
// input halves of a sequence's steps run changes no operation any one
// of them performs. So a row's predictions depend neither on the batch
// width, nor on its row index, nor on which of the two ways scored it.
// Detector.DetectBatch and the stream micro-batching layer are built on
// that.
//
// The arenas are grow-only: steady-state scoring allocates nothing. A
// StreamBatch is single-threaded; concurrent scorers need one
// StreamBatch each. It scores the model's weights as of NewStreamBatch
// (serveGates); make a new one after training the model further.
type StreamBatch struct {
	m     *SeqRegressor
	gates []*tensor.GateWeights
	rows  int // live rows (a prefix of the arena)
	grew  int // arena capacity in rows

	x    *tensor.Matrix   // [rows x InDim] inputs for the current step
	h, c []*tensor.Matrix // per layer [rows x H], updated in place
	z    []float64        // gate pre-activation scratch, 4*maxHidden
	pred *tensor.Matrix   // [rows x OutDim] output-head predictions

	seq seqArena // Score's scratch
}

// seqArena is Score's scratch: per layer the hidden states of one chunk
// of steps (row 0 holds the state the chunk starts from, the zero vector
// for a sequence's first chunk) and the cell state, the chunk's gate
// pre-activations, and the grow-only predictions of the whole sequence.
type seqArena struct {
	h, c [][]float64 // per layer: [(scoreChunk+1) x H], [H]
	sx   []float64   // [scoreChunk x 4*maxHidden]
	pred []float64   // [steps x OutDim]
}

// scoreChunk is how many steps Score runs a layer's input half over
// before it runs the recurrence over them: each half's weights then stay
// in L1 across that many steps. Chunks of 4, 8 and 16 steps and whole
// sequences timed within noise of each other on 43-step chains; a chunk
// bounds the scratch (16 KiB of pre-activations at H = 32) whatever the
// sequence's length.
const scoreChunk = 16

// NewStreamBatch starts a batched inference scorer over the model. The
// arenas are sized lazily by Begin and Score.
func (m *SeqRegressor) NewStreamBatch() *StreamBatch {
	return &StreamBatch{m: m, gates: m.serveGates(), z: make([]float64, 4*m.Stack.maxHidden())}
}

// grow reallocates the arenas for at least `rows` rows. Only Begin may
// call it: growth discards recurrent state, which Begin resets anyway.
func (b *StreamBatch) grow(rows int) {
	st := b.m.Stack
	b.grew = rows
	b.x = tensor.New(rows, st.InSize())
	b.pred = tensor.New(rows, b.m.OutDim)
	b.h = make([]*tensor.Matrix, len(st.Layers))
	b.c = make([]*tensor.Matrix, len(st.Layers))
	for k, l := range st.Layers {
		b.h[k] = tensor.New(rows, l.HiddenSize)
		b.c[k] = tensor.New(rows, l.HiddenSize)
	}
}

// Begin rewinds the batch to score `rows` fresh sequences from the
// all-zero recurrent state. Previously grown arenas are reused when
// they fit.
func (b *StreamBatch) Begin(rows int) {
	if rows < 1 {
		panic(fmt.Sprintf("nn: StreamBatch.Begin rows %d", rows))
	}
	if rows > b.grew {
		b.grow(rows)
	}
	b.rows = rows
	setRows(b.x, rows)
	setRows(b.pred, rows)
	for k := range b.h {
		setRows(b.h[k], rows)
		setRows(b.c[k], rows)
		b.h[k].Zero()
		b.c[k].Zero()
	}
}

// Input returns row r of the input matrix for the caller to fill before
// Step. Valid until the next Begin.
func (b *StreamBatch) Input(r int) []float64 { return b.x.Row(r) }

// Step consumes the inputs staged via Input and advances every live row
// one timestep, returning the [rows x OutDim] next-vector predictions.
// The returned matrix is owned by the batch and valid until the next
// Step.
func (b *StreamBatch) Step() *tensor.Matrix {
	in := b.x
	for k, l := range b.m.Stack.Layers {
		for r := 0; r < b.rows; r++ {
			l.stepServe(b.gates[k], in.Row(r), b.h[k].Row(r), b.c[k].Row(r), b.z)
		}
		in = b.h[k]
	}
	tensor.MatMulABtBiasInto(b.pred, in, b.m.Out.W.Value, b.m.Out.B.Value.Data)
	return b.pred
}

// Score runs one whole sequence through the model from the all-zero
// state and returns its predictions: x holds T input vectors back to
// back (T = len(x)/InDim, at least one), and row t of the returned
// [T x OutDim] slice is the prediction after input t — what Step returns
// for that row at timestep t. The slice is owned by the batch and valid
// until the next Score. It leaves the lockstep rows alone.
//
// Steps go in chunks of scoreChunk, and each chunk runs layer by layer:
// a layer's input half (GateWeights.Input) over the chunk's steps, then
// its recurrence (GateWeights.Recur and the cell update) over them in
// order, then the next layer over the hidden states just written, and
// the output head once over the chunk. Each half's weights so stay in L1
// for a chunk of steps, where Step reloads both halves of every layer at
// every step.
func (b *StreamBatch) Score(x []float64) []float64 {
	m := b.m
	if len(x) == 0 || len(x)%m.InDim != 0 {
		panic(fmt.Sprintf("nn: StreamBatch.Score input length %d, want a positive multiple of %d", len(x), m.InDim))
	}
	T := len(x) / m.InDim
	a := &b.seq
	if a.sx == nil {
		a.alloc(m.Stack)
	}
	if len(a.pred) < T*m.OutDim {
		a.pred = make([]float64, T*m.OutDim)
	}
	for k, l := range m.Stack.Layers {
		clear(a.h[k][:l.HiddenSize])
		clear(a.c[k])
	}
	for t0 := 0; t0 < T; t0 += scoreChunk {
		n := min(T-t0, scoreChunk)
		src, w := x[t0*m.InDim:(t0+n)*m.InDim], m.InDim
		for k, l := range m.Stack.Layers {
			H, g, hs := l.HiddenSize, b.gates[k], a.h[k]
			for t := 0; t < n; t++ {
				g.Input(a.sx[t*4*H:(t+1)*4*H], src[t*w:(t+1)*w])
			}
			for t := 0; t < n; t++ {
				z := a.sx[t*4*H : (t+1)*4*H]
				g.Recur(z, z, hs[t*H:(t+1)*H])
				activate(z, hs[(t+1)*H:(t+2)*H], a.c[k])
			}
			src, w = hs[H:(n+1)*H], H
		}
		in := tensor.Matrix{Rows: n, Cols: w, Data: src}
		out := tensor.Matrix{Rows: n, Cols: m.OutDim, Data: a.pred[t0*m.OutDim : (t0+n)*m.OutDim]}
		tensor.MatMulABtBiasInto(&out, &in, m.Out.W.Value, m.Out.B.Value.Data)
		// The chunk's last hidden state is where the next chunk starts.
		for k, l := range m.Stack.Layers {
			H := l.HiddenSize
			copy(a.h[k][:H], a.h[k][n*H:(n+1)*H])
		}
	}
	return a.pred[:T*m.OutDim]
}

// alloc sizes the per-layer and per-chunk scratch; only the predictions
// grow with the sequence.
func (a *seqArena) alloc(st *LSTMStack) {
	a.h = make([][]float64, len(st.Layers))
	a.c = make([][]float64, len(st.Layers))
	for k, l := range st.Layers {
		a.h[k] = make([]float64, (scoreChunk+1)*l.HiddenSize)
		a.c[k] = make([]float64, l.HiddenSize)
	}
	a.sx = make([]float64, scoreChunk*4*st.maxHidden())
}

// Stream is a StreamBatch held at one row: the cursor over a single
// sequence.
type Stream struct{ b *StreamBatch }

// NewStream starts a fresh one-sequence inference stream.
func (m *SeqRegressor) NewStream() *Stream {
	s := &Stream{b: m.NewStreamBatch()}
	s.Reset()
	return s
}

// Reset rewinds the stream to the zero state so it can score a new
// sequence without reallocating.
func (s *Stream) Reset() { s.b.Begin(1) }

// Step feeds one observed vector and returns the model's prediction for
// the *next* vector. The returned slice is owned by the stream and valid
// until the next Step.
func (s *Stream) Step(x []float64) []float64 {
	if len(x) != s.b.m.InDim {
		panic(fmt.Sprintf("nn: Stream.Step input length %d, want %d", len(x), s.b.m.InDim))
	}
	copy(s.b.Input(0), x)
	return s.b.Step().Row(0)
}
