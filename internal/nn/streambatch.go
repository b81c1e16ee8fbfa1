package nn

import (
	"fmt"

	"desh/internal/tensor"
)

// StreamBatch is the float64 serving cursor: it scores up to `capacity`
// independent sequences in lockstep — the forward-only counterpart of
// stackBatch. Each row of the packed matrices is one sequence; a
// timestep runs every row through each layer's stepServe plus one
// tensor.MatMulABtBiasInto for the output head. No tape is recorded:
// hidden and cell state update in place.
//
// Parity contract: a row's timestep is LSTMStack.StepInfer plus the
// dense head on that row's sequence, bit for bit — stepServe is
// bit-identical to stepInfer and MatMulABtBiasInto is per-row
// bit-identical to MatVecBias — so a row's predictions do not depend on
// the batch width or on its row index. Detector.DetectBatch and the
// stream micro-batching layer are built on that. Layers run outermost,
// so a layer's weights stay cached across the batch's rows.
//
// The arenas are grow-only: Begin reuses them whenever the requested
// rows fit, so steady-state scoring allocates nothing. A StreamBatch is
// single-threaded; concurrent scorers need one StreamBatch each. It
// scores the model's weights as of NewStreamBatch (serveGates); make a
// new one after training the model further.
type StreamBatch struct {
	m     *SeqRegressor
	gates []*tensor.GateWeights
	rows  int // live rows (a prefix of the arena)
	grew  int // arena capacity in rows

	x    *tensor.Matrix   // [rows x InDim] inputs for the current step
	h, c []*tensor.Matrix // per layer [rows x H], updated in place
	z    []float64        // gate pre-activation scratch, 4*maxHidden
	pred *tensor.Matrix   // [rows x OutDim] output-head predictions
}

// NewStreamBatch starts a batched inference scorer over the model. The
// arenas are sized lazily by Begin.
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

// Shrink retires the trailing rows, keeping the first `rows` sequences
// live with their recurrent state intact. Sequences of unequal length
// score together by sorting longest-first and shrinking as the short
// ones finish.
func (b *StreamBatch) Shrink(rows int) {
	if rows < 0 || rows > b.rows {
		panic(fmt.Sprintf("nn: StreamBatch.Shrink %d of %d rows", rows, b.rows))
	}
	if rows == b.rows {
		return
	}
	b.rows = rows
	setRows(b.x, rows)
	setRows(b.pred, rows)
	for k := range b.h {
		setRows(b.h[k], rows)
		setRows(b.c[k], rows)
	}
}

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
