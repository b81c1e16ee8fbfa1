package nn

import (
	"fmt"
	"math/rand"

	"desh/internal/tensor"
)

// LSTMStack stacks LSTM layers so the hidden sequence of layer k feeds
// layer k+1 — the paper's "stacked LSTM ... with multiple hidden layers"
// (Figure 1b). Desh uses 2 hidden layers in every phase (Table 5).
//
// The stack owns a training workspace (tape, step caches, backward
// buffers) that is reused across Forward/Backward calls, so steady-state
// training does no per-step heap allocation. The workspace makes
// Forward/Backward single-threaded per stack: concurrent inference must
// go through StepInfer, whose scratch lives in the caller's State.
type LSTMStack struct {
	Layers []*LSTMLayer

	ws stackWS
}

// stackWS is the reusable training workspace. Ownership rules: buffers
// are valid from one Forward until the next Forward on the same stack;
// Backward's returned input gradients are valid until the next Backward.
type stackWS struct {
	tape     Tape
	tapeView Tape        // length-T window over tape returned by Forward
	st       *State      // forward recurrent state, reset each Forward
	z        []float64   // gate pre-activation scratch, 4*maxHidden
	dz       []float64   // backward gate scratch, 4*maxHidden
	dh       [][]float64 // per-layer hidden-grad accumulators [L][H]
	dc       [][]float64 // per-layer cell-grad accumulators [L][H]
	dxMid    [][]float64 // per-layer input-grad buffers for layers > 0
	dxs      [][]float64 // per-timestep input grads handed back to callers
	inited   bool
}

// NewLSTMStack builds numLayers LSTM layers, the first consuming inSize
// features and the rest consuming the previous layer's hidden output.
func NewLSTMStack(inSize, hiddenSize, numLayers int, rng *rand.Rand) *LSTMStack {
	if numLayers <= 0 {
		panic(fmt.Sprintf("nn: invalid layer count %d", numLayers))
	}
	s := &LSTMStack{Layers: make([]*LSTMLayer, numLayers)}
	in := inSize
	for k := range s.Layers {
		s.Layers[k] = NewLSTMLayer(in, hiddenSize, rng)
		in = hiddenSize
	}
	return s
}

// Params returns all layers' parameters, bottom layer first.
func (s *LSTMStack) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// HiddenSize returns the width of the topmost hidden layer.
func (s *LSTMStack) HiddenSize() int {
	return s.Layers[len(s.Layers)-1].HiddenSize
}

// InSize returns the width the bottom layer expects.
func (s *LSTMStack) InSize() int {
	return s.Layers[0].InSize
}

// maxHidden returns the widest layer, which sizes the shared gate
// scratch.
func (s *LSTMStack) maxHidden() int {
	m := 0
	for _, l := range s.Layers {
		if l.HiddenSize > m {
			m = l.HiddenSize
		}
	}
	return m
}

// State is the recurrent state of a stack: hidden and cell vectors per
// layer. The zero-valued state from NewState is the conventional all-zero
// initial state. A State also carries the gate scratch StepInfer needs,
// so concurrent streams (one State each) never share buffers.
type State struct {
	H, C [][]float64

	z []float64 // gate pre-activation scratch, lazily sized
}

// NewState allocates a zero state matching the stack's geometry.
func (s *LSTMStack) NewState() *State {
	st := &State{H: make([][]float64, len(s.Layers)), C: make([][]float64, len(s.Layers))}
	for k, l := range s.Layers {
		st.H[k] = make([]float64, l.HiddenSize)
		st.C[k] = make([]float64, l.HiddenSize)
	}
	st.z = make([]float64, 4*s.maxHidden())
	return st
}

// Reset zeroes the state in place so a stream can be reused for a new
// sequence without reallocating.
func (st *State) Reset() {
	for k := range st.H {
		tensor.VecZero(st.H[k])
		tensor.VecZero(st.C[k])
	}
}

// Tape records a forward pass over a sequence for backprop.
type Tape struct {
	caches  [][]*stepCache // [timestep][layer]
	Outputs [][]float64    // top-layer hidden vector per timestep
}

// Steps returns the number of recorded timesteps.
func (t *Tape) Steps() int { return len(t.caches) }

// initWS sets up the fixed-size workspace buffers on first use.
func (s *LSTMStack) initWS() {
	if s.ws.inited {
		return
	}
	L := len(s.Layers)
	s.ws.st = s.NewState()
	s.ws.z = make([]float64, 4*s.maxHidden())
	s.ws.dz = make([]float64, 4*s.maxHidden())
	s.ws.dh = make([][]float64, L)
	s.ws.dc = make([][]float64, L)
	s.ws.dxMid = make([][]float64, L)
	for k, l := range s.Layers {
		s.ws.dh[k] = make([]float64, l.HiddenSize)
		s.ws.dc[k] = make([]float64, l.HiddenSize)
		if k > 0 {
			s.ws.dxMid[k] = make([]float64, l.InSize)
		}
	}
	s.ws.inited = true
}

// growTape extends the cache arena and output/input-grad tables to cover
// T timesteps, allocating only the never-before-seen suffix.
func (s *LSTMStack) growTape(T int) {
	for len(s.ws.tape.caches) < T {
		row := make([]*stepCache, len(s.Layers))
		for k, l := range s.Layers {
			row[k] = newStepCache(l.InSize, l.HiddenSize)
		}
		s.ws.tape.caches = append(s.ws.tape.caches, row)
		s.ws.dxs = append(s.ws.dxs, make([]float64, s.InSize()))
	}
	for len(s.ws.tape.Outputs) < T {
		s.ws.tape.Outputs = append(s.ws.tape.Outputs, nil)
	}
}

// Forward runs the stack over a sequence of input vectors starting from
// the all-zero state, recording a tape for Backward. xs[t] must have
// length InSize().
//
// The returned tape aliases the stack's workspace: it is valid until the
// next Forward call on this stack, and must only be Backward()ed on the
// same stack. Callers needing two live tapes need two stacks.
//
// Where the gate kernel takes a layer's shape, Forward first re-copies
// the layer's live weights into its wxT/whT and every step's gate runs
// on them, so an optimizer step between two Forwards is always seen. The
// serving images (SeqRegressor's) are neither read nor refreshed here:
// streams keep the weights they were built with.
func (s *LSTMStack) Forward(xs [][]float64) *Tape {
	s.initWS()
	T := len(xs)
	s.growTape(T)
	st := s.ws.st
	st.Reset()
	for _, l := range s.Layers {
		if tensor.GateTransposed(4 * l.HiddenSize) {
			l.refreshT()
		}
	}
	top := len(s.Layers) - 1
	for t, x := range xs {
		in := x
		for k, l := range s.Layers {
			cc := s.ws.tape.caches[t][k]
			l.stepForward(cc, in, st.H[k], st.C[k], s.ws.z, tensor.GateTransposed(4*l.HiddenSize))
			copy(st.H[k], cc.h)
			copy(st.C[k], cc.c)
			in = cc.h
		}
		s.ws.tape.Outputs[t] = s.ws.tape.caches[t][top].h
	}
	// Present exactly T steps even when the arena is larger. The view is
	// part of the workspace so steady-state Forward allocates nothing.
	s.ws.tapeView.caches = s.ws.tape.caches[:T]
	s.ws.tapeView.Outputs = s.ws.tape.Outputs[:T]
	return &s.ws.tapeView
}

// StepInfer advances the stack one step without recording anything,
// mutating st in place. It returns the top-layer hidden vector (aliasing
// st, valid until the next StepInfer). This is the Phase-1 prediction
// path, the Figure-10 cost-analysis kernel and, through the row-major
// tensor.GateMatVec, the scalar reference Stream.Step's serving kernel
// is held to; it allocates nothing and is safe to call concurrently as
// long as each goroutine owns its State.
func (s *LSTMStack) StepInfer(x []float64, st *State) []float64 {
	if st.z == nil || len(st.z) < 4*s.maxHidden() {
		st.z = make([]float64, 4*s.maxHidden())
	}
	in := x
	for k, l := range s.Layers {
		l.stepInfer(in, st.H[k], st.C[k], st.z)
		in = st.H[k]
	}
	return in
}

// Backward runs truncated backprop-through-time over the tape. dOut[t]
// is the gradient w.r.t. the top-layer hidden output at step t (nil
// entries mean no gradient at that step). Weight gradients accumulate
// into the layers' Params. It returns the gradients w.r.t. each input
// vector, for upstream layers such as a trainable embedding; the
// returned slices alias the stack workspace and are valid until the next
// Backward call.
func (s *LSTMStack) Backward(tape *Tape, dOut [][]float64) [][]float64 {
	s.initWS()
	T := tape.Steps()
	if len(dOut) != T {
		panic(fmt.Sprintf("nn: Backward got %d output grads for %d steps", len(dOut), T))
	}
	L := len(s.Layers)
	top := L - 1
	// dh/dc accumulate per-layer gradients flowing backward in time; zero
	// them so step T-1 starts from "no future gradient".
	for k := 0; k < L; k++ {
		tensor.VecZero(s.ws.dh[k])
		tensor.VecZero(s.ws.dc[k])
	}
	for t := T - 1; t >= 0; t-- {
		// Gradient into each layer's hidden output at step t: from the
		// future timestep (already in dh[k]) plus, for the top layer, the
		// external loss gradient; for lower layers, the input gradient of
		// the layer above.
		var dFromAbove []float64
		for k := top; k >= 0; k-- {
			l := s.Layers[k]
			dh := s.ws.dh[k]
			if k == top && dOut[t] != nil {
				tensor.Axpy(1, dOut[t], dh)
			}
			if k < top && dFromAbove != nil {
				tensor.Axpy(1, dFromAbove, dh)
			}
			dx := s.ws.dxMid[k]
			if k == 0 {
				dx = s.ws.dxs[t]
			}
			// dh/dc double as the step's dhPrev/dcPrev outputs: the layer
			// consumes element j of each before writing it.
			l.stepBackward(tape.caches[t][k], dh, s.ws.dc[k], s.ws.dz, dx, dh, s.ws.dc[k])
			dFromAbove = dx
		}
	}
	return s.ws.dxs[:T]
}
