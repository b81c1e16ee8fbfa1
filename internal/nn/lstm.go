package nn

import (
	"fmt"
	"math"
	"math/rand"

	"desh/internal/tensor"
)

// LSTMLayer is a single long short-term memory layer (Hochreiter &
// Schmidhuber 1997) with input, forget, candidate and output gates. The
// four gate blocks are packed into combined weight matrices:
//
//	Wx: [4H x In]  input-to-gate weights
//	Wh: [4H x H]   hidden-to-gate (recurrent) weights
//	B:  [1 x 4H]   gate biases
//
// Gate block order within the 4H rows is i, f, g, o.
type LSTMLayer struct {
	InSize, HiddenSize int
	Wx, Wh, B          *Param

	// Transposed-weight caches (wxT = Wxᵀ, whT = Whᵀ): the batched
	// Phase-1 backward's GEMM operands, refreshed once per optimizer
	// batch, and the gate kernel's weights in LSTMStack.Forward, refreshed
	// at the start of every Forward. Shard replicas share these pointers
	// with the primary layer.
	wxT, whT *tensor.Matrix
}

// NewLSTMLayer builds a layer with Xavier-initialized weights and the
// forget-gate bias set to 1 (the standard trick that lets fresh LSTMs
// retain memory early in training).
func NewLSTMLayer(inSize, hiddenSize int, rng *rand.Rand) *LSTMLayer {
	if inSize <= 0 || hiddenSize <= 0 {
		panic(fmt.Sprintf("nn: invalid LSTM sizes in=%d hidden=%d", inSize, hiddenSize))
	}
	l := &LSTMLayer{
		InSize:     inSize,
		HiddenSize: hiddenSize,
		Wx:         newParam("lstm.Wx", 4*hiddenSize, inSize),
		Wh:         newParam("lstm.Wh", 4*hiddenSize, hiddenSize),
		B:          newParam("lstm.B", 1, 4*hiddenSize),
	}
	tensor.XavierInit(l.Wx.Value, inSize, hiddenSize, rng)
	tensor.XavierInit(l.Wh.Value, hiddenSize, hiddenSize, rng)
	for j := hiddenSize; j < 2*hiddenSize; j++ {
		l.B.Value.Data[j] = 1
	}
	return l
}

// Params returns the layer's trainable parameters.
func (l *LSTMLayer) Params() []*Param {
	return []*Param{l.Wx, l.Wh, l.B}
}

// stepCache records the activations of one forward step, everything the
// matching backward step needs, plus the step's outputs. All slices are
// allocated once (newStepCache) and overwritten on reuse, so a recycled
// cache costs no heap allocations.
type stepCache struct {
	x, hPrev, cPrev []float64
	acts            []float64 // i, f, g, o back to back, z's block order
	i, f, g, o      []float64 // post-nonlinearity gate activations: views of acts
	c, tc           []float64 // cell state and tanh(cell state)
	h               []float64 // hidden output o*tanh(c)
}

// newStepCache allocates a cache sized for one layer geometry.
func newStepCache(inSize, hidden int) *stepCache {
	acts := make([]float64, 4*hidden)
	H := hidden
	return &stepCache{
		x:     make([]float64, inSize),
		hPrev: make([]float64, hidden),
		cPrev: make([]float64, hidden),
		acts:  acts,
		i:     acts[:H:H],
		f:     acts[H : 2*H : 2*H],
		g:     acts[2*H : 3*H : 3*H],
		o:     acts[3*H:],
		c:     make([]float64, hidden),
		tc:    make([]float64, hidden),
		h:     make([]float64, hidden),
	}
}

func (l *LSTMLayer) checkStep(x, hPrev, cPrev []float64) {
	if len(x) != l.InSize {
		panic(fmt.Sprintf("nn: LSTM input length %d, want %d", len(x), l.InSize))
	}
	if len(hPrev) != l.HiddenSize || len(cPrev) != l.HiddenSize {
		panic(fmt.Sprintf("nn: LSTM state lengths %d/%d, want %d", len(hPrev), len(cPrev), l.HiddenSize))
	}
}

// stepForward advances the layer one timestep into cc, using z (length
// 4H) as gate pre-activation scratch. Inputs are copied into the cache,
// so callers may reuse their buffers; the step's outputs are cc.h and
// cc.c. With transposed set, wxT/whT hold the live weights' transposes
// and the gate pre-activation runs on the lane-per-row kernel
// (tensor.GateMatVecT); otherwise GateMatVec reads the row-major
// weights. The two are bit-identical. The cell's nonlinearities run on
// the activation kernel's tape tier (tensor.ActivateLSTMTape), which
// fills the cache for the units it takes; the scalar loop finishes the
// rest, as activate finishes what ActivateLSTM hands back.
func (l *LSTMLayer) stepForward(cc *stepCache, x, hPrev, cPrev, z []float64, transposed bool) {
	l.checkStep(x, hPrev, cPrev)
	H := l.HiddenSize
	if transposed {
		tensor.GateMatVecT(z[:4*H], l.wxT, x, l.whT, hPrev, l.B.Value.Data)
	} else {
		tensor.GateMatVec(z[:4*H], l.Wx.Value, x, l.Wh.Value, hPrev, l.B.Value.Data)
	}
	copy(cc.x, x)
	copy(cc.hPrev, hPrev)
	copy(cc.cPrev, cPrev)
	copy(cc.c, cPrev)
	stepForwardFrom(tensor.ActivateLSTMTape(z[:4*H], cc.h, cc.c, cc.acts, cc.tc), cc, z)
}

// stepForwardFrom is stepForward's scalar cell for hidden units
// [from, H): the fallback for what the tape kernel hands back and, from
// 0, the parity reference.
func stepForwardFrom(from int, cc *stepCache, z []float64) {
	H := len(cc.h)
	cPrev := cc.cPrev
	for j := from; j < H; j++ {
		ij := sigmoid(z[j])
		fj := sigmoid(z[H+j])
		gj := math.Tanh(z[2*H+j])
		oj := sigmoid(z[3*H+j])
		cj := fj*cPrev[j] + ij*gj
		tcj := math.Tanh(cj)
		cc.i[j], cc.f[j], cc.g[j], cc.o[j] = ij, fj, gj, oj
		cc.c[j], cc.tc[j] = cj, tcj
		cc.h[j] = oj * tcj
	}
}

// stepInfer advances the layer one timestep with no cache, updating h and
// c in place. z is 4H scratch. x must not alias h.
func (l *LSTMLayer) stepInfer(x, h, c, z []float64) {
	l.checkStep(x, h, c)
	z = z[:4*l.HiddenSize]
	tensor.GateMatVec(z, l.Wx.Value, x, l.Wh.Value, h, l.B.Value.Data)
	activate(z, h, c)
}

// stepServe is stepInfer with the gate pre-activation computed through
// the layer's serving image g, called once per sequence per timestep by
// StreamBatch.Step (StreamBatch.Score runs the same two gate halves and
// activate layer by layer). GateWeights.MatVec is bit-identical to
// GateMatVec, so stepServe is bit-identical to stepInfer.
func (l *LSTMLayer) stepServe(g *tensor.GateWeights, x, h, c, z []float64) {
	l.checkStep(x, h, c)
	z = z[:4*l.HiddenSize]
	g.MatVec(z, x, h)
	activate(z, h, c)
}

// activate applies the gate nonlinearities to the pre-activations z
// (length 4H, block order i, f, g, o) and updates the cell and hidden
// state in place. It is the serving path's one dispatch point between
// the four-lane assembly kernel and the scalar loop: the kernel takes
// the leading units it can reproduce bit for bit (none on a host or
// build without it) and the loop finishes the rest.
func activate(z, h, c []float64) {
	activateFrom(tensor.ActivateLSTM(z, h, c), z, h, c)
}

// activateFrom is the scalar cell update for hidden units [from, H):
// the fallback for what the kernel hands back (tail units when H is not
// a multiple of four, blocks with a sigmoid input outside its range,
// everything on the generic path) and, from 0, the parity reference.
func activateFrom(from int, z, h, c []float64) {
	H := len(h)
	for j := from; j < H; j++ {
		ij := sigmoid(z[j])
		fj := sigmoid(z[H+j])
		gj := math.Tanh(z[2*H+j])
		oj := sigmoid(z[3*H+j])
		cj := fj*c[j] + ij*gj
		c[j] = cj
		h[j] = oj * math.Tanh(cj)
	}
}

// StepForward advances the layer one timestep. It returns the new hidden
// and cell states plus a cache for backprop. x must have length InSize;
// hPrev and cPrev length HiddenSize. Inputs are copied into the cache, so
// callers may reuse their buffers. This convenience wrapper allocates a
// fresh cache per call; the batched Stack paths recycle caches through an
// internal arena instead.
func (l *LSTMLayer) StepForward(x, hPrev, cPrev []float64) (h, c []float64, cache *stepCache) {
	cc := newStepCache(l.InSize, l.HiddenSize)
	z := make([]float64, 4*l.HiddenSize)
	l.stepForward(cc, x, hPrev, cPrev, z, false)
	return cc.h, cc.c, cc
}

// stepBackward consumes one cached step in reverse order. dh and dc are
// the gradients flowing into this step's hidden and cell outputs (dc may
// be nil meaning zero). It accumulates weight gradients into the layer's
// Params and writes the gradients w.r.t. the step's input and incoming
// states into dx, dhPrev and dcPrev (overwritten). dz is 4H scratch.
// dcPrev may alias dc and dhPrev may alias dh: dh/dc are fully consumed
// element j before element j of the outputs is written.
func (l *LSTMLayer) stepBackward(cc *stepCache, dh, dc, dz, dx, dhPrev, dcPrev []float64) {
	H := l.HiddenSize
	dz = dz[:4*H]
	for j := 0; j < H; j++ {
		dcj := 0.0
		if dc != nil {
			dcj = dc[j]
		}
		// h = o*tanh(c): route dh into the output gate and the cell.
		doj := dh[j] * cc.tc[j]
		dcj += dh[j] * cc.o[j] * (1 - cc.tc[j]*cc.tc[j])

		dij := dcj * cc.g[j]
		dfj := dcj * cc.cPrev[j]
		dgj := dcj * cc.i[j]

		dz[j] = dij * cc.i[j] * (1 - cc.i[j])
		dz[H+j] = dfj * cc.f[j] * (1 - cc.f[j])
		dz[2*H+j] = dgj * (1 - cc.g[j]*cc.g[j])
		dz[3*H+j] = doj * cc.o[j] * (1 - cc.o[j])
		dcPrev[j] = dcj * cc.f[j]
	}
	tensor.GateBackward(dz, l.Wx.Value, l.Wx.Grad, l.Wh.Value, l.Wh.Grad, cc.x, cc.hPrev, dx, dhPrev)
	tensor.Axpy(1, dz, l.B.Grad.Data)
}

// StepBackward consumes one cached step in reverse order. dh and dc are
// the gradients flowing into this step's hidden and cell outputs (dc may
// be nil meaning zero). It accumulates weight gradients into the layer's
// Params and returns the gradients w.r.t. the step's input and incoming
// states. Like StepForward, this wrapper allocates its outputs; Stack
// backprop reuses buffers through its workspace.
func (l *LSTMLayer) StepBackward(cache *stepCache, dh, dc []float64) (dx, dhPrev, dcPrev []float64) {
	H := l.HiddenSize
	dz := make([]float64, 4*H)
	dx = make([]float64, l.InSize)
	dhPrev = make([]float64, H)
	dcPrev = make([]float64, H)
	l.stepBackward(cache, dh, dc, dz, dx, dhPrev, dcPrev)
	return dx, dhPrev, dcPrev
}
