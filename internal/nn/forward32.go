package nn

import (
	"fmt"
	"math"

	"desh/internal/tensor"
)

// Forward-only float32 inference stack. Training, BPTT, optimizer state
// and model files stay float64 end-to-end; a Forward32 is produced from
// a trained SeqRegressor by Convert32 once at model load or hot-swap
// time, and scores through the f32 kernels in internal/tensor. There is
// no backward path and no persistence: a Forward32 never outlives the
// float64 model it was converted from.
//
// Stream32 is the only f32 cursor: a batch of sequences is one Stream32
// per row, so a row's predictions cannot depend on what it is batched
// with. f32 vs f64 verdicts are gated by the alert-equivalence
// tolerance suite (see DESIGN's precision policy).

// layer32 is the forward-only float32 image of an LSTMLayer: the same
// packed i,f,g,o gate layout with converted weights.
type layer32 struct {
	InSize, HiddenSize int
	Wx, Wh             *tensor.Matrix32 // [4H x In], [4H x H]
	B                  []float32        // [4H]
}

// Forward32 is the float32 serving image of a SeqRegressor.
type Forward32 struct {
	InDim, OutDim int
	layers        []*layer32
	outW          *tensor.Matrix32
	outB          []float32
	maxH          int
}

// Convert32 converts the trained float64 weights into a fresh float32
// serving model. Conversion is deterministic and idempotent
// (round-to-nearest-even, subnormal results flushed to zero); a weight
// with no finite float32 encoding — NaN, ±Inf, or a float64 magnitude
// beyond MaxFloat32 — returns a wrapped *tensor.ConvertError naming the
// parameter, never a panic.
func (m *SeqRegressor) Convert32() (*Forward32, error) {
	f := &Forward32{
		InDim:  m.InDim,
		OutDim: m.OutDim,
		layers: make([]*layer32, len(m.Stack.Layers)),
	}
	for k, l := range m.Stack.Layers {
		wx, err := tensor.ConvertMatrix32(l.Wx.Value)
		if err != nil {
			return nil, fmt.Errorf("nn: convert layer %d Wx: %w", k, err)
		}
		wh, err := tensor.ConvertMatrix32(l.Wh.Value)
		if err != nil {
			return nil, fmt.Errorf("nn: convert layer %d Wh: %w", k, err)
		}
		b := make([]float32, len(l.B.Value.Data))
		if err := tensor.ConvertSlice32(b, l.B.Value.Data); err != nil {
			return nil, fmt.Errorf("nn: convert layer %d B: %w", k, err)
		}
		f.layers[k] = &layer32{InSize: l.InSize, HiddenSize: l.HiddenSize, Wx: wx, Wh: wh, B: b}
		if l.HiddenSize > f.maxH {
			f.maxH = l.HiddenSize
		}
	}
	outW, err := tensor.ConvertMatrix32(m.Out.W.Value)
	if err != nil {
		return nil, fmt.Errorf("nn: convert output W: %w", err)
	}
	outB := make([]float32, len(m.Out.B.Value.Data))
	if err := tensor.ConvertSlice32(outB, m.Out.B.Value.Data); err != nil {
		return nil, fmt.Errorf("nn: convert output B: %w", err)
	}
	f.outW, f.outB = outW, outB
	return f, nil
}

// WeightBytes reports the resident weight footprint of the float64
// model (8 bytes per element), for the precision benchmarks.
func (m *SeqRegressor) WeightBytes() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Value.Data)
	}
	return 8 * n
}

// WeightBytes reports the resident weight footprint of the converted
// float32 model (4 bytes per element).
func (m *Forward32) WeightBytes() int {
	n := 0
	for _, l := range m.layers {
		n += len(l.Wx.Data) + len(l.Wh.Data) + len(l.B)
	}
	n += len(m.outW.Data) + len(m.outB)
	return 4 * n
}

// sigmoid32 and tanh32 evaluate the nonlinearities in float64 and round
// once to float32. sigmoid32 expands sigmoid's body rather than
// wrapping it: the wrapped form costs ~3x per call (the two-deep call
// chain defeats mid-stack inlining around math.Exp), while this form
// computes the identical float64 value and rounds once.
func sigmoid32(x float32) float32 {
	xf := float64(x)
	if xf >= 0 {
		z := math.Exp(-xf)
		return float32(1 / (1 + z))
	}
	z := math.Exp(xf)
	return float32(z / (1 + z))
}

func tanh32(x float32) float32 { return float32(math.Tanh(float64(x))) }

// Stream32 is the float32 inference cursor over one sequence. Step
// allocates nothing, and distinct streams over the same Forward32 may
// run concurrently.
type Stream32 struct {
	m    *Forward32
	h, c [][]float32 // per layer [H]
	z    []float32   // 4*maxH gate scratch
	pred []float32
}

// NewStream32 starts a fresh per-node float32 inference stream.
func (m *Forward32) NewStream32() *Stream32 {
	s := &Stream32{
		m:    m,
		h:    make([][]float32, len(m.layers)),
		c:    make([][]float32, len(m.layers)),
		z:    make([]float32, 4*m.maxH),
		pred: make([]float32, m.OutDim),
	}
	for k, l := range m.layers {
		s.h[k] = make([]float32, l.HiddenSize)
		s.c[k] = make([]float32, l.HiddenSize)
	}
	return s
}

// Reset rewinds the stream to the zero state without reallocating.
func (s *Stream32) Reset() {
	for k := range s.h {
		for j := range s.h[k] {
			s.h[k][j] = 0
			s.c[k][j] = 0
		}
	}
}

// Step feeds one observed vector and returns the prediction for the
// next vector. The returned slice is owned by the stream and valid
// until the next Step.
func (s *Stream32) Step(x []float32) []float32 {
	in := x
	for k, l := range s.m.layers {
		H := l.HiddenSize
		z := s.z[:4*H]
		h, c := s.h[k], s.c[k]
		tensor.GateMatVec32(z, l.Wx, in, l.Wh, h, l.B)
		// Mirrors LSTMLayer.stepInfer exactly: gate order i,f,g,o.
		for j := 0; j < H; j++ {
			ij := sigmoid32(z[j])
			fj := sigmoid32(z[H+j])
			gj := tanh32(z[2*H+j])
			oj := sigmoid32(z[3*H+j])
			cj := fj*c[j] + ij*gj
			c[j] = cj
			h[j] = oj * tanh32(cj)
		}
		in = h
	}
	tensor.MatVecBias32(s.pred, s.m.outW, in, s.m.outB)
	return s.pred
}
