package nn

import (
	"fmt"
	"math"

	"desh/internal/tensor"
)

// Mini-batch BPTT. A batch packs up to MicroBatch same-length sequences
// as the rows of [B x dim] matrices, turning the per-timestep gate
// MatVecs into batch GEMMs (tensor.GateMatMul forward against the raw
// weights, tensor.GateBackwardBatch backward against cached transposes)
// that load each weight row once per batched timestep instead of once
// per sequence. Every kernel performs, per batch row, the exact
// floating-point operation sequence of the serial path, so a one-row
// batch trains bit-identically to the per-sequence code.

// MicroBatch is the number of sequences one batched shard processes
// lockstep. It is a fixed constant — NOT derived from the worker count —
// so an optimizer batch of B sequences always splits into the same
// ceil(B/MicroBatch) shards with the same row assignment, and the
// trained weights are identical no matter how many pool workers run the
// shards (the same discipline embed.Train uses for its gradient merge).
const MicroBatch = 4

// setRows resizes a batch matrix's logical row count in place. The
// backing array was allocated for the full micro-batch, so shrinking and
// re-growing between batches never reallocates.
func setRows(m *tensor.Matrix, rows int) {
	m.Data = m.Data[:cap(m.Data)]
	m.Rows = rows
	m.Data = m.Data[:rows*m.Cols]
}

// shareParam returns a view of p that aliases its value but owns a
// private zeroed gradient — the shard-replica building block: replicas
// read the same weights while accumulating gradients that merge
// deterministically afterwards.
func shareParam(p *Param) *Param {
	return &Param{Name: p.Name, Value: p.Value, Grad: tensor.New(p.Value.Rows, p.Value.Cols)}
}

// ensureT allocates the layer's transposed-weight caches (wxT = Wxᵀ,
// whT = Whᵀ) used by the batched backward's input-gradient GEMMs.
func (l *LSTMLayer) ensureT() {
	if l.wxT == nil {
		l.wxT = tensor.New(l.InSize, 4*l.HiddenSize)
		l.whT = tensor.New(l.HiddenSize, 4*l.HiddenSize)
	}
}

// refreshT re-caches the transposes from the current weights. Called
// once per optimizer batch by the Phase-1 trainer and at the start of
// every LSTMStack.Forward (weights only move at optimizer steps); the
// copy is exact, so the GEMM path and the gate kernel read the same
// values MatVec would.
func (l *LSTMLayer) refreshT() {
	l.ensureT()
	tensor.TransposeInto(l.wxT, l.Wx.Value)
	tensor.TransposeInto(l.whT, l.Wh.Value)
}

// replica returns a layer sharing this layer's weights and transpose
// caches but accumulating into private gradients.
func (l *LSTMLayer) replica() *LSTMLayer {
	l.ensureT()
	return &LSTMLayer{
		InSize:     l.InSize,
		HiddenSize: l.HiddenSize,
		Wx:         shareParam(l.Wx),
		Wh:         shareParam(l.Wh),
		B:          shareParam(l.B),
		wxT:        l.wxT,
		whT:        l.whT,
	}
}

// replica returns a stack of layer replicas (shared weights, private
// gradients). Params() order matches the original stack's, so gradients
// merge by index.
func (s *LSTMStack) replica() *LSTMStack {
	r := &LSTMStack{Layers: make([]*LSTMLayer, len(s.Layers))}
	for k, l := range s.Layers {
		r.Layers[k] = l.replica()
	}
	return r
}

// ensureT allocates the dense layer's transposed-weight cache
// (wT = Wᵀ) used by the batched head forward.
func (d *Dense) ensureT() {
	if d.wT == nil {
		d.wT = tensor.New(d.InSize, d.OutSize)
	}
}

// refreshT re-caches Wᵀ from the current weights.
func (d *Dense) refreshT() {
	d.ensureT()
	tensor.TransposeInto(d.wT, d.W.Value)
}

// replica returns a dense layer sharing weights and the transpose cache
// but accumulating into private gradients.
func (d *Dense) replica() *Dense {
	d.ensureT()
	return &Dense{InSize: d.InSize, OutSize: d.OutSize, W: shareParam(d.W), B: shareParam(d.B), wT: d.wT}
}

// batchCell caches the activations of one (timestep, layer) of a batched
// forward pass — the matrix counterpart of stepCache, minus the input
// and previous-state copies (the batch arena keeps every timestep live,
// so backward reads them from the neighbouring cells instead).
type batchCell struct {
	i, f, g, o *tensor.Matrix // post-nonlinearity gate activations [B x H]
	c, tc      *tensor.Matrix // cell state and tanh(cell state)
	h          *tensor.Matrix // hidden output o*tanh(c)
}

func newBatchCell(mb, hidden int) *batchCell {
	return &batchCell{
		i:  tensor.New(mb, hidden),
		f:  tensor.New(mb, hidden),
		g:  tensor.New(mb, hidden),
		o:  tensor.New(mb, hidden),
		c:  tensor.New(mb, hidden),
		tc: tensor.New(mb, hidden),
		h:  tensor.New(mb, hidden),
	}
}

// stackBatch is the mini-batch training workspace over one LSTMStack:
// the batch tape (per-timestep, per-layer activation matrices), gate
// scratch, and the backward accumulators. Grow-only like stackWS, so
// steady-state training allocates nothing. A stackBatch is
// single-threaded; the trainer gives each shard its own.
type stackBatch struct {
	s  *LSTMStack
	mb int // row capacity (MicroBatch)
	bb int // logical rows of the current batch
	T  int // timesteps of the current batch

	x     []*tensor.Matrix // per t: layer-0 input rows [mb x InSize]
	dx    []*tensor.Matrix // per t: layer-0 input gradients
	cells [][]*batchCell   // [t][layer]

	zBack, dzBack []float64      // gate scratch backings, mb*4*maxH
	z, dz         *tensor.Matrix // re-pointed views over the backings
	zeroBack      []float64      // all-zero initial-state backing, mb*maxH
	h0, c0        []*tensor.Matrix
	dh, dc        []*tensor.Matrix // per-layer backward accumulators [mb x H]
	dxMid         []*tensor.Matrix // per-layer input-grad buffers for layers > 0
}

func newStackBatch(s *LSTMStack, mb int) *stackBatch {
	if mb < 1 {
		panic(fmt.Sprintf("nn: invalid micro-batch %d", mb))
	}
	for _, l := range s.Layers {
		l.ensureT()
	}
	L := len(s.Layers)
	maxH := s.maxHidden()
	sb := &stackBatch{
		s:        s,
		mb:       mb,
		zBack:    make([]float64, mb*4*maxH),
		dzBack:   make([]float64, mb*4*maxH),
		z:        &tensor.Matrix{},
		dz:       &tensor.Matrix{},
		zeroBack: make([]float64, mb*maxH),
		h0:       make([]*tensor.Matrix, L),
		c0:       make([]*tensor.Matrix, L),
		dh:       make([]*tensor.Matrix, L),
		dc:       make([]*tensor.Matrix, L),
		dxMid:    make([]*tensor.Matrix, L),
	}
	for k, l := range s.Layers {
		sb.h0[k] = &tensor.Matrix{Cols: l.HiddenSize}
		sb.c0[k] = &tensor.Matrix{Cols: l.HiddenSize}
		sb.dh[k] = tensor.New(mb, l.HiddenSize)
		sb.dc[k] = tensor.New(mb, l.HiddenSize)
		if k > 0 {
			sb.dxMid[k] = tensor.New(mb, l.InSize)
		}
	}
	return sb
}

// begin sizes the workspace for a T-step batch of bb sequences, growing
// the tape arena for never-before-seen timesteps and setting every
// logical row count.
func (sb *stackBatch) begin(T, bb int) {
	if bb < 1 || bb > sb.mb {
		panic(fmt.Sprintf("nn: batch of %d rows, capacity %d", bb, sb.mb))
	}
	sb.T, sb.bb = T, bb
	for len(sb.cells) < T {
		row := make([]*batchCell, len(sb.s.Layers))
		for k, l := range sb.s.Layers {
			row[k] = newBatchCell(sb.mb, l.HiddenSize)
		}
		sb.cells = append(sb.cells, row)
		sb.x = append(sb.x, tensor.New(sb.mb, sb.s.InSize()))
		sb.dx = append(sb.dx, tensor.New(sb.mb, sb.s.InSize()))
	}
	for t := 0; t < T; t++ {
		setRows(sb.x[t], bb)
		setRows(sb.dx[t], bb)
		for _, cc := range sb.cells[t] {
			setRows(cc.i, bb)
			setRows(cc.f, bb)
			setRows(cc.g, bb)
			setRows(cc.o, bb)
			setRows(cc.c, bb)
			setRows(cc.tc, bb)
			setRows(cc.h, bb)
		}
	}
	for k := range sb.s.Layers {
		h := sb.dh[k].Cols
		sb.h0[k].Rows, sb.h0[k].Data = bb, sb.zeroBack[:bb*h]
		sb.c0[k].Rows, sb.c0[k].Data = bb, sb.zeroBack[:bb*h]
		setRows(sb.dh[k], bb)
		setRows(sb.dc[k], bb)
		if k > 0 {
			setRows(sb.dxMid[k], bb)
		}
	}
}

// input returns the layer-0 input matrix for timestep t; callers pack
// one sequence per row before forward().
func (sb *stackBatch) input(t int) *tensor.Matrix { return sb.x[t] }

// output returns the top-layer hidden matrix for timestep t (valid
// after forward, until the next begin).
func (sb *stackBatch) output(t int) *tensor.Matrix {
	return sb.cells[t][len(sb.s.Layers)-1].h
}

// inputGrad returns the layer-0 input gradients for timestep t (valid
// after backward, until the next begin).
func (sb *stackBatch) inputGrad(t int) *tensor.Matrix { return sb.dx[t] }

// layerInput returns the input matrix feeding layer k at timestep t.
func (sb *stackBatch) layerInput(t, k int) *tensor.Matrix {
	if k == 0 {
		return sb.x[t]
	}
	return sb.cells[t][k-1].h
}

// prevState returns layer k's incoming hidden and cell matrices at
// timestep t (the all-zero state for t = 0).
func (sb *stackBatch) prevState(t, k int) (h, c *tensor.Matrix) {
	if t == 0 {
		return sb.h0[k], sb.c0[k]
	}
	cc := sb.cells[t-1][k]
	return cc.h, cc.c
}

// forward runs the batched stack over the packed inputs from the
// all-zero state, recording every activation for backward. Per batch
// row it computes exactly what Forward computes for that sequence.
func (sb *stackBatch) forward() {
	for t := 0; t < sb.T; t++ {
		in := sb.x[t]
		for k, l := range sb.s.Layers {
			cc := sb.cells[t][k]
			hPrev, cPrev := sb.prevState(t, k)
			H := l.HiddenSize
			sb.z.Rows, sb.z.Cols, sb.z.Data = sb.bb, 4*H, sb.zBack[:sb.bb*4*H]
			tensor.GateMatMul(sb.z, in, l.Wx.Value, hPrev, l.Wh.Value, l.B.Value.Data)
			for b := 0; b < sb.bb; b++ {
				zr := sb.z.Row(b)
				cp := cPrev.Row(b)
				ir, fr, gr, or := cc.i.Row(b), cc.f.Row(b), cc.g.Row(b), cc.o.Row(b)
				cr, tcr, hr := cc.c.Row(b), cc.tc.Row(b), cc.h.Row(b)
				for j := 0; j < H; j++ {
					ij := sigmoid(zr[j])
					fj := sigmoid(zr[H+j])
					gj := math.Tanh(zr[2*H+j])
					oj := sigmoid(zr[3*H+j])
					cj := fj*cp[j] + ij*gj
					tcj := math.Tanh(cj)
					ir[j], fr[j], gr[j], or[j] = ij, fj, gj, oj
					cr[j], tcr[j] = cj, tcj
					hr[j] = oj * tcj
				}
			}
			in = cc.h
		}
	}
}

// backward runs batched truncated BPTT over the recorded batch. dOut[t]
// is the gradient w.r.t. the top-layer hidden output at step t (nil
// entries mean no gradient). Weight gradients accumulate into the
// stack's Params; input gradients land in the per-timestep dx matrices.
// The loop structure (t descending, layers top-down, dh/dc doubling as
// the step's dhPrev/dcPrev outputs) mirrors LSTMStack.Backward exactly.
func (sb *stackBatch) backward(dOut []*tensor.Matrix) {
	if len(dOut) != sb.T {
		panic(fmt.Sprintf("nn: batched backward got %d output grads for %d steps", len(dOut), sb.T))
	}
	top := len(sb.s.Layers) - 1
	for k := range sb.s.Layers {
		sb.dh[k].Zero()
		sb.dc[k].Zero()
	}
	for t := sb.T - 1; t >= 0; t-- {
		var dFromAbove *tensor.Matrix
		for k := top; k >= 0; k-- {
			l := sb.s.Layers[k]
			dh, dc := sb.dh[k], sb.dc[k]
			if k == top && dOut[t] != nil {
				dh.Add(dOut[t])
			}
			if k < top && dFromAbove != nil {
				dh.Add(dFromAbove)
			}
			cc := sb.cells[t][k]
			H := l.HiddenSize
			sb.dz.Rows, sb.dz.Cols, sb.dz.Data = sb.bb, 4*H, sb.dzBack[:sb.bb*4*H]
			for b := 0; b < sb.bb; b++ {
				dhr, dcr := dh.Row(b), dc.Row(b)
				dzr := sb.dz.Row(b)
				ir, fr, gr, or := cc.i.Row(b), cc.f.Row(b), cc.g.Row(b), cc.o.Row(b)
				tcr := cc.tc.Row(b)
				_, cPrev := sb.prevState(t, k)
				cp := cPrev.Row(b)
				for j := 0; j < H; j++ {
					dcj := dcr[j]
					doj := dhr[j] * tcr[j]
					dcj += dhr[j] * or[j] * (1 - tcr[j]*tcr[j])

					dij := dcj * gr[j]
					dfj := dcj * cp[j]
					dgj := dcj * ir[j]

					dzr[j] = dij * ir[j] * (1 - ir[j])
					dzr[H+j] = dfj * fr[j] * (1 - fr[j])
					dzr[2*H+j] = dgj * (1 - gr[j]*gr[j])
					dzr[3*H+j] = doj * or[j] * (1 - or[j])
					dcr[j] = dcj * fr[j]
				}
			}
			dxm := sb.dxMid[k]
			if k == 0 {
				dxm = sb.dx[t]
			}
			hPrev, _ := sb.prevState(t, k)
			tensor.GateBackwardBatch(sb.dz, sb.layerInput(t, k), hPrev,
				l.wxT, l.Wx.Grad, l.whT, l.Wh.Grad, l.B.Grad.Data, dxm, dh)
			dFromAbove = dxm
		}
	}
}
