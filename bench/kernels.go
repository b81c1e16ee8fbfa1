package main

import (
	"math/rand"

	"desh/internal/chain"
	"desh/internal/core"
	"desh/internal/tensor"
)

// kernelCosts times what sits under core.Detect: the nn stream step in
// its three forms over the sample's own chain vectors, and the tensor
// gate kernels at the serving shape (hidden → hidden, the second LSTM
// layer, which carries 94 % of a step's multiply-adds).
func (r *runner) kernelCosts(p *core.Pipeline, chains []chain.Chain, v map[string]float64) error {
	model := p.Phase2Model()
	f32, _, err := p.Convert32()
	if err != nil {
		return err
	}
	v["nn.weight_bytes_f64"] = float64(model.WeightBytes())
	v["nn.weight_bytes_f32"] = float64(f32.WeightBytes())

	inputs := make([][][]float64, len(chains))
	steps := 0
	for i, c := range chains {
		inputs[i] = p.VectorizeInput(c)
		steps += len(inputs[i])
	}
	st := model.NewStream()
	d := r.blocks("nn.Stream.Step", len(chains), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st.Reset()
			for _, x := range inputs[i] {
				st.Step(x)
			}
		}
	})
	v["nn.stream_step_ns"] = per(d, steps)

	st32 := f32.NewStream32()
	x32 := make([]float32, f32.InDim)
	d = r.blocks("nn.Stream32.Step", len(chains), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st32.Reset()
			for _, x := range inputs[i] {
				for j := range x32 {
					x32[j] = float32(x[j])
				}
				st32.Step(x32)
			}
		}
	})
	v["nn.stream32_step_ns"] = per(d, steps)

	// The batched stream at full width: microBatch rows stepped together
	// for as long as the shortest of them lasts.
	sb := model.NewStreamBatch()
	rowSteps := 0
	d = r.blocks("nn.StreamBatch.Step", len(chains), func(lo, hi int) {
		for g := lo; g+microBatch <= hi; g += microBatch {
			T := len(inputs[g])
			for _, in := range inputs[g : g+microBatch] {
				if len(in) < T {
					T = len(in)
				}
			}
			sb.Begin(microBatch)
			for t := 0; t < T; t++ {
				for row := 0; row < microBatch; row++ {
					copy(sb.Input(row), inputs[g+row][t])
				}
				sb.Step()
			}
			rowSteps += T * microBatch
		}
	})
	v["nn.streambatch_step_ns_per_row"] = per(d, rowSteps)

	// tensor: one gate pre-activation z = Wx·x + Wh·h + b at [4H x H].
	H := p.Config().Hidden2
	rng := rand.New(rand.NewSource(1))
	fill := func(m *tensor.Matrix) *tensor.Matrix {
		for i := range m.Data {
			m.Data[i] = rng.Float64() - 0.5
		}
		return m
	}
	wx, wh := fill(tensor.New(4*H, H)), fill(tensor.New(4*H, H))
	x, h, bias := fill(tensor.New(microBatch, H)), fill(tensor.New(microBatch, H)), fill(tensor.New(1, 4*H)).Data
	z := tensor.New(microBatch, 4*H)
	const calls = 1 << 15
	d = r.blocks("tensor.GateMatVec", calls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tensor.GateMatVec(z.Row(0), wx, x.Row(i%microBatch), wh, h.Row(i%microBatch), bias)
		}
	})
	v["tensor.gate_matvec_ns"] = per(d, calls)
	d = r.blocks("tensor.GateMatMul", calls, func(lo, hi int) {
		for i := lo; i < hi; i += microBatch {
			tensor.GateMatMul(z, x, wx, h, wh, bias)
		}
	})
	v["tensor.gate_matmul_ns_per_row"] = per(d, calls)
	wx32, err := tensor.ConvertMatrix32(wx)
	if err != nil {
		return err
	}
	wh32, _ := tensor.ConvertMatrix32(wh)
	xs32, _ := tensor.ConvertMatrix32(x)
	hs32, _ := tensor.ConvertMatrix32(h)
	z32, b32 := make([]float32, 4*H), make([]float32, 4*H)
	d = r.blocks("tensor.GateMatVec32", calls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tensor.GateMatVec32(z32, wx32, xs32.Row(i%microBatch), wh32, hs32.Row(i%microBatch), b32)
		}
	})
	v["tensor.gate_matvec32_ns"] = per(d, calls)
	// Computed, not measured: multiply-adds counted as two flops, and
	// the bytes one f64 call must touch (both weight matrices, x, h,
	// bias, z).
	v["tensor.gate_flops_per_call"] = float64(2 * 4 * H * 2 * H)
	v["tensor.gate_bytes_per_call"] = float64(8 * (2*4*H*H + 2*H + 2*4*H))
	return nil
}
