package core

import (
	"math"

	"desh/internal/chain"
	"desh/internal/loss"
)

// Float32 serving mode for the Phase-3 detector. The trained float64
// model is converted once (Pipeline.Convert32, cached per model) and
// both the serial and batched automatons below replay DetectWith's
// exact control flow over f32 predictions. Parity within the f32 path
// is bitwise — detectBatch32 row r equals detectWith32 on that chain —
// while f32 vs f64 verdicts are gated by the alert-equivalence
// tolerance suite (stream package) instead of bitwise comparison.
//
// Inputs are converted per step with a plain float32() round: chain
// vectors are finite by construction (ΔT minutes and a bounded phrase
// id), so unlike weight conversion there is no error surface here. The
// MSE and the threshold automaton stay in float64, applied to the f32
// predictions widened per element, so thresholds keep their paper-space
// meaning in both modes.

// NewDetectorPrecision builds a scoring context for the trained model
// on the chosen numeric path. PrecisionF32 converts the weights on
// first use (cached per model) and returns a typed error — never a
// panic — if any trained weight has no finite float32 encoding. Like
// NewDetector, it panics if the pipeline is untrained.
func (p *Pipeline) NewDetectorPrecision(prec Precision) (*Detector, error) {
	if prec != PrecisionF32 {
		return p.NewDetector(), nil
	}
	if p.phase2 == nil {
		panic("core: NewDetectorPrecision on untrained pipeline")
	}
	f, _, err := p.Convert32()
	if err != nil {
		return nil, err
	}
	return &Detector{
		p:        p,
		prec:     PrecisionF32,
		f32:      f,
		stream32: f.NewStream32(),
		in32:     make([]float32, f.InDim),
	}, nil
}

// Precision reports which numeric path this detector scores through.
func (d *Detector) Precision() Precision { return d.prec }

// detectWith32 is DetectWith on the float32 stream: the same
// vectorization, rescale, and consecutive-match automaton, with the
// LSTM arithmetic in f32 and every prediction widened back to f64
// before the MSE.
func (d *Detector) detectWith32(c chain.Chain, threshold float64, minMatches int) Verdict {
	p := d.p
	v := Verdict{
		Node:       c.Node,
		AnchorTime: c.FailTime,
		FlagIndex:  -1,
		MinMSE:     math.Inf(1),
		Chain:      c,
	}
	n := len(c.Entries)
	if n < 2 {
		return v
	}
	d.raw, d.in = d.raw[:0], d.in[:0]
	d.vectorize(c)
	idScale := p.idTargetScale()
	d.stream32.Reset()
	consecutive := 0
	for i := 0; i+1 < n; i++ {
		for dd, vv := range vec(d.in, i) {
			d.in32[dd] = float32(vv)
		}
		pred := d.stream32.Step(d.in32)
		d.predRaw[0] = float64(pred[0])
		d.predRaw[1] = float64(pred[1]) / idScale
		mse := loss.MSE(d.predRaw[:], vec(d.raw, i+1))
		if mse < v.MinMSE {
			v.MinMSE = mse
		}
		if i == 0 {
			continue
		}
		if mse <= threshold {
			consecutive++
			if !v.Flagged && consecutive >= minMatches {
				v.Flagged = true
				v.FlagIndex = i + 1
				v.LeadSeconds = c.Entries[i+1].DeltaT
				v.PredLeadSeconds = d.predRaw[0] * 60
			}
		} else {
			consecutive = 0
		}
	}
	return v
}

// detectBatch32 is DetectBatch on the float32 batch scorer: identical
// scheduling (longest-first rows, tail shrink) and automaton, with the
// per-element input conversion written through the same float32() round
// as detectWith32 so batch rows stay bit-identical to the serial path.
func (d *Detector) detectBatch32(chains []chain.Chain, verdicts []Verdict) {
	B := len(chains)
	switch B {
	case 0:
		return
	case 1:
		verdicts[0] = d.Detect(chains[0])
		return
	}
	p := d.p
	threshold, minMatches := p.cfg.MSEThreshold, p.cfg.MinMatches
	idScale := p.idTargetScale()
	perm, consec, live := d.beginBatch(chains, verdicts)
	if live == 0 {
		return
	}
	if d.batch32 == nil {
		d.batch32 = d.f32.NewStreamBatch32()
	}
	sb := d.batch32
	sb.Begin(live)
	var predRaw [2]float64
	for t := 0; ; t++ {
		for live > 0 && t+1 >= len(chains[perm[live-1]].Entries) {
			live--
		}
		if live == 0 {
			return
		}
		sb.Shrink(live)
		for r := 0; r < live; r++ {
			dst := sb.Input(r)
			for dd, vv := range vec(d.in, d.bOff[perm[r]]+t) {
				dst[dd] = float32(vv)
			}
		}
		pred := sb.Step()
		for r := 0; r < live; r++ {
			i := perm[r]
			pr := pred.Row(r)
			predRaw[0] = float64(pr[0])
			predRaw[1] = float64(pr[1]) / idScale
			mse := loss.MSE(predRaw[:], vec(d.raw, d.bOff[i]+t+1))
			v := &verdicts[i]
			if mse < v.MinMSE {
				v.MinMSE = mse
			}
			if t == 0 {
				continue
			}
			if mse <= threshold {
				consec[i]++
				if !v.Flagged && consec[i] >= minMatches {
					v.Flagged = true
					v.FlagIndex = t + 1
					v.LeadSeconds = chains[i].Entries[t+1].DeltaT
					v.PredLeadSeconds = predRaw[0] * 60
				}
			} else {
				consec[i] = 0
			}
		}
	}
}
