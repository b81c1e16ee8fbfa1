package core

import (
	"fmt"
	"math"

	"desh/internal/chain"
	"desh/internal/loss"
)

// DetectBatch scores a slice of candidate sequences with the
// pipeline's configured threshold and match count, writing verdicts[i]
// for chains[i], chain after chain. A stream shard scores each chain
// as it closes (Detect); this entry serves callers holding many chains.
//
// Parity contract: verdicts[i] is bit-identical to Detect(chains[i]) —
// same flags, same FlagIndex, same float bits in every field — because
// Detect is this call at one chain and a chain's arithmetic depends on
// no other chain in the batch (nn.StreamBatch.Score).
//
// Like Detect, DetectBatch must not run concurrently on one Detector.
func (d *Detector) DetectBatch(chains []chain.Chain, verdicts []Verdict) {
	if len(verdicts) != len(chains) {
		panic(fmt.Sprintf("core: DetectBatch %d chains, %d verdict slots", len(chains), len(verdicts)))
	}
	d.score(chains, verdicts, d.p.cfg.MSEThreshold, d.p.cfg.MinMatches)
}

// score is Phase 3: each chain's vectors stream through the Phase-2
// LSTM predicting the next sample; when the prediction matches the
// observation (MSE <= threshold) for minMatches consecutive
// transitions, the chain is flagged as an impending failure at that
// point. Chains score one after another, each from one whole-sequence
// call (predict); a chain's arithmetic does not depend on the chains
// around it.
func (d *Detector) score(chains []chain.Chain, verdicts []Verdict, threshold float64, minMatches int) {
	idScale := d.p.idTargetScale()
	var predRaw [2]float64
	for i, c := range chains {
		v := &verdicts[i]
		*v = Verdict{Node: c.Node, AnchorTime: c.FailTime, FlagIndex: -1, MinMSE: math.Inf(1), Chain: c}
		// Transition t predicts vector t+1 from vectors 0..t; a chain of
		// fewer than two vectors has none and keeps the base verdict.
		n := len(c.Entries) - 1
		if n < 1 {
			continue
		}
		d.vectorize(c)
		pred := d.predict(n)
		consec := 0
		for t := 0; t < n; t++ {
			// Undo the target scaling so the MSE threshold applies in the
			// paper's raw (ΔT minutes, phrase id) space.
			pr := vec(pred, t)
			predRaw[0] = pr[0]
			predRaw[1] = pr[1] / idScale
			mse := loss.MSE(predRaw[:], vec(d.raw, t+1))
			if mse < v.MinMSE {
				v.MinMSE = mse
			}
			// The first transition is predicted from a single observation;
			// it carries no sequence evidence, so it never counts.
			if t == 0 {
				continue
			}
			if mse <= threshold {
				consec++
				if !v.Flagged && consec >= minMatches {
					v.Flagged = true
					v.FlagIndex = t + 1
					v.LeadSeconds = c.Entries[t+1].DeltaT
					v.PredLeadSeconds = predRaw[0] * 60
				}
			} else {
				consec = 0
			}
		}
	}
}

// predict runs the first n vectors of the chain in d.in through the
// model from the zero state and returns the predictions as float64, two
// per vector. This is the only place the serving precision shows.
func (d *Detector) predict(n int) []float64 {
	if d.prec != PrecisionF32 {
		return d.batch.Score(d.in[:2*n])
	}
	if d.stream32 == nil {
		d.stream32 = d.f32.NewStream32()
	}
	// Inputs narrow with a plain float32() round (chain vectors are
	// finite by construction) and predictions widen back, so the MSE and
	// the thresholds keep their paper-space meaning.
	d.stream32.Reset()
	d.pred = d.pred[:0]
	for t := 0; t < n; t++ {
		for k, x := range vec(d.in, t) {
			d.in32[k] = float32(x)
		}
		for _, y := range d.stream32.Step(d.in32) {
			d.pred = append(d.pred, float64(y))
		}
	}
	return d.pred
}
