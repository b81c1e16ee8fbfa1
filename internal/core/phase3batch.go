package core

import (
	"fmt"

	"desh/internal/chain"
	"desh/internal/loss"
)

// DetectBatch scores a slice of candidate sequences in lockstep with
// the pipeline's configured threshold and match count, writing
// verdicts[i] for chains[i]. It is the serving-path fan-in: a stream
// shard hands over every chain that closed during one micro-batch
// drain.
//
// Parity contract: verdicts[i] is bit-identical to Detect(chains[i]) —
// same flags, same FlagIndex, same float bits in every field — because
// Detect is this call at one chain and a row's arithmetic depends on
// neither the batch width nor its row index (nn.StreamBatch).
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
// point. Chains of unequal length score together by sorting rows
// longest-first and retiring rows from the tail as short chains
// finish; the sort only changes which row a chain occupies, never the
// arithmetic applied to it.
func (d *Detector) score(chains []chain.Chain, verdicts []Verdict, threshold float64, minMatches int) {
	idScale := d.p.idTargetScale()
	perm, consec, live := d.beginBatch(chains, verdicts)
	var predRaw [2]float64
	for t := 0; ; t++ {
		// Row r predicts transition t while t+1 < len(its chain's
		// Entries).
		for live > 0 && t+1 >= len(chains[perm[live-1]].Entries) {
			live--
		}
		if live == 0 {
			return
		}
		pred := d.step(perm[:live], t)
		for r, i := range perm[:live] {
			// Undo the target scaling so the MSE threshold applies in the
			// paper's raw (ΔT minutes, phrase id) space.
			pr := vec(pred, r)
			predRaw[0] = pr[0]
			predRaw[1] = pr[1] / idScale
			mse := loss.MSE(predRaw[:], vec(d.raw, d.bOff[i]+t+1))
			v := &verdicts[i]
			if mse < v.MinMSE {
				v.MinMSE = mse
			}
			// The first transition is predicted from a single observation;
			// it carries no sequence evidence, so it never counts.
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

// step advances the live rows one timestep and returns their
// predictions as float64, two per row. Row r reads vector t of chain
// rows[r]; t == 0 starts every row from the zero state, and later calls
// keep a prefix of the previous call's rows. This is the only place the
// serving precision shows.
func (d *Detector) step(rows []int, t int) []float64 {
	if d.prec == PrecisionF32 {
		for len(d.streams32) < len(rows) {
			d.streams32 = append(d.streams32, d.f32.NewStream32())
		}
		// Inputs narrow with a plain float32() round (chain vectors are
		// finite by construction) and predictions widen back, so the MSE
		// and the thresholds keep their paper-space meaning.
		d.pred = d.pred[:0]
		for r, i := range rows {
			s := d.streams32[r]
			if t == 0 {
				s.Reset()
			}
			for k, x := range vec(d.in, d.bOff[i]+t) {
				d.in32[k] = float32(x)
			}
			for _, y := range s.Step(d.in32) {
				d.pred = append(d.pred, float64(y))
			}
		}
		return d.pred
	}
	if t == 0 {
		d.batch.Begin(len(rows))
	} else {
		d.batch.Shrink(len(rows))
	}
	for r, i := range rows {
		copy(d.batch.Input(r), vec(d.in, d.bOff[i]+t))
	}
	return d.batch.Step().Data
}
