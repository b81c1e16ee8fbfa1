package core

import (
	"fmt"

	"desh/internal/chain"
	"desh/internal/loss"
)

// DetectBatch scores a slice of candidate sequences in lockstep
// (nn.StreamBatch), writing verdicts[i] for chains[i]. It is the
// serving-path fan-in: a stream shard hands over every chain that
// closed during one micro-batch drain and gets the same verdicts
// Detect would produce.
//
// Parity contract: verdicts[i] is bit-identical to Detect(chains[i]) —
// same flags, same FlagIndex, same float bits in every field. A batch
// row runs the very gate kernel the serial stream runs, and the
// threshold/consecutive-match automaton below replays DetectWith's
// exact control flow per row. Chains of unequal length score together
// by sorting rows longest-first and shrinking the batch as short chains
// finish; the sort only changes which matrix row a chain occupies,
// never the arithmetic applied to it.
//
// Like Detect, DetectBatch must not run concurrently on one Detector.
func (d *Detector) DetectBatch(chains []chain.Chain, verdicts []Verdict) {
	if len(verdicts) != len(chains) {
		panic(fmt.Sprintf("core: DetectBatch %d chains, %d verdict slots", len(chains), len(verdicts)))
	}
	if d.prec == PrecisionF32 {
		d.detectBatch32(chains, verdicts)
		return
	}
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
	if d.batch == nil {
		d.batch = p.phase2.NewStreamBatch()
	}
	sb := d.batch
	sb.Begin(live)
	var predRaw [2]float64
	for t := 0; ; t++ {
		// Row i predicts transition t while t+1 < len(chains[i].Entries);
		// retire finished rows from the tail before stepping.
		for live > 0 && t+1 >= len(chains[perm[live-1]].Entries) {
			live--
		}
		if live == 0 {
			return
		}
		sb.Shrink(live)
		for r := 0; r < live; r++ {
			copy(sb.Input(r), vec(d.in, d.bOff[perm[r]]+t))
		}
		pred := sb.Step()
		for r := 0; r < live; r++ {
			i := perm[r]
			pr := pred.Row(r)
			// Same raw-space rescale and match automaton as DetectWith.
			predRaw[0] = pr[0]
			predRaw[1] = pr[1] / idScale
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
