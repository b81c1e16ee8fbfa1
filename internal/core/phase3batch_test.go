package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"desh/internal/chain"
	"desh/internal/loss"
)

// sameVerdict demands byte-identical verdicts: float fields compare by
// bits (catching even -0 vs 0 drift the == operator would hide).
func sameVerdict(a, b Verdict) bool {
	return a.Node == b.Node &&
		a.AnchorTime.Equal(b.AnchorTime) &&
		a.Flagged == b.Flagged &&
		a.FlagIndex == b.FlagIndex &&
		math.Float64bits(a.LeadSeconds) == math.Float64bits(b.LeadSeconds) &&
		math.Float64bits(a.PredLeadSeconds) == math.Float64bits(b.PredLeadSeconds) &&
		math.Float64bits(a.MinMSE) == math.Float64bits(b.MinMSE) &&
		reflect.DeepEqual(a.Chain, b.Chain)
}

// referenceDetect is Phase 3 for one chain written straight down, on
// nothing the serving path runs: the allocating vectorizers, the scalar
// LSTMStack.StepInfer and Dense.Forward (the path nn's
// TestStreamMatchesStepInfer trusts) and a plain loop. It is the oracle
// the one serving scorer is held to, bit for bit.
func referenceDetect(p *Pipeline, c chain.Chain, threshold float64, minMatches int) Verdict {
	v := Verdict{Node: c.Node, AnchorTime: c.FailTime, FlagIndex: -1, MinMSE: math.Inf(1), Chain: c}
	raw, in := p.Vectorize(c), p.VectorizeInput(c)
	st := p.phase2.Stack.NewState()
	consecutive := 0
	for i := 0; i+1 < len(in); i++ {
		pred := p.phase2.Out.Forward(p.phase2.Stack.StepInfer(in[i], st))
		pred[1] /= p.idTargetScale()
		mse := loss.MSE(pred, raw[i+1])
		if mse < v.MinMSE {
			v.MinMSE = mse
		}
		if i == 0 {
			continue // predicted from one observation: no sequence evidence
		}
		if mse > threshold {
			consecutive = 0
			continue
		}
		consecutive++
		if !v.Flagged && consecutive >= minMatches {
			v.Flagged, v.FlagIndex = true, i+1
			v.LeadSeconds = c.Entries[i+1].DeltaT
			v.PredLeadSeconds = pred[0] * 60
		}
	}
	return v
}

// TestDetectBatchMatchesDetect holds every entry point of the one
// scorer to referenceDetect, slot for slot and bit for bit: Detect,
// DetectWith at settings away from the configured ones, and DetectBatch
// across widths 1-32, shuffled orders and the ragged chain shapes a
// real drain produces, including chains too short to have a transition.
func TestDetectBatchMatchesDetect(t *testing.T) {
	p, all := trainSmall(t, 34)
	d := p.NewDetector()
	for _, n := range []int{0, 1} {
		short := all[n]
		short.Entries = short.Entries[:n]
		all = append(all, short)
	}

	want := make([]Verdict, len(all))
	flagged := 0
	for i, c := range all {
		want[i] = referenceDetect(p, c, p.cfg.MSEThreshold, p.cfg.MinMatches)
		if want[i].Flagged {
			flagged++
		}
		if got := d.Detect(c); !sameVerdict(got, want[i]) {
			t.Fatalf("chain %d (%s, %d entries): Detect %+v, reference %+v", i, c.Node, len(c.Entries), got, want[i])
		}
	}
	if flagged == 0 || flagged == len(all) {
		t.Fatalf("%d of %d chains flagged: the comparison does not cover both outcomes", flagged, len(all))
	}

	for _, s := range []struct {
		threshold  float64
		minMatches int
	}{{4 * p.cfg.MSEThreshold, 1}, {p.cfg.MSEThreshold / 4, p.cfg.MinMatches + 2}, {math.Inf(1), 3}, {0, 1}} {
		for i, c := range all {
			ref := referenceDetect(p, c, s.threshold, s.minMatches)
			if got := d.DetectWith(c, s.threshold, s.minMatches); !sameVerdict(got, ref) {
				t.Fatalf("chain %d at (%g, %d): DetectWith %+v, reference %+v", i, s.threshold, s.minMatches, got, ref)
			}
		}
	}

	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 8; trial++ {
		// Shuffled copy so every trial batches different chains together.
		idx := rng.Perm(len(all))
		for lo := 0; lo < len(idx); {
			B := 1 + rng.Intn(32)
			if lo+B > len(idx) {
				B = len(idx) - lo
			}
			chains := make([]chain.Chain, B)
			for k := 0; k < B; k++ {
				chains[k] = all[idx[lo+k]]
			}
			verdicts := make([]Verdict, B)
			d.DetectBatch(chains, verdicts)
			for k := 0; k < B; k++ {
				if !sameVerdict(verdicts[k], want[idx[lo+k]]) {
					t.Fatalf("trial %d batch@%d size %d slot %d: batched verdict diverges from the reference for chain %s/%v",
						trial, lo, B, k, chains[k].Node, chains[k].FailTime)
				}
			}
			lo += B
		}
	}

	// Mismatched slice lengths must refuse loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on verdict slice length mismatch")
			}
		}()
		d.DetectBatch(all[:2], make([]Verdict, 1))
	}()

	// Empty batch is a no-op.
	d.DetectBatch(nil, nil)
}

// TestDetectorVectorizeMatchesPipeline holds the detector's scratch
// vectorization to the exported one training and the benchmark use.
func TestDetectorVectorizeMatchesPipeline(t *testing.T) {
	p, all := trainSmall(t, 34)
	d := p.NewDetector()
	for _, c := range all {
		off := d.vectorize(c)
		raw, in := p.Vectorize(c), p.VectorizeInput(c)
		for i := range c.Entries {
			for k := 0; k < 2; k++ {
				if math.Float64bits(vec(d.raw, off+i)[k]) != math.Float64bits(raw[i][k]) ||
					math.Float64bits(vec(d.in, off+i)[k]) != math.Float64bits(in[i][k]) {
					t.Fatalf("chain %s entry %d component %d differs from Pipeline.Vectorize*", c.Node, i, k)
				}
			}
		}
	}
}

// TestDetectAllocatesNothing pins the serving path's steady state: once
// the scratch has grown to the widest batch and the longest chain,
// Detect, DetectWith and DetectBatch allocate nothing, on either
// precision.
func TestDetectAllocatesNothing(t *testing.T) {
	p, all := trainSmall(t, 34)
	verdicts := make([]Verdict, len(all))
	for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
		d, err := p.NewDetectorPrecision(prec)
		if err != nil {
			t.Fatal(err)
		}
		d.DetectBatch(all, verdicts) // grow
		if n := testing.AllocsPerRun(5, func() {
			for _, c := range all {
				verdicts[0] = d.Detect(c)
			}
		}); n != 0 {
			t.Errorf("%s: Detect allocates %v per pass over %d chains", prec, n, len(all))
		}
		if n := testing.AllocsPerRun(5, func() {
			for _, c := range all {
				verdicts[0] = d.DetectWith(c, 2*p.cfg.MSEThreshold, 1)
			}
		}); n != 0 {
			t.Errorf("%s: DetectWith allocates %v per pass over %d chains", prec, n, len(all))
		}
		if n := testing.AllocsPerRun(5, func() { d.DetectBatch(all, verdicts) }); n != 0 {
			t.Errorf("%s: DetectBatch allocates %v per batch of %d", prec, n, len(all))
		}
	}
}
