package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"desh/internal/chain"
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

// TestDetectBatchMatchesDetect pins the serving-path parity contract:
// fanning chains through DetectBatch yields, slot for slot, the same
// verdicts as scoring each chain alone — across random batch sizes,
// orders, and the ragged chain shapes a real drain produces (including
// degenerate one- and two-entry chains).
func TestDetectBatchMatchesDetect(t *testing.T) {
	p, all := trainSmall(t, 34)
	d := p.NewDetector()

	want := make([]Verdict, len(all))
	for i, c := range all {
		want[i] = d.Detect(c)
	}

	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 8; trial++ {
		// Shuffled copy so every trial batches different chains together.
		idx := rng.Perm(len(all))
		for lo := 0; lo < len(idx); {
			B := 1 + rng.Intn(7)
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
					t.Fatalf("trial %d batch@%d size %d slot %d: batched verdict diverges for chain %s/%v",
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
// Detect and DetectBatch allocate nothing, on either precision.
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
		if n := testing.AllocsPerRun(5, func() { d.DetectBatch(all, verdicts) }); n != 0 {
			t.Errorf("%s: DetectBatch allocates %v per batch of %d", prec, n, len(all))
		}
	}
}
