package core

import (
	"math"
	"math/rand"
	"testing"

	"desh/internal/chain"
)

// TestPrecisionParse pins the flag spellings.
func TestPrecisionParse(t *testing.T) {
	for s, want := range map[string]Precision{
		"f64": PrecisionF64, "float64": PrecisionF64, "": PrecisionF64,
		"f32": PrecisionF32, "float32": PrecisionF32,
	} {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision accepted f16")
	}
	if PrecisionF64.String() != "f64" || PrecisionF32.String() != "f32" {
		t.Fatal("precision String spellings drifted")
	}
}

// TestConvert32Cache pins that the pipeline caches one conversion per
// trained model: only the first Convert32 reports converted=true, and
// every detector built at PrecisionF32 shares the cached weights.
func TestConvert32Cache(t *testing.T) {
	p, _ := trainSmall(t, 35)
	f1, converted, err := p.Convert32()
	if err != nil || !converted {
		t.Fatalf("first Convert32: converted=%v err=%v", converted, err)
	}
	f2, converted, err := p.Convert32()
	if err != nil || converted {
		t.Fatalf("second Convert32: converted=%v err=%v", converted, err)
	}
	if f1 != f2 {
		t.Fatal("Convert32 cache missed on unchanged model")
	}
	d, err := p.NewDetectorPrecision(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	if d.prec != PrecisionF32 || d.f32 != f1 {
		t.Fatal("f32 detector did not share the cached conversion")
	}
	if d64, err := p.NewDetectorPrecision(PrecisionF64); err != nil || d64.prec != PrecisionF64 {
		t.Fatalf("f64 detector: %v %v", d64.prec, err)
	}
}

// TestDetectBatch32MatchesDetect32 pins row invariance on the f32 path,
// which has no bitwise oracle: one batch of B chains yields, slot for
// slot, byte-identical verdicts to B batches of one, across random
// batch compositions and ragged chain shapes.
func TestDetectBatch32MatchesDetect32(t *testing.T) {
	p, all := trainSmall(t, 34)
	d, err := p.NewDetectorPrecision(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}

	want := make([]Verdict, len(all))
	for i := range all {
		d.DetectBatch(all[i:i+1], want[i:i+1])
	}

	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 8; trial++ {
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
					t.Fatalf("trial %d batch@%d size %d slot %d: f32 batched verdict diverges for chain %s/%v",
						trial, lo, B, k, chains[k].Node, chains[k].FailTime)
				}
			}
			lo += B
		}
	}
}

// TestDetect32NearDetect64 pins the tolerance relationship between the
// two paths on a trained model: per chain, the f32 MinMSE tracks the
// f64 MinMSE closely. The alert-level equivalence gate (identical alert
// multisets, bounded lead deltas) lives in the stream package's
// TestPrecisionAlertEquivalence; this is the per-verdict analogue.
func TestDetect32NearDetect64(t *testing.T) {
	p, all := trainSmall(t, 36)
	d64 := p.NewDetector()
	d32, err := p.NewDetectorPrecision(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		v64 := d64.Detect(c)
		v32 := d32.Detect(c)
		if math.IsInf(v64.MinMSE, 1) != math.IsInf(v32.MinMSE, 1) {
			t.Fatalf("chain %s: MinMSE finiteness diverges (%v vs %v)", c.Node, v64.MinMSE, v32.MinMSE)
		}
		if math.IsInf(v64.MinMSE, 1) {
			continue
		}
		// f32 carries ~1e-7 relative rounding per op; a drift beyond 1e-3
		// absolute+relative on these O(1e-2..1e1) MSEs means a real bug,
		// not rounding.
		tol := 1e-3 * (1 + math.Abs(v64.MinMSE))
		if diff := math.Abs(v64.MinMSE - v32.MinMSE); diff > tol {
			t.Fatalf("chain %s: MinMSE drift %g (f64 %g, f32 %g)", c.Node, diff, v64.MinMSE, v32.MinMSE)
		}
	}
}
