package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfusionRates(t *testing.T) {
	c := Confusion{TP: 7, FP: 1, TN: 9, FN: 1}
	if got := c.Recall(); math.Abs(got-7.0/8) > 1e-12 {
		t.Fatalf("recall %v", got)
	}
	if got := c.Precision(); math.Abs(got-7.0/8) > 1e-12 {
		t.Fatalf("precision %v", got)
	}
	if got := c.Accuracy(); math.Abs(got-16.0/18) > 1e-12 {
		t.Fatalf("accuracy %v", got)
	}
	if got := c.FPRate(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("FPR %v", got)
	}
	if got := c.FNRate(); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("FNR %v", got)
	}
}

func TestF1IsHarmonicMean(t *testing.T) {
	c := Confusion{TP: 6, FP: 2, FN: 4}
	r, p := c.Recall(), c.Precision()
	want := 2 * r * p / (r + p)
	if math.Abs(c.F1()-want) > 1e-12 {
		t.Fatalf("F1 %v want %v", c.F1(), want)
	}
}

func TestEmptyConfusionIsZeroNotNaN(t *testing.T) {
	var c Confusion
	for name, v := range map[string]float64{
		"recall": c.Recall(), "precision": c.Precision(), "accuracy": c.Accuracy(),
		"f1": c.F1(), "fpr": c.FPRate(), "fnr": c.FNRate(),
	} {
		if math.IsNaN(v) || v != 0 {
			t.Fatalf("%s on empty matrix = %v, want 0", name, v)
		}
	}
}

// Property: FNRate == 1 - Recall whenever there are positives.
func TestFNRateComplementsRecall(t *testing.T) {
	f := func(tp, fn uint8) bool {
		c := Confusion{TP: int(tp), FN: int(fn)}
		if c.TP+c.FN == 0 {
			return true
		}
		return math.Abs(c.FNRate()-(1-c.Recall())) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: all rates stay within [0,1].
func TestRatesBounded(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		for _, v := range []float64{c.Recall(), c.Precision(), c.Accuracy(), c.F1(), c.FPRate(), c.FNRate()} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfusionString(t *testing.T) {
	s := Confusion{TP: 1, FP: 2, TN: 3, FN: 4}.String()
	for _, frag := range []string{"TP=1", "FP=2", "TN=3", "FN=4", "recall="} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() missing %q: %s", frag, s)
		}
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-12 || math.Abs(std-2) > 1e-12 {
		t.Fatalf("mean=%v std=%v", mean, std)
	}
}

func TestMeanStdEmpty(t *testing.T) {
	mean, std := MeanStd(nil)
	if mean != 0 || std != 0 {
		t.Fatalf("mean=%v std=%v", mean, std)
	}
}

func TestMeanStdConstant(t *testing.T) {
	_, std := MeanStd([]float64{3, 3, 3})
	if std != 0 {
		t.Fatalf("std=%v", std)
	}
}

func TestSummarizeLeads(t *testing.T) {
	s := SummarizeLeads([]float64{60, 120, 180})
	if s.N != 3 || s.Mean != 120 || s.Min != 60 || s.Max != 180 {
		t.Fatalf("%+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSummarizeLeadsEmpty(t *testing.T) {
	s := SummarizeLeads(nil)
	if s.N != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("%+v", s)
	}
}
