// Package metrics implements the paper's statistical evaluation
// machinery (Table 6): the confusion matrix over predicted node
// failures and the derived recall, precision, accuracy, F1 score and
// false-positive/false-negative rates, plus lead-time summary
// statistics (mean and standard deviation) used throughout §4.2.
package metrics

import (
	"fmt"
	"math"
)

// Confusion is the 2x2 confusion matrix of failure prediction:
// correctly predicted failures are true positives, incorrectly
// predicted failures false positives, missed failures false negatives,
// and unflagged non-failures true negatives.
type Confusion struct {
	TP, FP, TN, FN int
}

// Total returns the number of classified instances.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Recall is TP/(TP+FN).
func (c Confusion) Recall() float64 { return ratio(c.TP, c.TP+c.FN) }

// Precision is TP/(TP+FP).
func (c Confusion) Precision() float64 { return ratio(c.TP, c.TP+c.FP) }

// Accuracy is (TP+TN)/(TP+FP+FN+TN).
func (c Confusion) Accuracy() float64 { return ratio(c.TP+c.TN, c.Total()) }

// F1 is the harmonic mean of recall and precision.
func (c Confusion) F1() float64 {
	r, p := c.Recall(), c.Precision()
	if r+p == 0 {
		return 0
	}
	return 2 * r * p / (r + p)
}

// FPRate is FP/(FP+TN).
func (c Confusion) FPRate() float64 { return ratio(c.FP, c.FP+c.TN) }

// FNRate is FN/(TP+FN), i.e. 1-Recall.
func (c Confusion) FNRate() float64 { return ratio(c.FN, c.TP+c.FN) }

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// String renders the matrix plus the headline rates in percent.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d recall=%.2f%% precision=%.2f%% accuracy=%.2f%% F1=%.2f%% FPR=%.2f%% FNR=%.2f%%",
		c.TP, c.FP, c.TN, c.FN,
		100*c.Recall(), 100*c.Precision(), 100*c.Accuracy(), 100*c.F1(), 100*c.FPRate(), 100*c.FNRate())
}

// MeanStd returns the mean and population standard deviation of xs;
// both are 0 for empty input.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// LeadStats summarizes a set of predicted lead times (seconds).
type LeadStats struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// SummarizeLeads computes lead-time statistics.
func SummarizeLeads(leads []float64) LeadStats {
	s := LeadStats{N: len(leads)}
	if len(leads) == 0 {
		return s
	}
	s.Mean, s.Std = MeanStd(leads)
	s.Min, s.Max = leads[0], leads[0]
	for _, l := range leads[1:] {
		if l < s.Min {
			s.Min = l
		}
		if l > s.Max {
			s.Max = l
		}
	}
	return s
}

func (s LeadStats) String() string {
	return fmt.Sprintf("n=%d mean=%.1fs std=%.1fs min=%.1fs max=%.1fs", s.N, s.Mean, s.Std, s.Min, s.Max)
}
