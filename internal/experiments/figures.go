package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"desh/internal/catalog"
	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/metrics"
	"desh/internal/nn"
	"desh/internal/par"
)

// Fig4 renders the per-system prediction rates (paper Figure 4):
// recall, precision, accuracy and F1 score.
func Fig4(results []*SystemResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: Prediction Rates\n")
	fmt.Fprintf(&b, "%-4s %10s %10s %10s %10s\n", "Sys", "Recall", "Precision", "Accuracy", "F1")
	for _, r := range results {
		fmt.Fprintf(&b, "%-4s %10s %10s %10s %10s\n", r.Machine,
			fmtPct(r.Conf.Recall()), fmtPct(r.Conf.Precision()),
			fmtPct(r.Conf.Accuracy()), fmtPct(r.Conf.F1()))
	}
	return b.String()
}

// Fig5 renders the per-system error rates (paper Figure 5): false
// positive and false negative rates.
func Fig5(results []*SystemResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: FP Rate and FN Rate\n")
	fmt.Fprintf(&b, "%-4s %10s %10s\n", "Sys", "FP Rate", "FN Rate")
	for _, r := range results {
		fmt.Fprintf(&b, "%-4s %10s %10s\n", r.Machine, fmtPct(r.Conf.FPRate()), fmtPct(r.Conf.FNRate()))
	}
	return b.String()
}

// ClassLeadStats aggregates true-positive lead times per failure class
// across systems (paper Table 7 + Figure 6).
func ClassLeadStats(results []*SystemResult) map[catalog.Class]metrics.LeadStats {
	pooled := map[catalog.Class][]float64{}
	for _, r := range results {
		for cl, leads := range r.LeadsByClass() {
			pooled[cl] = append(pooled[cl], leads...)
		}
	}
	out := map[catalog.Class]metrics.LeadStats{}
	for cl, leads := range pooled {
		out[cl] = metrics.SummarizeLeads(leads)
	}
	return out
}

// Fig6Table7 renders lead times by failure class with standard
// deviations (paper Figure 6 and the lead-time column of Table 7).
func Fig6Table7(results []*SystemResult) string {
	stats := ClassLeadStats(results)
	paper := map[catalog.Class]float64{
		catalog.ClassJob: 81.52, catalog.ClassMCE: 160.29, catalog.ClassFS: 119.32,
		catalog.ClassTraps: 115.74, catalog.ClassHardware: 124.29, catalog.ClassPanic: 58.87,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7 / Figure 6: Lead Times by Failure Class\n")
	fmt.Fprintf(&b, "%-12s %6s %12s %10s %14s\n", "Class", "N", "AvgLead(s)", "Std(s)", "Paper avg (s)")
	for _, cl := range sortedClasses() {
		s := stats[cl]
		fmt.Fprintf(&b, "%-12s %6d %12.2f %10.2f %14.2f\n", cl, s.N, s.Mean, s.Std, paper[cl])
	}
	return b.String()
}

// Fig7 renders the average lead time per system with its standard
// deviation (paper Figure 7).
func Fig7(results []*SystemResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: Avg Lead Times of Systems\n")
	fmt.Fprintf(&b, "%-4s %6s %12s %10s\n", "Sys", "N", "AvgLead(s)", "Std(s)")
	for _, r := range results {
		s := metrics.SummarizeLeads(r.Leads)
		fmt.Fprintf(&b, "%-4s %6d %12.2f %10.2f\n", r.Machine, s.N, s.Mean, s.Std)
	}
	return b.String()
}

// SensitivityPoint is one point of the Figure-8 tradeoff.
type SensitivityPoint struct {
	Threshold  float64
	MinMatches int
	AvgLead    float64
	FPRate     float64
	Recall     float64
	TruePosN   int
	FalsePosN  int
}

// LeadTimeSensitivity sweeps detection leniency and reports the
// lead-time versus false-positive tradeoff (paper Figure 8): flagging
// earlier (fewer required matches, looser threshold) buys longer lead
// times at the cost of more false positives.
//
// Every (setting, candidate) re-detection is independent, so the sweep
// fans the candidates out over a worker pool per setting (one Detector
// per worker) and folds the per-index verdicts serially — the points are
// identical to the serial sweep's.
func LeadTimeSensitivity(result *SystemResult) []SensitivityPoint {
	type setting struct {
		threshold  float64
		minMatches int
	}
	settings := []setting{
		{0.25, 3}, {0.5, 3}, {0.5, 2}, {0.75, 2}, {1.0, 2}, {0.5, 1}, {1.0, 1}, {2.0, 1}, {4.0, 1},
	}
	n := len(result.Verdicts)
	redetected := make([]core.Verdict, n)
	detectors := make([]*core.Detector, par.Workers(n))
	var points []SensitivityPoint
	for _, s := range settings {
		par.ForWorker(n, func(w, i int) {
			if detectors[w] == nil {
				detectors[w] = result.Pipeline.NewDetector()
			}
			redetected[i] = detectors[w].DetectWith(result.Verdicts[i].Chain, s.threshold, s.minMatches)
		})
		var conf metrics.Confusion
		var leads []float64
		for i := range result.Verdicts {
			nv := redetected[i]
			switch {
			case nv.Flagged && nv.Chain.Terminal:
				conf.TP++
				leads = append(leads, nv.LeadSeconds)
			case nv.Flagged && !nv.Chain.Terminal:
				conf.FP++
			case !nv.Flagged && nv.Chain.Terminal:
				conf.FN++
			default:
				conf.TN++
			}
		}
		stats := metrics.SummarizeLeads(leads)
		points = append(points, SensitivityPoint{
			Threshold:  s.threshold,
			MinMatches: s.minMatches,
			AvgLead:    stats.Mean,
			FPRate:     conf.FPRate(),
			Recall:     conf.Recall(),
			TruePosN:   conf.TP,
			FalsePosN:  conf.FP,
		})
	}
	return points
}

// Fig8 renders the lead-time sensitivity sweep (paper Figure 8).
func Fig8(result *SystemResult) string {
	points := LeadTimeSensitivity(result)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: Lead Times and FP Rate (%s)\n", result.Machine)
	fmt.Fprintf(&b, "%10s %10s %12s %10s %10s\n", "Threshold", "MinMatch", "AvgLead(s)", "FP Rate", "Recall")
	for _, p := range points {
		fmt.Fprintf(&b, "%10.2f %10d %12.2f %10s %10s\n",
			p.Threshold, p.MinMatches, p.AvgLead, fmtPct(p.FPRate), fmtPct(p.Recall))
	}
	return b.String()
}

// CostPoint is one measurement of the Figure-10 cost analysis.
type CostPoint struct {
	HistorySize int
	Steps       int
	PerPredMS   float64
}

// PredictionCost measures the wall-clock cost of k-step Phase-1
// prediction for the paper's two history sizes (Figure 10), through one
// reusable Predictor, so no allocation or collection is timed. Each
// point is the minimum over several trials, which is robust to
// scheduler noise; within a trial a history's 1-, 2- and 3-step points
// are timed back to back, in alternating order from trial to trial, so
// a burst of load lands on all of them or on each end in turn, never on
// one alone.
func PredictionCost(model *nn.SeqClassifier, seed int64) []CostPoint {
	rng := rand.New(rand.NewSource(seed))
	history := make([]int, 16)
	for i := range history {
		history[i] = rng.Intn(model.Vocab)
	}
	pred := model.NewPredictor()
	const trials, reps = 25, 20
	steps := []int{1, 2, 3}
	var points []CostPoint
	for _, hs := range []int{5, 8} {
		best := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
		for trial := 0; trial < trials; trial++ {
			for j := range steps {
				k := j
				if trial%2 == 1 {
					k = len(steps) - 1 - j
				}
				start := time.Now()
				for r := 0; r < reps; r++ {
					pred.Predict(history[:hs], steps[k])
				}
				if ms := float64(time.Since(start).Nanoseconds()) / reps / 1e6; ms < best[k] {
					best[k] = ms
				}
			}
		}
		for k, s := range steps {
			points = append(points, CostPoint{HistorySize: hs, Steps: s, PerPredMS: best[k]})
		}
	}
	return points
}

// Fig10 renders the prediction cost analysis (paper Figure 10) on the
// Phase-1 classifier the result's training reported.
func Fig10(result *SystemResult) string {
	model := result.Train.Phase1
	if model == nil {
		return "Figure 10: Phase-1 model unavailable (Epochs1 == 0)\n"
	}
	points := PredictionCost(model, 7)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: Cost Analysis (per-prediction time)\n")
	fmt.Fprintf(&b, "%8s %6s %12s\n", "History", "Steps", "Time (ms)")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %6d %12.4f\n", p.HistorySize, p.Steps, p.PerPredMS)
	}
	return b.String()
}

// HistoryAblation re-trains Phase 1 with a reduced history window and
// returns the next-phrase accuracies (full, reduced) — the paper's
// observation that shrinking the history from 8 to 3 costs 10-14%
// accuracy.
func HistoryAblation(events []logparse.Event, cfg core.Config, reducedHistory int) (full, reduced float64, err error) {
	run := func(history int) (float64, error) {
		c := cfg
		c.History1 = history
		if c.Epochs1 == 0 {
			c.Epochs1 = 1
		}
		p, err := core.New(c)
		if err != nil {
			return 0, err
		}
		rep, err := p.Train(events)
		if err != nil {
			return 0, err
		}
		return rep.Phase1Accuracy, nil
	}
	if full, err = run(cfg.History1); err != nil {
		return 0, 0, err
	}
	if reduced, err = run(reducedHistory); err != nil {
		return 0, 0, err
	}
	return full, reduced, nil
}

// Observation4 computes the paper's fourth observation: the standard
// deviation of lead times within a failure class is lower than the
// standard deviation across all failures of a system. It returns the
// mean per-class std and the mean per-system std.
func Observation4(results []*SystemResult) (classStd, systemStd float64) {
	cls := ClassLeadStats(results)
	n := 0
	for _, s := range cls {
		if s.N >= 3 {
			classStd += s.Std
			n++
		}
	}
	if n > 0 {
		classStd /= float64(n)
	}
	m := 0
	for _, r := range results {
		s := metrics.SummarizeLeads(r.Leads)
		if s.N >= 3 {
			systemStd += s.Std
			m++
		}
	}
	if m > 0 {
		systemStd /= float64(m)
	}
	return classStd, systemStd
}
