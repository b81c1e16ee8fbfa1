package experiments

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"desh/internal/catalog"
	"desh/internal/deeplog"
	"desh/internal/logsim"
)

var (
	cachedOnce    sync.Once
	cachedResults []*SystemResult
	cachedErr     error
)

// allResults runs the four systems once at quick scale and caches the
// outcome for every test in the package.
func allResults(t *testing.T) []*SystemResult {
	t.Helper()
	cachedOnce.Do(func() {
		cfg := DefaultPipelineConfig()
		cachedResults, cachedErr = RunAllSystems(QuickScale(), cfg)
	})
	if cachedErr != nil {
		t.Fatal(cachedErr)
	}
	return cachedResults
}

func TestRunAllSystemsProducesFourResults(t *testing.T) {
	results := allResults(t)
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	for i, want := range []string{"M1", "M2", "M3", "M4"} {
		if results[i].Machine != want {
			t.Fatalf("result %d machine %s", i, results[i].Machine)
		}
	}
}

// The paper's headline shape: high recall/accuracy, bounded FP rate.
// Quick-scale bands are looser than the full-scale deshexp run records
// in EXPERIMENTS.md.
func TestPredictionQualityBands(t *testing.T) {
	for _, r := range allResults(t) {
		if got := r.Conf.Recall(); got < 0.65 {
			t.Errorf("%s: recall %.3f below 0.65", r.Machine, got)
		}
		if got := r.Conf.Precision(); got < 0.70 {
			t.Errorf("%s: precision %.3f below 0.70", r.Machine, got)
		}
		if got := r.Conf.FPRate(); got > 0.40 {
			t.Errorf("%s: FP rate %.3f above 0.40", r.Machine, got)
		}
		if got := r.Conf.FNRate(); got > 0.35 {
			t.Errorf("%s: FN rate %.3f above 0.35", r.Machine, got)
		}
	}
}

func TestPhase1AccuracyReported(t *testing.T) {
	for _, r := range allResults(t) {
		if r.Train.Phase1Accuracy < 0.5 {
			t.Errorf("%s: Phase-1 accuracy %.2f", r.Machine, r.Train.Phase1Accuracy)
		}
	}
}

func TestFig4Fig5Render(t *testing.T) {
	results := allResults(t)
	f4 := Fig4(results)
	for _, frag := range []string{"Recall", "Precision", "M1", "M4"} {
		if !strings.Contains(f4, frag) {
			t.Fatalf("Fig4 missing %q:\n%s", frag, f4)
		}
	}
	f5 := Fig5(results)
	if !strings.Contains(f5, "FP Rate") || !strings.Contains(f5, "M3") {
		t.Fatalf("Fig5 output:\n%s", f5)
	}
}

// Observation in Figure 6 / Table 7: Panic chains have the shortest
// lead times, MCE the longest.
func TestClassLeadOrdering(t *testing.T) {
	stats := ClassLeadStats(allResults(t))
	panic_, mce := stats[catalog.ClassPanic], stats[catalog.ClassMCE]
	if panic_.N < 3 || mce.N < 3 {
		t.Skipf("too few class samples (panic %d, mce %d)", panic_.N, mce.N)
	}
	if panic_.Mean >= mce.Mean {
		t.Errorf("Panic lead %.1fs not below MCE lead %.1fs", panic_.Mean, mce.Mean)
	}
}

// Observation 4: per-class lead-time deviation is below the per-system
// deviation.
func TestObservation4(t *testing.T) {
	classStd, systemStd := Observation4(allResults(t))
	if classStd <= 0 || systemStd <= 0 {
		t.Skip("insufficient lead samples")
	}
	if classStd >= systemStd {
		t.Errorf("class std %.2f not below system std %.2f", classStd, systemStd)
	}
}

// Figure 8 shape: across the sensitivity sweep, longer average lead
// times coincide with higher FP rates (monotone trend between the
// extreme settings).
func TestLeadTimeSensitivityShape(t *testing.T) {
	r := allResults(t)[0]
	points := LeadTimeSensitivity(r)
	if len(points) < 5 {
		t.Fatalf("%d sweep points", len(points))
	}
	strictest, loosest := points[0], points[len(points)-1]
	if !(loosest.AvgLead > strictest.AvgLead) {
		t.Errorf("loosest setting lead %.1fs not above strictest %.1fs", loosest.AvgLead, strictest.AvgLead)
	}
	if !(loosest.FPRate >= strictest.FPRate) {
		t.Errorf("loosest FP rate %.3f below strictest %.3f", loosest.FPRate, strictest.FPRate)
	}
}

func TestFig6Fig7Fig8Render(t *testing.T) {
	results := allResults(t)
	if s := Fig6Table7(results); !strings.Contains(s, "MCE") || !strings.Contains(s, "Panic") {
		t.Fatalf("Fig6Table7:\n%s", s)
	}
	if s := Fig7(results); !strings.Contains(s, "AvgLead") {
		t.Fatalf("Fig7:\n%s", s)
	}
	if s := Fig8(results[0]); !strings.Contains(s, "Threshold") {
		t.Fatalf("Fig8:\n%s", s)
	}
}

func TestTablesRender(t *testing.T) {
	scale := QuickScale()
	if s := Table1(scale); !strings.Contains(s, "Cray XC30") || !strings.Contains(s, "373GB") {
		t.Fatalf("Table1:\n%s", s)
	}
	if s := Table2(3); !strings.Contains(s, "static:") {
		t.Fatalf("Table2:\n%s", s)
	}
	if s := Table3(); !strings.Contains(s, "Safe") || !strings.Contains(s, "Error") {
		t.Fatalf("Table3:\n%s", s)
	}
	t4, err := Table4(scale)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t4, "dT=") {
		t.Fatalf("Table4:\n%s", t4)
	}
	if s := Table5(DefaultPipelineConfig()); !strings.Contains(s, "RMSprop") || !strings.Contains(s, "SGD") {
		t.Fatalf("Table5:\n%s", s)
	}
}

// Table 4 property: the last chain entry carries ΔT == 0 and earlier
// entries are non-increasing in time distance.
func TestTable4DeltaTShape(t *testing.T) {
	out, err := Table4(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dT=000.000s") {
		t.Fatalf("terminal entry must have ΔT 0:\n%s", out)
	}
}

func TestUnknownPhraseAnalysis(t *testing.T) {
	r := allResults(t)[0]
	out := Table8Figure9(r)
	if !strings.Contains(out, "contrib") {
		t.Fatalf("Table8Figure9:\n%s", out)
	}
	// At least one Unknown phrase must appear in failure chains.
	if !strings.Contains(out, "%") {
		t.Fatalf("no percentages:\n%s", out)
	}
}

func TestTable9Render(t *testing.T) {
	r := allResults(t)[0]
	out := Table9(r)
	if !strings.Contains(out, "Failure 1") || !strings.Contains(out, "Not Failure 1") {
		t.Fatalf("Table9:\n%s", out)
	}
}

// Figure 10 shape: 3-step prediction costs more than 1-step, and
// history 8 costs at least 0.8× history 5 for the same steps. The
// timings are wall-clock and a neighbouring test binary's load comes in
// bursts, so each comparison is decided on back-to-back pairs timed in
// alternating order: a burst that lands on a pair mostly loads both of
// its sides, and the median pair ratio ignores the pairs it splits.
func TestPredictionCostShape(t *testing.T) {
	r := allResults(t)[0]
	model := r.Train.Phase1
	if model == nil {
		t.Fatal("phase-1 model missing")
	}
	points := PredictionCost(model, 7)
	if len(points) != 6 {
		t.Fatalf("%d cost points", len(points))
	}
	for _, p := range points {
		if p.PerPredMS <= 0 {
			t.Fatalf("non-positive timing %v", p)
		}
	}
	rng := rand.New(rand.NewSource(7))
	history := make([]int, 8)
	for i := range history {
		history[i] = rng.Intn(model.Vocab)
	}
	pred := model.NewPredictor()
	cost := func(p [2]int) time.Duration {
		start := time.Now()
		for range 20 {
			pred.Predict(history[:p[0]], p[1])
		}
		return time.Since(start)
	}
	// ratio is the median over 25 pairs of cost(a)/cost(b), a timed
	// first in the even pairs and second in the odd ones.
	ratio := func(a, b [2]int) float64 {
		rs := make([]float64, 25)
		for i := range rs {
			var ta, tb time.Duration
			if i%2 == 0 {
				ta = cost(a)
				tb = cost(b)
			} else {
				tb = cost(b)
				ta = cost(a)
			}
			rs[i] = float64(ta) / float64(tb)
		}
		slices.Sort(rs)
		return rs[len(rs)/2]
	}
	steps, hist := ratio([2]int{8, 3}, [2]int{8, 1}), ratio([2]int{8, 1}, [2]int{5, 1})
	t.Logf("median pair ratios: 3-step/1-step at history 8 %.3f, history 8/5 at 1 step %.3f", steps, hist)
	if !(steps > 1) {
		t.Errorf("3-step not slower than 1-step at history 8: median pair ratio %.3f", steps)
	}
	if !(hist >= 0.8) {
		t.Errorf("history-8 cost implausibly below history-5: median pair ratio %.3f", hist)
	}
	if s := Fig10(r); !strings.Contains(s, "History") {
		t.Fatalf("Fig10:\n%s", s)
	}
}

func TestDeepLogComparison(t *testing.T) {
	r := allResults(t)[0]
	cfg := deeplog.DefaultConfig()
	cfg.Epochs = 1
	dlog, err := RunDeepLog(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dlog.Conf.Total() == 0 {
		t.Fatal("DeepLog scored nothing")
	}
	// DeepLog flags per entry: on chain-shaped candidates it should
	// catch most true failures too (they contain rare keys) but without
	// lead times; Desh's differentiator is lead time + localization,
	// asserted structurally here and in Table 11.
	t10 := Table10(r, dlog)
	for _, frag := range []string{"Desh (measured)", "DeepLog", "Hora", "UBL"} {
		if !strings.Contains(t10, frag) {
			t.Fatalf("Table10 missing %q:\n%s", frag, t10)
		}
	}
	t11 := Table11(r, dlog)
	if !strings.Contains(t11, "Lead Time") || !strings.Contains(t11, "Component location") {
		t.Fatalf("Table11:\n%s", t11)
	}
}

func TestNgramComparison(t *testing.T) {
	r := allResults(t)[0]
	ngramAcc, lstmAcc := NgramComparison(r, 3)
	if ngramAcc <= 0 || ngramAcc > 1 {
		t.Fatalf("ngram accuracy %v", ngramAcc)
	}
	if lstmAcc <= 0 {
		t.Fatalf("lstm accuracy %v", lstmAcc)
	}
}

// Paper: reducing the history size from 8 to 3 drops Phase-1 accuracy
// by 10-14%. The quick-scale assertion is directional.
func TestHistoryAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	run, err := logsim.Generate(logsim.Config{
		Profile: logsim.Profiles()[0], Nodes: 50, Hours: 72, Failures: 40, Seed: 91,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := ParseRun(run)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPipelineConfig()
	cfg.Epochs1 = 1
	cfg.Epochs2 = 10
	full, reduced, err := HistoryAblation(events, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if full <= reduced {
		t.Errorf("history 8 accuracy %.3f not above history 3 accuracy %.3f", full, reduced)
	}
}
