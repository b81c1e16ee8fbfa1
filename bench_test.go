package desh

// One benchmark per table and figure of the paper's evaluation section
// (see DESIGN.md's per-experiment index). Heavy setup — generating logs
// and training the three-phase pipeline — happens once per process in
// benchSystem; each benchmark then measures the work that regenerates
// its artifact.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"desh/internal/catalog"
	"desh/internal/chain"
	"desh/internal/core"
	"desh/internal/deeplog"
	"desh/internal/experiments"
	"desh/internal/label"
	"desh/internal/logparse"
	"desh/internal/logsim"
	"desh/internal/metrics"
)

var (
	benchOnce   sync.Once
	benchResult *experiments.SystemResult
	benchDeep   *experiments.DeepLogResult
	benchErr    error
)

func benchScale() experiments.Scale {
	return experiments.Scale{Nodes: 60, Hours: 96, Failures: 80, Seed: 31}
}

func benchSystem(b *testing.B) *experiments.SystemResult {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultPipelineConfig()
		cfg.Epochs1 = 1
		benchResult, benchErr = experiments.RunSystem(logsim.Profiles()[0], benchScale(), cfg)
		if benchErr != nil {
			return
		}
		dcfg := deeplog.DefaultConfig()
		dcfg.Epochs = 1
		benchDeep, benchErr = experiments.RunDeepLog(benchResult, dcfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchResult
}

// BenchmarkTable1_LogGeneration measures synthetic log generation for a
// Table-1 machine slice.
func BenchmarkTable1_LogGeneration(b *testing.B) {
	cfg := logsim.Config{Profile: logsim.Profiles()[0], Nodes: 32, Hours: 24, Failures: 20, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := logsim.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_PhraseParsing measures raw-line parsing plus the
// static/dynamic template split.
func BenchmarkTable2_PhraseParsing(b *testing.B) {
	r := benchSystem(b)
	lines := r.Run.Lines()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := lines[i%len(lines)]
		if _, err := logparse.ParseLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3_PhraseLabeling measures Safe/Unknown/Error labeling.
func BenchmarkTable3_PhraseLabeling(b *testing.B) {
	lab := label.New()
	keys := catalog.Keys(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab.Label(keys[i%len(keys)])
	}
}

// BenchmarkTable4_ChainFormation measures episode segmentation and ΔT
// chain formation over a full machine's events.
func BenchmarkTable4_ChainFormation(b *testing.B) {
	r := benchSystem(b)
	var enc logparse.Encoder
	byNode := logparse.ByNode(logparse.EncodeEvents(&enc, r.TestEvents))
	lab := label.New()
	cfg := chain.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := chain.ExtractAll(byNode, lab, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5_PhaseConfigs measures rendering the parameter table
// (trivially cheap; included for completeness of the per-artifact set).
func BenchmarkTable5_PhaseConfigs(b *testing.B) {
	cfg := experiments.DefaultPipelineConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := experiments.Table5(cfg); !strings.Contains(s, "Phase-1") {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig4_PredictionRates measures full Phase-3 inference over the
// test split — the work behind the Figure-4 metrics.
func BenchmarkFig4_PredictionRates(b *testing.B) {
	r := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdicts, err := r.Pipeline.Predict(r.TestEvents)
		if err != nil {
			b.Fatal(err)
		}
		conf, _ := core.Score(verdicts)
		if conf.Total() == 0 {
			b.Fatal("no verdicts")
		}
	}
}

// BenchmarkFig5_ErrorRates measures confusion-matrix scoring.
func BenchmarkFig5_ErrorRates(b *testing.B) {
	r := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conf, _ := core.Score(r.Verdicts)
		_ = conf.FPRate()
		_ = conf.FNRate()
	}
}

// BenchmarkFig6_LeadTimesByClass measures per-class lead aggregation
// (Table 7 / Figure 6).
func BenchmarkFig6_LeadTimesByClass(b *testing.B) {
	r := benchSystem(b)
	results := []*experiments.SystemResult{r}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := experiments.ClassLeadStats(results)
		if len(stats) == 0 {
			b.Fatal("no class stats")
		}
	}
}

// BenchmarkFig7_LeadTimesBySystem measures per-system lead summaries.
func BenchmarkFig7_LeadTimesBySystem(b *testing.B) {
	r := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := metrics.SummarizeLeads(r.Leads)
		if s.N == 0 {
			b.Fatal("no leads")
		}
	}
}

// BenchmarkFig8_LeadTimeSensitivity measures the threshold/match-count
// sweep behind Figure 8 (re-detects every candidate per setting).
func BenchmarkFig8_LeadTimeSensitivity(b *testing.B) {
	r := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := experiments.LeadTimeSensitivity(r)
		if len(points) == 0 {
			b.Fatal("no sweep points")
		}
	}
}

// BenchmarkFig9_UnknownPhraseAnalysis measures phrase chain-membership
// statistics (Table 8 / Figure 9).
func BenchmarkFig9_UnknownPhraseAnalysis(b *testing.B) {
	r := benchSystem(b)
	var enc logparse.Encoder
	byNode := logparse.ByNode(logparse.EncodeEvents(&enc, r.TestEvents))
	failures, candidates, err := chain.ExtractAll(byNode, label.New(), chain.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := chain.CollectPhraseStats(failures, candidates)
		if len(stats.InFailures) == 0 {
			b.Fatal("no stats")
		}
	}
}

// BenchmarkTable9_MaskedFaults measures rendering the failure vs
// non-failure sequence exhibit.
func BenchmarkTable9_MaskedFaults(b *testing.B) {
	r := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := experiments.Table9(r); !strings.Contains(s, "Failure") {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig10_PredictionCost measures the Figure-10 kernel itself:
// k-step Phase-1 prediction at both history sizes, through a reusable
// Predictor as a hot serving loop would run it (steady state must not
// allocate — allocs/op is the regression guard for the scratch arenas).
func BenchmarkFig10_PredictionCost(b *testing.B) {
	r := benchSystem(b)
	model := r.Train.Phase1
	if model == nil {
		b.Fatal("phase-1 model missing")
	}
	history := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for _, hs := range []int{5, 8} {
		for _, steps := range []int{1, 2, 3} {
			b.Run(benchName(hs, steps), func(b *testing.B) {
				pred := model.NewPredictor()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pred.Predict(history[:hs], steps)
				}
			})
		}
	}
}

func benchName(hs, steps int) string {
	return fmt.Sprintf("history%d_steps%d", hs, steps)
}

// BenchmarkTable10_Comparison measures DeepLog's per-entry detection
// over the candidate sequences (the measured rows of Table 10).
func BenchmarkTable10_Comparison(b *testing.B) {
	r := benchSystem(b)
	dcfg := deeplog.DefaultConfig()
	dcfg.Epochs = 1
	d, err := deeplog.Train(r.TrainEvents, dcfg)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-build the per-candidate event slices once.
	var seqs [][]logparse.Event
	for _, v := range r.Verdicts {
		events := make([]logparse.Event, len(v.Chain.Entries))
		for i, e := range v.Chain.Entries {
			events[i] = logparse.Event{Time: e.Time, Node: v.Node, Key: e.Key}
		}
		seqs = append(seqs, events)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anomalous, _ := d.SequenceAnomalous(seqs[i%len(seqs)])
		_ = anomalous
	}
}

// BenchmarkTable11_Capabilities measures rendering the capability matrix
// with measured annotations.
func BenchmarkTable11_Capabilities(b *testing.B) {
	r := benchSystem(b)
	if benchDeep == nil {
		b.Fatal("deeplog result missing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := experiments.Table11(r, benchDeep); !strings.Contains(s, "Lead Time") {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkPipelineTraining measures one full Phase-1+2 training run at
// small scale — the offline cost the paper amortizes (§4.4 notes
// training has no consequence to prediction performance).
func BenchmarkPipelineTraining(b *testing.B) {
	run, err := logsim.Generate(logsim.Config{
		Profile: logsim.Profiles()[2], Nodes: 20, Hours: 24, Failures: 15, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	events, err := experiments.ParseRun(run)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.DefaultPipelineConfig()
	cfg.Epochs1 = 1
	cfg.Epochs2 = 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Train(events); err != nil {
			b.Fatal(err)
		}
	}
}
