package core

import (
	"math"
	"testing"
	"time"

	"desh/internal/catalog"
	"desh/internal/chain"
	"desh/internal/logparse"
	"desh/internal/logsim"
	"desh/internal/metrics"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.EmbedDim = 0 },
		func(c *Config) { c.History1 = 0 },
		func(c *Config) { c.Steps1 = 0 },
		func(c *Config) { c.LR1 = 0 },
		func(c *Config) { c.Epochs1 = -1 },
		func(c *Config) { c.Hidden2 = 0 },
		func(c *Config) { c.Epochs2 = 0 },
		func(c *Config) { c.LR2 = -1 },
		func(c *Config) { c.MSEThreshold = 0 },
		func(c *Config) { c.MinMatches = 0 },
		func(c *Config) { c.ChainCfg.MaxGap = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinMatches = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestSplitEvents(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	events := make([]logparse.Event, 10)
	for i := range events {
		events[i] = logparse.Event{Time: base.Add(time.Duration(i) * time.Hour)}
	}
	train, test := SplitEvents(events, 0.3)
	if len(train)+len(test) != 10 {
		t.Fatalf("split lost events: %d + %d", len(train), len(test))
	}
	if len(train) == 0 || len(test) == 0 {
		t.Fatalf("degenerate split %d/%d", len(train), len(test))
	}
	for _, ev := range train {
		if ev.Time.After(test[0].Time) {
			t.Fatal("train events must precede test events")
		}
	}
	if tr, te := SplitEvents(events, 0); len(tr) != 0 || len(te) != 10 {
		t.Fatal("frac 0 must put everything in test")
	}
	if tr, te := SplitEvents(events, 1); len(tr) != 10 || len(te) != 0 {
		t.Fatal("frac 1 must put everything in train")
	}
	if tr, te := SplitEvents(nil, 0.5); tr != nil || te != nil {
		t.Fatal("empty input")
	}
}

func TestTrainRequiresEvents(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(nil); err == nil {
		t.Fatal("expected error for empty training data")
	}
}

func TestPredictRequiresTraining(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict([]logparse.Event{{Node: "n", Key: "x"}}); err == nil {
		t.Fatal("expected error for untrained pipeline")
	}
}

// generateParsed produces a scaled-down machine run and the parsed
// event stream.
func generateParsed(t testing.TB, profile logsim.Profile, nodes int, hours float64, failures int, seed int64) (*logsim.Run, []logparse.Event) {
	t.Helper()
	run, err := logsim.Generate(logsim.Config{
		Profile: profile, Nodes: nodes, Hours: hours, Failures: failures, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]logparse.Event, len(run.Events))
	for i, ge := range run.Events {
		ev, err := logparse.ParseLine(ge.Line())
		if err != nil {
			t.Fatal(err)
		}
		events[i] = ev
	}
	return run, events
}

// fastConfig keeps unit-test training cheap; the experiments package
// uses fuller settings.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Epochs1 = 1
	cfg.Epochs2 = 150
	return cfg
}

func TestEndToEndPipeline(t *testing.T) {
	run, events := generateParsed(t, logsim.Profiles()[0], 80, 168, 120, 31)
	train, test := SplitEvents(events, 0.3)
	p, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	report, err := p.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if report.FailureChains < 10 {
		t.Fatalf("only %d training chains", report.FailureChains)
	}
	if report.Vocab < 30 {
		t.Fatalf("vocab %d suspiciously small", report.Vocab)
	}
	if report.Phase1Accuracy < 0.5 {
		t.Fatalf("Phase-1 next-phrase accuracy %.2f, want >= 0.5", report.Phase1Accuracy)
	}
	// Phase-2 loss includes the ΔT augmentation-noise floor and the
	// deliberately unlearnable novel chains, so "small" here is ~0.5.
	if report.Phase2Loss > 1.0 {
		t.Fatalf("Phase-2 final MSE %.4f too high", report.Phase2Loss)
	}

	verdicts, err := p.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) < 50 {
		t.Fatalf("only %d candidate sequences in test data", len(verdicts))
	}
	conf, leads := Score(verdicts)
	t.Logf("confusion: %v", conf)
	t.Logf("leads: %v", metrics.SummarizeLeads(leads))
	if conf.TP+conf.FN < 30 {
		t.Fatalf("too few ground-truth failures in test: %d", conf.TP+conf.FN)
	}
	if conf.Recall() < 0.75 {
		t.Errorf("recall %.3f below 0.75", conf.Recall())
	}
	if conf.Accuracy() < 0.70 {
		t.Errorf("accuracy %.3f below 0.70", conf.Accuracy())
	}
	if conf.FPRate() > 0.40 {
		t.Errorf("FP rate %.3f above 0.40", conf.FPRate())
	}
	stats := metrics.SummarizeLeads(leads)
	if stats.Mean < 45 {
		t.Errorf("mean lead %.1fs below 45s", stats.Mean)
	}
	_ = run
}

func TestDetectShortChainNotFlagged(t *testing.T) {
	p, _ := trainedTinyPipeline(t)
	c := chain.Chain{Node: "n", Entries: []chain.Entry{{ID: 1, DeltaT: 0}}}
	v := p.NewDetector().Detect(c)
	if v.Flagged {
		t.Fatal("single-event chain must not be flagged")
	}
	if v.FlagIndex != -1 {
		t.Fatalf("FlagIndex %d", v.FlagIndex)
	}
}

// trainedTinyPipeline trains on a tiny generated run, cached per test.
func trainedTinyPipeline(t *testing.T) (*Pipeline, *TrainReport) {
	t.Helper()
	_, events := generateParsed(t, logsim.Profiles()[2], 30, 48, 30, 32)
	cfg := fastConfig()
	cfg.Epochs1 = 0 // phase 1 not needed here
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := p.Train(events)
	if err != nil {
		t.Fatal(err)
	}
	return p, report
}

func TestPhase1SkippedWhenEpochsZero(t *testing.T) {
	p, report := trainedTinyPipeline(t)
	if report.Phase1 != nil {
		t.Fatal("Phase 1 model must be nil when Epochs1 == 0")
	}
	if p.Phase2Model() == nil {
		t.Fatal("Phase 2 model must exist")
	}
	if len(p.TrainedChains()) == 0 {
		t.Fatal("no trained chains")
	}
}

func TestVectorizeNormalization(t *testing.T) {
	p, _ := trainedTinyPipeline(t)
	c := chain.Chain{
		Node: "n",
		Entries: []chain.Entry{
			{ID: 0, DeltaT: 120},
			{ID: 5, DeltaT: 60},
			{ID: 99999, DeltaT: 0}, // out-of-vocabulary id
		},
	}
	vecs := p.Vectorize(c)
	if math.Abs(vecs[0][0]-2.0) > 1e-12 {
		t.Fatalf("ΔT normalization: %v", vecs[0][0])
	}
	if vecs[2][0] != 0 {
		t.Fatalf("terminal ΔT: %v", vecs[2][0])
	}
	if vecs[0][1] != 0 || vecs[1][1] != 5 {
		t.Fatalf("phrase-id components must be raw ids: %v %v", vecs[0][1], vecs[1][1])
	}
	// OOV ids clamp into the last vocabulary bucket rather than leaking
	// arbitrarily large values into the regressor.
	vocab := float64(p.Encoder().Len())
	if vecs[2][1] >= vocab {
		t.Fatalf("OOV id not clamped: %v (vocab %v)", vecs[2][1], vocab)
	}
}

func TestScoreConfusionMapping(t *testing.T) {
	verdicts := []Verdict{
		{Flagged: true, LeadSeconds: 60, Chain: chain.Chain{Terminal: true}},  // TP
		{Flagged: true, Chain: chain.Chain{Terminal: false}},                  // FP
		{Flagged: false, Chain: chain.Chain{Terminal: true}},                  // FN
		{Flagged: false, Chain: chain.Chain{Terminal: false}},                 // TN
		{Flagged: true, LeadSeconds: 120, Chain: chain.Chain{Terminal: true}}, // TP
	}
	conf, leads := Score(verdicts)
	if conf.TP != 2 || conf.FP != 1 || conf.FN != 1 || conf.TN != 1 {
		t.Fatalf("%+v", conf)
	}
	if len(leads) != 2 || leads[0] != 60 || leads[1] != 120 {
		t.Fatalf("leads %v", leads)
	}
}

func TestClassOfMajorityVote(t *testing.T) {
	c := chain.Chain{Entries: []chain.Entry{
		{Key: "CPU *: Machine Check Exception:"},
		{Key: "[Hardware Error]: Run the above through mcelog --ascii *"},
		{Key: "DVS: Verify Filesystem *"},
		{Key: "Kernel panic - not syncing: Fatal Machine check *"},
	}}
	if got := ClassOf(c); got != catalog.ClassMCE {
		t.Fatalf("ClassOf=%v, want MCE", got)
	}
}

func TestClassOfEmptyChain(t *testing.T) {
	if got := ClassOf(chain.Chain{}); got != catalog.ClassNone {
		t.Fatalf("ClassOf empty = %v", got)
	}
}

// Chains extracted from generated logs must classify to their
// ground-truth class in the overwhelming majority of cases.
func TestClassOfAgreesWithGroundTruth(t *testing.T) {
	run, events := generateParsed(t, logsim.Profiles()[1], 60, 96, 60, 33)
	var enc logparse.Encoder
	byNode := logparse.ByNode(logparse.EncodeEvents(&enc, events))
	p, _ := New(DefaultConfig())
	failures, _, err := chain.ExtractAll(byNode, p.lab, p.cfg.ChainCfg)
	if err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	for _, f := range failures {
		for _, gt := range run.Failures {
			if f.Node == gt.Node && absDur(f.FailTime.Sub(gt.FailTime)) < time.Second {
				total++
				if ClassOf(f) == gt.Class {
					agree++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no matched chains")
	}
	if agree < total*85/100 {
		t.Fatalf("class inference agrees on %d/%d chains", agree, total)
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// pickProfile returns the i-th machine profile for persistence tests.
func pickProfile(i int) logsim.Profile { return logsim.Profiles()[i] }
