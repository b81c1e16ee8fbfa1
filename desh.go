// Package desh is a Go reproduction of "Desh: Deep Learning for System
// Health Prediction of Lead Times to Failure in HPC" (Das, Mueller,
// Siegel, Vishnu — HPDC 2018).
//
// Desh predicts node failures in HPC clusters from unstructured system
// logs, with per-node lead times, using a three-phase stacked-LSTM
// pipeline: (1) train to recognize chains of log events leading to a
// failure, (2) re-train chain recognition augmented with expected lead
// times to failure, and (3) predict lead times at inference to report
// which specific node fails in how many minutes.
//
// The package is a facade over the internal substrates (pure-Go LSTM
// with backprop-through-time, skip-gram embeddings, Cray-style log
// parsing, failure-chain formation and a synthetic log generator for
// the paper's four machines):
//
//	p, _ := desh.NewPredictor(desh.DefaultConfig())
//	_ = p.TrainFromReader(trainLog)
//	preds, _ := p.PredictFromReader(testLog)
//	for _, pr := range preds {
//	    fmt.Printf("in %.1f minutes, node %s located in %s is expected to fail\n",
//	        pr.LeadSeconds/60, pr.Node, pr.Location)
//	}
package desh

import (
	"fmt"
	"io"
	"strings"
	"time"

	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/logsim"
	"desh/internal/metrics"
)

// Config is the pipeline configuration; defaults mirror Table 5 of the
// paper. See internal/core for field documentation.
type Config = core.Config

// DefaultConfig returns the paper's Table-5 settings.
func DefaultConfig() Config { return core.DefaultConfig() }

// Prediction is one impending-failure warning: the §4.5 "In 2.5
// minutes, node X located in Y is expected to fail" message, as data.
type Prediction struct {
	// Node is the Cray node id (cA-BcCsSnN).
	Node string
	// Location spells out cabinet/chassis/blade/node decoded from the id.
	Location string
	// LeadSeconds is the predicted time remaining until the failure.
	LeadSeconds float64
	// FlaggedAt is the timestamp of the log event at which the failure
	// was flagged.
	FlaggedAt time.Time
}

// String renders the paper's warning sentence.
func (p Prediction) String() string {
	return fmt.Sprintf("in %.1f minutes, node %s located in %s is expected to fail",
		p.LeadSeconds/60, p.Node, p.Location)
}

// Predictor is a trainable Desh instance operating on raw log text.
type Predictor struct {
	pipeline *core.Pipeline
}

// NewPredictor builds an untrained predictor.
func NewPredictor(cfg Config) (*Predictor, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Predictor{pipeline: p}, nil
}

// Pipeline exposes the underlying serving model for advanced use
// (labeler overrides, trained-chain inspection, the Phase-2 regressor).
// The Phase-1 classifier is not part of it; training reports it in
// TrainReport.Phase1.
func (p *Predictor) Pipeline() *core.Pipeline { return p.pipeline }

// TrainFromReader parses raw log lines and runs training Phases 1 and 2.
func (p *Predictor) TrainFromReader(r io.Reader) (*core.TrainReport, error) {
	events, err := logparse.ParseReader(r)
	if err != nil {
		return nil, err
	}
	return p.pipeline.Train(events)
}

// TrainLines is TrainFromReader over an in-memory line slice.
func (p *Predictor) TrainLines(lines []string) (*core.TrainReport, error) {
	return p.TrainFromReader(strings.NewReader(strings.Join(lines, "\n")))
}

// PredictFromReader runs Phase-3 inference over raw test log lines and
// returns a warning for every flagged node failure.
func (p *Predictor) PredictFromReader(r io.Reader) ([]Prediction, error) {
	events, err := logparse.ParseReader(r)
	if err != nil {
		return nil, err
	}
	verdicts, err := p.pipeline.Predict(events)
	if err != nil {
		return nil, err
	}
	var preds []Prediction
	for _, v := range verdicts {
		if !v.Flagged {
			continue
		}
		loc, err := logsim.Location(v.Node)
		if err != nil {
			loc = "unknown location"
		}
		preds = append(preds, Prediction{
			Node:        v.Node,
			Location:    loc,
			LeadSeconds: v.LeadSeconds,
			FlaggedAt:   v.AnchorTime,
		})
	}
	return preds, nil
}

// PredictLines is PredictFromReader over an in-memory line slice.
func (p *Predictor) PredictLines(lines []string) ([]Prediction, error) {
	return p.PredictFromReader(strings.NewReader(strings.Join(lines, "\n")))
}

// EvaluateLines runs Phase 3 and scores the verdicts against the
// ground-truth terminal messages contained in the lines themselves,
// returning the Table-6 confusion matrix and the true-positive lead
// times in seconds.
func (p *Predictor) EvaluateLines(lines []string) (metrics.Confusion, []float64, error) {
	return p.EvaluateFromReader(strings.NewReader(strings.Join(lines, "\n")))
}

// EvaluateFromReader is EvaluateLines over raw log text from r.
func (p *Predictor) EvaluateFromReader(r io.Reader) (metrics.Confusion, []float64, error) {
	events, err := logparse.ParseReader(r)
	if err != nil {
		return metrics.Confusion{}, nil, err
	}
	verdicts, err := p.pipeline.Predict(events)
	if err != nil {
		return metrics.Confusion{}, nil, err
	}
	conf, leads := core.Score(verdicts)
	return conf, leads, nil
}

// Save serializes a trained predictor for later reuse.
func (p *Predictor) Save(w io.Writer) error { return p.pipeline.Save(w) }

// LoadPredictor restores a predictor previously written by Save.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	pipeline, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &Predictor{pipeline: pipeline}, nil
}

// Machines returns the paper's four machine profiles (Table 1).
func Machines() []logsim.Profile { return logsim.Profiles() }

// SyntheticLogOptions scales a generated dataset.
type SyntheticLogOptions struct {
	Machine  string // M1..M4
	Nodes    int
	Hours    float64
	Failures int
	Seed     int64
}

// GenerateSyntheticLog builds a synthetic Cray-style log run for one of
// the paper's machine profiles — the substitute for the proprietary
// Table-1 datasets. It returns the run (with ground truth) whose Lines
// method yields raw log text.
func GenerateSyntheticLog(opts SyntheticLogOptions) (*logsim.Run, error) {
	profile, ok := logsim.ProfileByName(opts.Machine)
	if !ok {
		return nil, fmt.Errorf("desh: unknown machine %q (want M1..M4)", opts.Machine)
	}
	return logsim.Generate(logsim.Config{
		Profile:  profile,
		Nodes:    opts.Nodes,
		Hours:    opts.Hours,
		Failures: opts.Failures,
		Seed:     opts.Seed,
	})
}

// SplitLines divides time-ordered log lines into a training prefix
// covering frac of the time span and a test remainder (the paper uses
// 30% / 70%).
func SplitLines(lines []string, frac float64) (train, test []string, err error) {
	events, err := logparse.ParseReader(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		return nil, nil, err
	}
	trainEvents, _ := core.SplitEvents(events, frac)
	return lines[:len(trainEvents)], lines[len(trainEvents):], nil
}
