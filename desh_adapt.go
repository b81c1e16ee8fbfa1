package desh

import (
	"desh/internal/adapt"
)

// Learner is the continuous-learning manager: it watches a Streamer's
// drift signals, retrains candidate models in the background from the
// crash-recovery WAL, shadow-scores them against live traffic, and
// hot-swaps winners in without dropping an event. LearnerConfig's
// fields are the deshd flags -state-dir, -retrain-every,
// -drift-threshold, -shadow-window and -swap-policy; everything else
// (sampling tick, retrain gap, 24 h training window, shadow gates) is
// fixed.
type Learner = adapt.Manager

// LearnerConfig tunes a Learner: StateDir, the two triggers
// (RetrainEvery, DriftThreshold), ShadowWindow, Policy and Diag. The
// zero value plus StateDir and at least one armed trigger is a working
// configuration.
type LearnerConfig = adapt.Config

// SwapPolicy selects what happens after a candidate model trains:
// shadow-gate then swap (auto), evaluate only (shadow), or swap
// without evaluation (immediate).
type SwapPolicy = adapt.Policy

const (
	SwapPolicyAuto      = adapt.PolicyAuto
	SwapPolicyShadow    = adapt.PolicyShadow
	SwapPolicyImmediate = adapt.PolicyImmediate
)

// ParseSwapPolicy maps "auto", "shadow" or "immediate" to a SwapPolicy.
func ParseSwapPolicy(s string) (SwapPolicy, error) { return adapt.ParsePolicy(s) }

// NewLearner starts continuous learning for s, which must have been
// built from p with a state directory (the WAL is the training
// corpus). Close the Learner before closing the Streamer.
func NewLearner(s *Streamer, p *Predictor, cfg LearnerConfig) (*Learner, error) {
	return adapt.New(s, p.Pipeline(), cfg)
}
