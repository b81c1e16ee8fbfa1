// Package core implements Desh's three-phase deep-learning pipeline
// (§3, Figure 2):
//
//	Phase 1 — train a stacked LSTM on skip-gram-embedded phrase-id
//	sequences, concatenated node after node, to recognize chains of log
//	events (3-step next-phrase prediction, SGD + categorical
//	cross-entropy, history 8).
//	Phase 2 — re-train on failure chains augmented with cumulative ΔT
//	times relative to the terminal phrase (2-state vectors, MSE +
//	RMSprop, history 5, 1-step prediction).
//	Phase 3 — per-node inference on disjoint test data: the trained
//	Phase-2 LSTM predicts each next (ΔT, phrase) sample; sustained
//	agreement (MSE at or below the 0.5 threshold) flags an impending
//	node failure, and the ΔT at the flagging point is the predicted
//	lead time.
package core

import (
	"fmt"

	"desh/internal/chain"
)

// Config carries every tunable of the three phases. Defaults mirror
// Table 5 of the paper.
type Config struct {
	// Phase 1: phrase-sequence model.
	EmbedDim int // skip-gram embedding width
	Hidden1  int // LSTM hidden units per layer
	Layers1  int // hidden layers (paper: 2)
	History1 int // context window (paper: 8)
	Steps1   int // prediction steps (paper: 3)
	Epochs1  int // training passes; 0 skips Phase 1 entirely
	LR1      float64

	// Phase 2: ΔT regression model.
	Hidden2  int // LSTM hidden units per layer
	Layers2  int // hidden layers (paper: 2)
	History2 int // context window (paper: 5)
	Epochs2  int
	LR2      float64

	// Phase 3: inference.
	// MSEThreshold is the match threshold on normalized 2-state vectors
	// (paper: 0.5).
	MSEThreshold float64
	// MinMatches is how many consecutive next-sample agreements are
	// required before a failure is flagged. Lower values flag earlier
	// (longer lead times, more false positives) — the Figure-8 knob.
	MinMatches int

	// Batch is the Phase-1 mini-batch size: that many training windows
	// are packed into one batched forward/backward pass and one SGD step,
	// with the summed gradients averaged and the learning rate rescaled
	// by the realized batch so total weight movement matches the
	// one-window-per-step schedule (clipped-SGD tolerates this rescaling
	// well). 1 is a one-row batch, bit-identical to stepping per window;
	// 0 is treated as 1. Phase 2 has no counterpart: it steps once per
	// sequence (see trainPhase2).
	Batch int

	// Chain formation.
	ChainCfg chain.Config

	Seed int64
}

// DefaultConfig returns the Table-5 configuration with training knobs
// sized for the synthetic logs.
func DefaultConfig() Config {
	return Config{
		EmbedDim: 16,
		Hidden1:  32,
		Layers1:  2,
		History1: 8,
		Steps1:   3,
		Epochs1:  2,
		LR1:      0.2,

		Hidden2:  32,
		Layers2:  2,
		History2: 5,
		Epochs2:  150,
		LR2:      0.02,

		MSEThreshold: 0.5,
		MinMatches:   2,

		Batch: 8,

		ChainCfg: chain.DefaultConfig(),
		Seed:     1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.EmbedDim <= 0 || c.Hidden1 <= 0 || c.Layers1 <= 0 {
		return fmt.Errorf("core: invalid Phase-1 sizes emb=%d hidden=%d layers=%d", c.EmbedDim, c.Hidden1, c.Layers1)
	}
	if c.History1 < 1 || c.Steps1 < 1 {
		return fmt.Errorf("core: invalid Phase-1 window history=%d steps=%d", c.History1, c.Steps1)
	}
	if c.Epochs1 < 0 || c.LR1 <= 0 {
		return fmt.Errorf("core: invalid Phase-1 training epochs=%d lr=%v", c.Epochs1, c.LR1)
	}
	if c.Hidden2 <= 0 || c.Layers2 <= 0 || c.History2 < 1 {
		return fmt.Errorf("core: invalid Phase-2 sizes hidden=%d layers=%d history=%d", c.Hidden2, c.Layers2, c.History2)
	}
	if c.Epochs2 <= 0 || c.LR2 <= 0 {
		return fmt.Errorf("core: invalid Phase-2 training epochs=%d lr=%v", c.Epochs2, c.LR2)
	}
	if c.Batch < 0 {
		return fmt.Errorf("core: Batch must be non-negative, got %d", c.Batch)
	}
	if c.MSEThreshold <= 0 {
		return fmt.Errorf("core: MSEThreshold must be positive, got %v", c.MSEThreshold)
	}
	if c.MinMatches < 1 {
		return fmt.Errorf("core: MinMatches must be at least 1, got %d", c.MinMatches)
	}
	return c.ChainCfg.Validate()
}
