// Drift tracking for the continuous-learning loop.
//
// The streamer exports raw drift counters (unseen phrases, verdict MSE
// and lead-time-error sums); Drift folds their per-tick deltas into
// EWMA rates and compares them against references to produce a single
// dimensionless score. A score of 1.0 on any component means "as bad
// as the configured reference"; the manager triggers retraining when
// the score crosses its threshold.
package adapt

import "math"

// driftConfig holds the drift score's references. Zero fields take the
// defaults below; only tests set them.
type driftConfig struct {
	// alpha is the EWMA smoothing factor applied to each per-tick rate
	// (0 < alpha <= 1; higher reacts faster). Default 0.2.
	alpha float64
	// refUnseenRate is the unseen-phrase rate (unseen events / ingested
	// events per tick) that scores 1.0 on the vocabulary component.
	// Default 0.02 — 2% of traffic hitting phrases the model never saw.
	refUnseenRate float64
	// refInflation is the multiple of the learned baseline at which the
	// verdict-MSE and lead-error components score 1.0. Default 2.0 —
	// the smoothed error doubling counts as full drift.
	refInflation float64
	// baselineTicks is how many ticks with verdict traffic are averaged
	// into the error baselines before those components start scoring.
	// Default 10.
	baselineTicks int
}

func (c *driftConfig) setDefaults() {
	if c.alpha <= 0 || c.alpha > 1 {
		c.alpha = 0.2
	}
	if c.refUnseenRate <= 0 {
		c.refUnseenRate = 0.02
	}
	if c.refInflation <= 1 {
		c.refInflation = 2.0
	}
	if c.baselineTicks <= 0 {
		c.baselineTicks = 10
	}
}

// Drift accumulates per-tick metric deltas into a drift score. It is
// not goroutine-safe; the manager goroutine owns it.
type Drift struct {
	cfg driftConfig

	// EWMA state. haveX gates the first observation (seed, don't blend).
	unseenRate float64
	haveUnseen bool
	mse        float64
	haveMSE    bool
	leadErr    float64
	haveLead   bool

	// Error baselines, learned from the first baselineTicks ticks that
	// carried verdicts, then frozen.
	baseTicks   int
	baseMSESum  float64
	baseLeadSum float64
	baseMSE     float64
	baseLead    float64
	baseFrozen  bool
}

// newDrift returns a tracker with zeroed state and defaulted config.
func newDrift(cfg driftConfig) *Drift {
	cfg.setDefaults()
	return &Drift{cfg: cfg}
}

// Tick folds one interval's metric deltas: events ingested, unseen
// phrases among them, verdicts issued, the summed verdict MSE, and the
// count/sum of absolute lead-time errors on flagged verdicts.
func (d *Drift) Tick(events, unseen, verdicts int64, mseSum float64, leadCount int64, leadSum float64) {
	if events > 0 {
		d.ewma(&d.unseenRate, &d.haveUnseen, float64(unseen)/float64(events))
	}
	if verdicts > 0 {
		mse := mseSum / float64(verdicts)
		var lead float64
		if leadCount > 0 {
			lead = leadSum / float64(leadCount)
		}
		if !d.baseFrozen {
			d.baseTicks++
			d.baseMSESum += mse
			d.baseLeadSum += lead
			if d.baseTicks >= d.cfg.baselineTicks {
				d.baseMSE = d.baseMSESum / float64(d.baseTicks)
				d.baseLead = d.baseLeadSum / float64(d.baseTicks)
				d.baseFrozen = true
			}
			return // still learning what "normal" looks like
		}
		d.ewma(&d.mse, &d.haveMSE, mse)
		if leadCount > 0 {
			d.ewma(&d.leadErr, &d.haveLead, lead)
		}
	}
}

func (d *Drift) ewma(v *float64, have *bool, x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	if !*have {
		*v, *have = x, true
		return
	}
	*v = d.cfg.alpha*x + (1-d.cfg.alpha)**v
}

// Score returns the current drift score: the worst of the component
// ratios, each normalized so 1.0 means "at the configured reference".
// Components without enough history contribute 0.
func (d *Drift) Score() float64 {
	var s float64
	if d.haveUnseen {
		s = math.Max(s, d.unseenRate/d.cfg.refUnseenRate)
	}
	if d.baseFrozen {
		if d.haveMSE && d.baseMSE > 0 {
			s = math.Max(s, d.mse/(d.baseMSE*d.cfg.refInflation))
		}
		if d.haveLead && d.baseLead > 0 {
			s = math.Max(s, d.leadErr/(d.baseLead*d.cfg.refInflation))
		}
	}
	return s
}

// Reset clears all state — called after a successful model swap so the
// score restarts against the new model's behavior.
func (d *Drift) Reset() {
	cfg := d.cfg
	*d = Drift{cfg: cfg}
}
