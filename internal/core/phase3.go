package core

import (
	"fmt"
	"sort"
	"time"

	"desh/internal/catalog"
	"desh/internal/chain"
	"desh/internal/logparse"
	"desh/internal/metrics"
	"desh/internal/nn"
	"desh/internal/par"
)

// Verdict is Phase 3's judgement of one candidate sequence on one node.
type Verdict struct {
	Node       string
	AnchorTime time.Time // time of the sequence's last event
	// Flagged reports whether Desh predicts an impending node failure.
	Flagged bool
	// FlagIndex is the observation index at which the failure was
	// flagged (-1 when not flagged).
	FlagIndex int
	// LeadSeconds is the predicted lead time: the ΔT of the observation
	// at the flagging point (paper §3.3: "if a failure is flagged after
	// checking P3 we get 2.5 minutes lead time").
	LeadSeconds float64
	// PredLeadSeconds is the model-predicted ΔT (seconds until the
	// terminal event) of the observation matched at the flagging point.
	// Unlike LeadSeconds it does not require knowing the chain's anchor,
	// so it is the lead time the streaming early-detect path reports for
	// chains that are still open.
	PredLeadSeconds float64
	// MinMSE is the smallest next-sample MSE observed over the sequence.
	MinMSE float64
	// Chain is the underlying candidate sequence; Chain.Terminal is the
	// ground-truth label (the sequence really ended in a node failure).
	Chain chain.Chain
}

// Predict runs Phase-3 inference over parsed test events: per-node
// episode segmentation, ΔT vectorization, and streaming next-sample
// matching against the Phase-2 model. Candidate sequences are scored
// concurrently on a bounded worker pool (one LSTM stream per worker);
// verdicts are written by index, so the result is byte-identical to the
// serial path regardless of scheduling.
func (p *Pipeline) Predict(events []logparse.Event) ([]Verdict, error) {
	all, err := p.candidateChains(events)
	if err != nil {
		return nil, err
	}
	pool := par.NewPool(0)
	defer pool.Close()
	return p.detectAll(all, pool), nil
}

// candidateChains extracts and deterministically orders every candidate
// sequence in the test events.
func (p *Pipeline) candidateChains(events []logparse.Event) ([]chain.Chain, error) {
	if p.phase2 == nil {
		return nil, fmt.Errorf("core: pipeline is not trained")
	}
	encoded := logparse.EncodeEvents(p.enc, events)
	byNode := logparse.ByNode(encoded)
	failures, candidates, err := chain.ExtractAll(byNode, p.lab, p.cfg.ChainCfg)
	if err != nil {
		return nil, err
	}
	// Build a fresh slice rather than append(failures, ...): appending
	// could reuse failures' backing array, and sorting an alias of
	// ExtractAll's result while workers read chains is a data hazard.
	all := make([]chain.Chain, 0, len(failures)+len(candidates))
	all = append(all, failures...)
	all = append(all, candidates...)
	sort.Slice(all, func(i, j int) bool {
		if !all[i].FailTime.Equal(all[j].FailTime) {
			return all[i].FailTime.Before(all[j].FailTime)
		}
		return all[i].Node < all[j].Node
	})
	return all, nil
}

// detectAll scores every chain, fanning out over the given worker pool
// (nil runs serially on one Detector). Each worker owns one Detector
// (stream + scratch); the verdict for chain i always lands in slot i.
func (p *Pipeline) detectAll(all []chain.Chain, pool *par.Pool) []Verdict {
	verdicts := make([]Verdict, len(all))
	if pool == nil {
		d := p.NewDetector()
		for i, c := range all {
			verdicts[i] = d.Detect(c)
		}
		return verdicts
	}
	workers := pool.Workers()
	if workers > len(all) {
		workers = len(all)
	}
	if workers < 1 {
		workers = 1
	}
	detectors := make([]*Detector, workers)
	pool.ForWorker(len(all), func(w, i int) {
		if detectors[w] == nil {
			detectors[w] = p.NewDetector()
		}
		verdicts[i] = detectors[w].Detect(all[i])
	})
	return verdicts
}

// Detector is a reusable Phase-3 scoring context: one Phase-2 serving
// cursor plus vectorization scratch. Detectors are the unit of
// parallelism — each worker in Predict or the Figure-8 sweep owns one,
// and a Detector must not be shared between goroutines. All scratch is
// grow-only, so Detect, DetectWith and DetectBatch allocate nothing in
// steady state.
type Detector struct {
	p     *Pipeline
	batch *nn.StreamBatch

	// Vectorization scratch (vectorize): the 2-state vectors of the
	// chain being scored, two floats per entry, in Pipeline.Vectorize's
	// raw view and VectorizeInput's LSTM-facing view.
	raw, in []float64

	// One-slot batch that Detect and DetectWith score through.
	one  [1]chain.Chain
	oneV [1]Verdict

	// Float32 serving mode (precision.go), read only by predict. When
	// prec is PrecisionF32, batch is nil and each chain steps stream32
	// over f32, the trained model converted once per model.
	prec     Precision
	f32      *nn.Forward32
	stream32 *nn.Stream32
	in32     []float32
	pred     []float64
}

// vectorize fills the detector's scratch with c's vectors: per entry,
// exactly the values Pipeline.Vectorize (raw) and
// Pipeline.VectorizeInput (in) compute, without their slice per vector.
func (d *Detector) vectorize(c chain.Chain) {
	d.raw, d.in = d.raw[:0], d.in[:0]
	vocab := d.p.vocab()
	for _, e := range c.Entries {
		minutes, id := stateVector(e, vocab)
		d.raw = append(d.raw, minutes, id)
		d.in = append(d.in, minutes, id/float64(vocab))
	}
}

// vec returns vector i of a vectorize arena.
func vec(arena []float64, i int) []float64 { return arena[2*i : 2*i+2] }

// NewDetector builds a scoring context for the trained Phase-2 model.
// It panics if the pipeline is untrained.
func (p *Pipeline) NewDetector() *Detector {
	if p.phase2 == nil {
		panic("core: NewDetector on untrained pipeline")
	}
	return &Detector{p: p, batch: p.phase2.NewStreamBatch()}
}

// Detect scores one candidate sequence. The Phase-2 LSTM streams over
// the observed 2-state vectors predicting each next sample; when the
// prediction matches the observation (MSE <= MSEThreshold) for
// MinMatches consecutive transitions, the sequence is flagged as an
// impending failure at that point.
func (d *Detector) Detect(c chain.Chain) Verdict {
	return d.DetectWith(c, d.p.cfg.MSEThreshold, d.p.cfg.MinMatches)
}

// DetectWith scores one candidate sequence with explicit threshold and
// match-count settings — the Figure-8 sensitivity knob: looser settings
// flag earlier (longer lead times) at the cost of more false positives.
// It is a batch of one, through the detector's own slot.
func (d *Detector) DetectWith(c chain.Chain, threshold float64, minMatches int) Verdict {
	d.one[0] = c
	d.score(d.one[:], d.oneV[:], threshold, minMatches)
	return d.oneV[0]
}

// Score folds verdicts into the Table-6 confusion matrix using the
// ground-truth labels carried on each chain, and collects the predicted
// lead times of the true positives.
func Score(verdicts []Verdict) (metrics.Confusion, []float64) {
	var conf metrics.Confusion
	var leads []float64
	for _, v := range verdicts {
		truth := v.Chain.Terminal
		switch {
		case v.Flagged && truth:
			conf.TP++
			leads = append(leads, v.LeadSeconds)
		case v.Flagged && !truth:
			conf.FP++
		case !v.Flagged && truth:
			conf.FN++
		default:
			conf.TN++
		}
	}
	return conf, leads
}

// ClassOf infers the failure class of a chain by majority vote over its
// phrases' catalog class associations — how the evaluation groups node
// failures into the Table-7 classes without consulting ground truth.
func ClassOf(c chain.Chain) catalog.Class {
	counts := map[catalog.Class]int{}
	for _, e := range c.Entries {
		if p, ok := catalog.Lookup(e.Key); ok && p.Class != catalog.ClassNone {
			counts[p.Class]++
		}
	}
	best, bestN := catalog.ClassNone, 0
	for _, cl := range catalog.Classes {
		if counts[cl] > bestN {
			best, bestN = cl, counts[cl]
		}
	}
	return best
}
