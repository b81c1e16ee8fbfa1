package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"desh/internal/chain"
	"desh/internal/embed"
	"desh/internal/label"
	"desh/internal/logparse"
	"desh/internal/nn"
	"desh/internal/opt"
	"desh/internal/par"
)

// Pipeline is a trained (or trainable) Desh instance. It holds the
// serving model, which is exactly what Save writes.
type Pipeline struct {
	cfg Config
	lab *label.Labeler
	enc *logparse.Encoder

	phase2     *nn.SeqRegressor
	trainVocab int // vocabulary size frozen at training time

	trainedChains []chain.Chain

	// trainPool, when set, carries Train's data-parallel stages instead
	// of a private full-width pool — how background retraining runs at
	// reduced priority next to a serving streamer.
	trainPool *par.Pool

	// Float32 serving-model cache (precision.go). f32of records which
	// phase2 the cached conversion came from, so a retrain that installs
	// a new model invalidates it by pointer inequality.
	f32mu    sync.Mutex
	f32model *nn.Forward32
	f32of    *nn.SeqRegressor
}

// New returns an untrained pipeline.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{
		cfg: cfg,
		lab: label.New(),
		enc: &logparse.Encoder{},
	}, nil
}

// NewSeeded returns an untrained pipeline whose phrase encoder is
// pre-populated with keys in order. A candidate model retrained from a
// live streamer's vocabulary must assign the same id to every phrase
// the active model knows — seeding the encoder is what makes the two
// models' id spaces line up for shadow scoring and hot swap.
func NewSeeded(cfg Config, keys []string) (*Pipeline, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	p.enc = logparse.NewEncoderFromKeys(keys)
	return p, nil
}

// SetTrainPool directs Train's parallel stages onto pool instead of a
// private GOMAXPROCS-wide one. The pipeline does not close an injected
// pool. Pass nil to restore the default.
func (p *Pipeline) SetTrainPool(pool *par.Pool) { p.trainPool = pool }

// Config returns the pipeline configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Labeler exposes the phrase labeler for deployment-specific overrides.
func (p *Pipeline) Labeler() *label.Labeler { return p.lab }

// Encoder exposes the phrase-id encoder.
func (p *Pipeline) Encoder() *logparse.Encoder { return p.enc }

// TrainedChains returns the failure chains learned during Phase 2.
func (p *Pipeline) TrainedChains() []chain.Chain { return p.trainedChains }

// Phase2Model returns the trained ΔT regressor.
func (p *Pipeline) Phase2Model() *nn.SeqRegressor { return p.phase2 }

// TrainVocab returns the vocabulary size frozen at training time
// (0 before training). Phrase ids at or beyond it are phrases the
// model has never seen — the streamer's unseen-phrase drift signal.
func (p *Pipeline) TrainVocab() int { return p.trainVocab }

// Fingerprint returns a stable hash of the trained Phase-2 weights
// (0 when untrained) — enough to tell two models apart without
// comparing every matrix, used by swap tests and diagnostics.
func (p *Pipeline) Fingerprint() uint64 {
	if p.phase2 == nil {
		return 0
	}
	return nn.WeightsFingerprint(p.phase2.Params())
}

// TrainReport summarizes a Train run.
type TrainReport struct {
	Events        int
	Vocab         int
	Nodes         int
	FailureChains int
	// Phase1 is the trained next-phrase classifier, nil when Phase 1 is
	// skipped. It is a training-time study (Table 5, Figure 10): no
	// serving path reads it, and Save does not write it.
	Phase1 *nn.SeqClassifier
	// Phase1Loss is the mean cross-entropy of the final Phase-1 epoch
	// (0 when Phase 1 is skipped).
	Phase1Loss float64
	// Phase1Accuracy is the teacher-forced next-phrase accuracy on the
	// training stream after training.
	Phase1Accuracy float64
	// Phase2Loss is the mean MSE of the final Phase-2 epoch.
	Phase2Loss float64
}

// Train runs Phases 1 and 2 over parsed training events (the 30% split
// in the paper's evaluation). Phase 1 runs only when Epochs1 > 0, and
// its classifier goes to the report, not into the pipeline.
func (p *Pipeline) Train(events []logparse.Event) (*TrainReport, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("core: no training events")
	}
	rng := rand.New(rand.NewSource(p.cfg.Seed))
	encoded := logparse.EncodeEvents(p.enc, events)
	byNode := logparse.ByNode(encoded)
	report := &TrainReport{Events: len(events), Nodes: len(byNode)}

	// Deterministic node order for training-sequence concatenation.
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	// Per-node phrase-id sequences (time order is preserved from input).
	seqs := make([][]int, 0, len(nodes))
	for _, n := range nodes {
		evs := byNode[n]
		seq := make([]int, len(evs))
		for i, ev := range evs {
			seq[i] = ev.ID
		}
		seqs = append(seqs, seq)
	}
	p.trainVocab = p.enc.Len()
	report.Vocab = p.trainVocab

	// One worker pool serves every parallel training stage — skip-gram
	// batches and the Phase-1 shard fan-out — instead of each call-site
	// spawning its own goroutines.
	pool := p.trainPool
	if pool == nil {
		pool = par.NewPool(0)
		defer pool.Close()
	}

	// Phase 1: skip-gram embeddings over the phrase sequences (§3.1),
	// then stacked-LSTM next-phrase training on top of them. Phase 1
	// draws from the same rng as Phase 2, so skipping it changes the
	// Phase-2 weights.
	if p.cfg.Epochs1 > 0 {
		embCfg := embed.DefaultConfig(p.cfg.EmbedDim)
		embCfg.Seed = p.cfg.Seed
		embCfg.Pool = pool
		emb := embed.Train(seqs, p.trainVocab, embCfg)
		report.Phase1 = nn.NewSeqClassifier(p.trainVocab, p.cfg.EmbedDim, p.cfg.Hidden1, p.cfg.Layers1, rng)
		report.Phase1.SetEmbeddings(emb.In)
		report.Phase1Loss, report.Phase1Accuracy = p.trainPhase1(report.Phase1, seqs, rng, pool)
	}

	// Chain formation: drop Safe phrases, segment episodes, keep
	// terminal-anchored chains with their ΔTs (§3.1 "trained failure
	// chains").
	failures, _, err := chain.ExtractAll(byNode, p.lab, p.cfg.ChainCfg)
	if err != nil {
		return nil, err
	}
	sort.Slice(failures, func(i, j int) bool {
		if !failures[i].FailTime.Equal(failures[j].FailTime) {
			return failures[i].FailTime.Before(failures[j].FailTime)
		}
		return failures[i].Node < failures[j].Node
	})
	p.trainedChains = failures
	report.FailureChains = len(failures)
	if len(failures) == 0 {
		return report, fmt.Errorf("core: no failure chains found in training data")
	}

	// Phase 2: ΔT regression over the failure chains. The output bias
	// starts at the target means so the first updates fight chain
	// structure rather than the scale of the targets.
	p.phase2 = nn.NewSeqRegressorIO(2, 2, p.cfg.Hidden2, p.cfg.Layers2, rng)
	var meanDT, meanID, n float64
	for _, c := range failures {
		for _, v := range p.vectorizeTargets(c) {
			meanDT += v[0]
			meanID += v[1]
			n++
		}
	}
	if n > 0 {
		p.phase2.Out.B.Value.Data[0] = meanDT / n
		p.phase2.Out.B.Value.Data[1] = meanID / n
	}
	report.Phase2Loss = p.trainPhase2(failures, rng)
	return report, nil
}

// trainPhase1 runs the Table-5 Phase-1 regime: sliding windows of
// History1 phrases predicting the next Steps1 phrases, SGD with
// categorical cross-entropy. Returns final-epoch loss and the
// teacher-forced next-phrase accuracy.
func (p *Pipeline) trainPhase1(model *nn.SeqClassifier, seqs [][]int, rng *rand.Rand, pool *par.Pool) (finalLoss, accuracy float64) {
	sgd := opt.NewSGD(p.cfg.LR1)
	params := model.Params()
	window := p.cfg.History1 + p.cfg.Steps1
	var wins [][]int
	for _, seq := range seqs {
		for off := 0; off+window <= len(seq); off += p.cfg.Steps1 {
			wins = append(wins, seq[off:off+window])
		}
	}
	if len(wins) == 0 {
		return 0, 0
	}
	trainer := nn.NewClassifierTrainer(model, max(p.cfg.Batch, 1), pool)
	// The mini-batch step consumes the mean gradient, so the learning
	// rate scales linearly with the realized batch size (Goyal et al.
	// 2017): LR·B times the mean reproduces the serial sum of per-window
	// displacements, and the clip bound on the mean keeps the same
	// worst-case step as B serial clipped updates.
	step := func(n int) {
		sgd.BatchSize = n
		sgd.LR = p.cfg.LR1 * float64(n)
		sgd.Step(params)
	}
	for epoch := 0; epoch < p.cfg.Epochs1; epoch++ {
		finalLoss = trainer.Epoch(wins, p.cfg.History1, p.cfg.Steps1, rng, step)
	}
	// Accuracy: 1-step greedy prediction over a sample of windows, via a
	// reused Predictor so the sweep allocates nothing per window.
	correct, checked := 0, 0
	predictor := model.NewPredictor()
	for i, w := range wins {
		if i%7 != 0 { // sample to bound cost
			continue
		}
		pred := predictor.Predict(w[:p.cfg.History1], 1)
		if pred[0] == w[p.cfg.History1] {
			correct++
		}
		checked++
	}
	if checked > 0 {
		accuracy = float64(correct) / float64(checked)
	}
	return finalLoss, accuracy
}

// trainPhase2 trains the regressor on failure-chain vector sequences
// with RMSprop + MSE, 1-step prediction. Training is teacher-forced over
// each whole chain — after reading the chain's first t vectors the model
// predicts vector t+1 — which mirrors the streaming Phase-3 detector
// exactly. Inputs are the normalized vectors, targets the scaled ones
// (see the Vectorize variants below). Returns the mean target-space MSE
// of the last epoch.
func (p *Pipeline) trainPhase2(chains []chain.Chain, rng *rand.Rand) float64 {
	rms := opt.NewRMSprop(p.cfg.LR2)
	params := p.phase2.Params()
	type sample struct{ inputs, targets [][]float64 }
	var samples []sample
	for _, c := range chains {
		inputs := p.VectorizeInput(c)
		targets := p.vectorizeTargets(c)
		if len(inputs) < 2 {
			continue
		}
		samples = append(samples, sample{inputs[:len(inputs)-1], targets[1:]})
	}
	if len(samples) == 0 {
		return 0
	}
	// scaleDT rescales the ΔT component of a vector sequence by f,
	// reusing buf. Training with random lead rescaling per presentation
	// teaches the model that a chain is the same chain whether it plays
	// out over 90 or 150 seconds — otherwise the LSTM memorizes exact
	// ΔT values as lookup keys and fails on test chains whose lead-time
	// jitter it has never seen.
	scaleDT := func(vecs [][]float64, f, noise float64, buf *[][]float64) [][]float64 {
		for len(*buf) < len(vecs) {
			*buf = append(*buf, make([]float64, 2))
		}
		out := (*buf)[:len(vecs)]
		for i, v := range vecs {
			out[i][0] = v[0] * f
			if noise > 0 {
				out[i][0] += rng.NormFloat64() * noise
			}
			out[i][1] = v[1]
		}
		return out
	}
	var inBuf, tgBuf [][]float64
	// One optimizer step per sequence, never a mini-batch: the raw-id
	// match needs RMSprop's many small adaptive steps, and folding them
	// into fewer averaged ones measurably costs Phase-3 lead-time
	// precision at any LR rescaling (DESIGN §12).
	runEpochs := func(epochs int) float64 {
		final := 0.0
		for epoch := 0; epoch < epochs; epoch++ {
			rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
			total := 0.0
			for _, s := range samples {
				// Inputs additionally get additive noise; targets stay
				// noise-free.
				f := 0.5 + rng.Float64()
				in := scaleDT(s.inputs, f, 0.1, &inBuf)
				tg := scaleDT(s.targets, f, 0, &tgBuf)
				total += p.phase2.SequenceLoss(in, tg)
				rms.Step(params)
			}
			final = total / float64(len(samples))
		}
		return final
	}
	// About two thirds of the budget run at LR2 (a third, then half of
	// the rest), then LR2/4 and LR2/16 split what is left. RMSprop's
	// steady-state oscillation is proportional to the step size; the
	// raw-id match needs sub-id precision, so the final epochs run at a
	// fraction of LR2.
	third := max(p.cfg.Epochs2/3, 3)
	rest := max(p.cfg.Epochs2-third, 3)
	half := rest / 2
	quarter := (rest - half) / 2
	runEpochs(third + half)
	rms.LR = p.cfg.LR2 / 4
	runEpochs(quarter)
	rms.LR = p.cfg.LR2 / 16
	return runEpochs(rest - half - quarter)
}

// idTargetScale maps raw phrase ids into a modest regression range
// (about [0,8]) so the output layer's weights stay small; Detect divides
// predictions by the same factor to score in raw id space.
func (p *Pipeline) idTargetScale() float64 {
	vocab := p.vocab()
	return 8.0 / float64(vocab)
}

func (p *Pipeline) vocab() int {
	vocab := p.trainVocab
	if vocab == 0 {
		vocab = p.enc.Len()
	}
	if vocab == 0 {
		vocab = 1
	}
	return vocab
}

// Vectorize converts a chain into the Phase-2/3 2-state vectors:
// [ΔT in minutes, raw phrase id] — the Table-4 "Phrase Vector" encoding.
// Keeping the phrase id unscaled is what makes the paper's MSE <= 0.5
// threshold behave like a discrete phrase-equality check: predicting the
// wrong next phrase is off by at least one id unit and alone contributes
// 0.5 to the 2-component MSE, while a correct phrase with sub-minute ΔT
// error scores well below the threshold. Phrase ids beyond the training
// vocabulary share the out-of-vocabulary bucket.
func (p *Pipeline) Vectorize(c chain.Chain) [][]float64 {
	vocab := p.vocab()
	vecs := make([][]float64, len(c.Entries))
	for i, e := range c.Entries {
		minutes, id := stateVector(e, vocab)
		vecs[i] = []float64{minutes, id}
	}
	return vecs
}

// stateVector returns one chain entry's raw 2-state vector: ΔT in
// minutes and the phrase id, with ids beyond the training vocabulary
// folded into the out-of-vocabulary bucket.
func stateVector(e chain.Entry, vocab int) (minutes, id float64) {
	if e.ID >= vocab {
		return e.DeltaT / 60.0, float64(vocab - 1)
	}
	return e.DeltaT / 60.0, float64(e.ID)
}

// VectorizeInput is the LSTM-facing view of a chain: ΔT in minutes and
// the phrase id normalized to [0,1] so the recurrent gates are not
// saturated by raw id magnitudes.
func (p *Pipeline) VectorizeInput(c chain.Chain) [][]float64 {
	vocab := p.vocab()
	raw := p.Vectorize(c)
	for _, v := range raw {
		v[1] /= float64(vocab)
	}
	return raw
}

// vectorizeTargets is the regression-target view: ΔT in minutes and the
// phrase id multiplied by idTargetScale.
func (p *Pipeline) vectorizeTargets(c chain.Chain) [][]float64 {
	s := p.idTargetScale()
	raw := p.Vectorize(c)
	for _, v := range raw {
		v[1] *= s
	}
	return raw
}

// SplitEvents divides a time-ordered event stream into a training
// prefix covering frac of the time span and a test remainder — the
// paper's 30%/70% split.
func SplitEvents(events []logparse.Event, frac float64) (train, test []logparse.Event) {
	if len(events) == 0 {
		return nil, nil
	}
	if frac <= 0 {
		return nil, events
	}
	if frac >= 1 {
		return events, nil
	}
	start := events[0].Time
	end := events[len(events)-1].Time
	cut := start.Add(time.Duration(float64(end.Sub(start)) * frac))
	for i, ev := range events {
		if ev.Time.After(cut) {
			return events[:i], events[i:]
		}
	}
	return events, nil
}
