// Package deeplog implements the DeepLog baseline (Du et al., CCS 2017)
// that the paper compares against in §4.5 (Tables 10 and 11): a stacked
// LSTM trained on normal log-key sequences that flags a *single log
// entry* as anomalous when the observed key is not among the model's
// top-g predictions. Unlike Desh it reasons per entry rather than per
// chain, predicts no lead times, and does not localize failures.
package deeplog

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"desh/internal/logparse"
	"desh/internal/nn"
	"desh/internal/opt"
	"desh/internal/par"
	"desh/internal/tensor"
)

// Config parameterizes the DeepLog baseline.
type Config struct {
	Hidden  int // LSTM hidden units
	Layers  int // stacked layers (DeepLog uses 2)
	History int // window of preceding keys (DeepLog's h)
	TopG    int // observed key must rank in the top g predictions
	Epochs  int
	LR      float64
	// Batch is the mini-batch size for training (mean gradient, linear
	// LR scaling); 0 is treated as 1, one window per step.
	Batch int
	Seed  int64
}

// DefaultConfig mirrors the published DeepLog settings scaled to the
// synthetic logs.
func DefaultConfig() Config {
	return Config{Hidden: 32, Layers: 2, History: 10, TopG: 9, Epochs: 2, LR: 0.2, Batch: 8, Seed: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Hidden <= 0 || c.Layers <= 0 {
		return fmt.Errorf("deeplog: invalid sizes hidden=%d layers=%d", c.Hidden, c.Layers)
	}
	if c.History < 1 || c.TopG < 1 {
		return fmt.Errorf("deeplog: invalid history=%d topg=%d", c.History, c.TopG)
	}
	if c.Epochs < 1 || c.LR <= 0 {
		return fmt.Errorf("deeplog: invalid epochs=%d lr=%v", c.Epochs, c.LR)
	}
	if c.Batch < 0 {
		return fmt.Errorf("deeplog: Batch must be non-negative, got %d", c.Batch)
	}
	return nil
}

// Detector is a trained DeepLog instance.
type Detector struct {
	cfg   Config
	enc   *logparse.Encoder
	model *nn.SeqClassifier
	vocab int
}

// Train fits the next-key model on the event stream (DeepLog trains on
// logs assumed to be mostly normal).
func Train(events []logparse.Event, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("deeplog: no training events")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Detector{cfg: cfg, enc: &logparse.Encoder{}}
	encoded := logparse.EncodeEvents(d.enc, events)
	byNode := logparse.ByNode(encoded)
	var nodes []string
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var seqs [][]int
	for _, n := range nodes {
		evs := byNode[n]
		seq := make([]int, len(evs))
		for i, ev := range evs {
			seq[i] = ev.ID
		}
		seqs = append(seqs, seq)
	}
	// Leave one slot for out-of-vocabulary keys seen at detection time.
	d.vocab = d.enc.Len() + 1
	d.model = nn.NewSeqClassifier(d.vocab, 16, cfg.Hidden, cfg.Layers, rng)

	sgd := opt.NewSGD(cfg.LR)
	window := cfg.History + 1
	var wins [][]int
	for _, seq := range seqs {
		for off := 0; off+window <= len(seq); off++ {
			wins = append(wins, seq[off:off+window])
		}
	}
	if len(wins) == 0 {
		return nil, fmt.Errorf("deeplog: training sequences shorter than history %d", cfg.History)
	}
	params := d.model.Params()
	// Same mini-batch discipline as the Desh Phase-1 loop: mean gradient
	// with linear LR scaling per realized batch.
	pool := par.NewPool(0)
	defer pool.Close()
	trainer := nn.NewClassifierTrainer(d.model, max(cfg.Batch, 1), pool)
	step := func(n int) {
		sgd.BatchSize = n
		sgd.LR = cfg.LR * float64(n)
		sgd.Step(params)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		trainer.Epoch(wins, cfg.History, 1, rng, step)
	}
	return d, nil
}

// keyID encodes a key, mapping unseen keys to the OOV slot.
func (d *Detector) keyID(key string) int {
	if id, ok := d.enc.Lookup(key); ok {
		return id
	}
	return d.vocab - 1
}

// EntryAnomalies returns, for one node's time-ordered events, a flag per
// event marking it anomalous: the observed key was outside the top-g
// predicted keys given the preceding history. The context window adapts
// to sequences shorter than History (using whatever prefix exists); the
// first two events are never flagged (insufficient context).
func (d *Detector) EntryAnomalies(events []logparse.Event) []bool {
	flags := make([]bool, len(events))
	ids := make([]int, len(events))
	for i, ev := range events {
		ids[i] = d.keyID(ev.Key)
	}
	for i := 2; i < len(ids); i++ {
		lo := i - d.cfg.History
		if lo < 0 {
			lo = 0
		}
		probs := d.model.NextProbs(ids[lo:i])
		if !slices.Contains(tensor.TopK(probs, d.cfg.TopG), ids[i]) {
			flags[i] = true
		}
	}
	return flags
}

// SequenceAnomalous reports whether any entry in the sequence is
// anomalous — the session-level verdict DeepLog uses for HDFS blocks.
// It returns the verdict and the count of anomalous entries.
func (d *Detector) SequenceAnomalous(events []logparse.Event) (bool, int) {
	flags := d.EntryAnomalies(events)
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n > 0, n
}
