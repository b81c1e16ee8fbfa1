package nn

import (
	"fmt"
	"math/rand"

	"desh/internal/loss"
	"desh/internal/par"
	"desh/internal/tensor"
)

// The mini-batch trainer for the Phase-1 classifier. It splits an
// optimizer batch of up to B windows into ceil(B/MicroBatch) shards of
// MicroBatch rows each, runs the shards across a par.Pool (shard 0 on
// the primary model, the rest on weight-sharing replicas with private
// gradients) and merges the replica gradients into the primary in
// ascending shard order. Because the shard split depends only on the
// batch contents — never on the worker count — and the merge order is
// fixed, the accumulated gradients are bit-identical across GOMAXPROCS
// settings; and because every batched kernel reproduces the serial
// operation sequence per row, a one-row batch is bit-identical to the
// serial SeqClassifier.WindowLoss. Phase 2 has no trainer: its RMSprop
// schedule steps once per sequence (DESIGN §12).

// replica returns a classifier sharing this model's weights (and
// transpose caches) but accumulating into private gradients, in the
// same Params() order as the primary.
func (m *SeqClassifier) replica() *SeqClassifier {
	return &SeqClassifier{
		Vocab:  m.Vocab,
		EmbDim: m.EmbDim,
		Embed:  shareParam(m.Embed),
		Stack:  m.Stack.replica(),
		Out:    m.Out.replica(),
	}
}

// refreshT re-caches the transposed weights on the primary model's
// layers; replicas alias the same cache matrices.
func (m *SeqClassifier) refreshT() {
	for _, l := range m.Stack.Layers {
		l.refreshT()
	}
	m.Out.refreshT()
}

// denseBatch holds one shard's batched output-head buffers.
type denseBatch struct {
	out, dOutHead *tensor.Matrix   // [mb x OutSize] head outputs and their grads
	dOut          []*tensor.Matrix // per-step slots passed to stackBatch.backward
	dOutBuf       []*tensor.Matrix // backing matrices for dOut entries [mb x H]
	rowTotal      []float64        // per-row loss accumulators
}

func newDenseBatch(mb, outSize int) *denseBatch {
	return &denseBatch{
		out:      tensor.New(mb, outSize),
		dOutHead: tensor.New(mb, outSize),
		rowTotal: make([]float64, mb),
	}
}

// begin sizes the head buffers for a T-step batch of bb rows.
func (db *denseBatch) begin(T, bb, hidden int) {
	for len(db.dOutBuf) < T {
		mb := cap(db.rowTotal)
		db.dOutBuf = append(db.dOutBuf, tensor.New(mb, hidden))
		db.dOut = append(db.dOut, nil)
	}
	for t := 0; t < T; t++ {
		db.dOut[t] = nil
	}
	setRows(db.out, bb)
	setRows(db.dOutHead, bb)
	for b := 0; b < bb; b++ {
		db.rowTotal[b] = 0
	}
}

// headForward computes the dense head over the step-t hidden batch:
// out = h·Wᵀ + bias against the raw (untransposed) weights, per row
// bit-identical to Dense.ForwardInto's MatVecBias.
func (db *denseBatch) headForward(d *Dense, h *tensor.Matrix) {
	tensor.MatMulABtBiasInto(db.out, h, d.W.Value, d.B.Value.Data)
}

// headBackward accumulates the head gradients for step t (the batched
// Dense.BackwardInto: weight grads from the batch outer products in
// ascending row order, then bias grads, then the hidden-state grads) and
// registers the result as the step's dOut entry.
func (db *denseBatch) headBackward(d *Dense, h *tensor.Matrix, t, bb int) {
	buf := db.dOutBuf[t]
	setRows(buf, bb)
	tensor.MatTMulAddInto(d.W.Grad, db.dOutHead, h)
	for b := 0; b < bb; b++ {
		tensor.Axpy(1, db.dOutHead.Row(b), d.B.Grad.Data)
	}
	tensor.MatMulABtInto(buf, db.dOutHead, d.wT)
	db.dOut[t] = buf
}

// classifierShard is one micro-batch worth of Phase-1 training state: a
// model view (the primary for shard 0, a gradient replica otherwise),
// its batch workspace and head buffers. Shards never share mutable
// state, so they run concurrently without synchronization.
type classifierShard struct {
	m     *SeqClassifier
	sb    *stackBatch
	head  *denseBatch
	probs []float64
}

func newClassifierShard(m *SeqClassifier) *classifierShard {
	return &classifierShard{
		m:     m,
		sb:    newStackBatch(m.Stack, MicroBatch),
		head:  newDenseBatch(MicroBatch, m.Vocab),
		probs: make([]float64, m.Vocab),
	}
}

// windowLoss runs the batched equivalent of SeqClassifier.WindowLoss
// over up to MicroBatch windows, accumulating gradients into the shard
// model's Params. Returns the summed per-window mean cross-entropy.
func (cs *classifierShard) windowLoss(windows [][]int, history, steps int) float64 {
	m := cs.m
	bb := len(windows)
	T := history + steps - 1
	cs.sb.begin(T, bb)
	for t := 0; t < T; t++ {
		x := cs.sb.input(t)
		for b, w := range windows {
			copy(x.Row(b), m.embedRow(w[t]))
		}
	}
	cs.sb.forward()

	cs.head.begin(T, bb, m.Stack.HiddenSize())
	inv := 1 / float64(steps)
	for t := history - 1; t < T; t++ {
		h := cs.sb.output(t)
		cs.head.headForward(m.Out, h)
		for b := 0; b < bb; b++ {
			target := windows[b][t+1]
			loss.Softmax(cs.probs, cs.head.out.Row(b))
			cs.head.rowTotal[b] += loss.CrossEntropy(cs.probs, target)
			dlr := cs.head.dOutHead.Row(b)
			loss.SoftmaxCrossEntropyGrad(dlr, cs.probs, target)
			tensor.VecScale(dlr, inv)
		}
		cs.head.headBackward(m.Out, h, t, bb)
	}
	cs.sb.backward(cs.head.dOut[:T])
	// Same ordering as the serial path: ascending t (then ascending
	// row within the shard) after the full backward pass.
	for t := 0; t < T; t++ {
		dx := cs.sb.inputGrad(t)
		for b, w := range windows {
			tensor.Axpy(1, dx.Row(b), m.Embed.Grad.Row(w[t]))
		}
	}
	total := 0.0
	for b := 0; b < bb; b++ {
		// Divide (not multiply by the reciprocal): WindowLoss divides, and
		// x/3 and x*(1/3.0) differ in the last bit.
		total += cs.head.rowTotal[b] / float64(steps)
	}
	return total
}

// shardMerge folds replica gradients into the primary parameters in
// ascending shard order — the fixed-order deterministic reduction — and
// re-zeroes the replicas for the next batch. repParams[s] holds the
// Params() of shard s+1 (shard 0 IS the primary and needs no merge).
func shardMerge(mParams []*Param, repParams [][]*Param, shards int) {
	for s := 1; s < shards; s++ {
		for i, p := range repParams[s-1] {
			mParams[i].Grad.Add(p.Grad)
			p.Grad.Zero()
		}
	}
}

// ClassifierTrainer drives mini-batch training for a SeqClassifier.
// Construct once and feed batches of up to `batch` windows per
// WindowLoss call; steady-state calls allocate nothing. The trainer
// mutates the model's gradients; the caller owns the optimizer step.
type ClassifierTrainer struct {
	m         *SeqClassifier
	batch     int
	pool      *par.Pool
	shards    []*classifierShard
	mParams   []*Param
	repParams [][]*Param
	losses    []float64

	fn         func(w, i int) // stored closure: no per-call allocation
	curWindows [][]int
	curHistory int
	curSteps   int
}

// NewClassifierTrainer builds a trainer for optimizer batches of up to
// `batch` windows. A nil pool runs shards via the package-level
// par.ForWorker.
func NewClassifierTrainer(m *SeqClassifier, batch int, pool *par.Pool) *ClassifierTrainer {
	if batch < 1 {
		panic(fmt.Sprintf("nn: invalid batch size %d", batch))
	}
	n := (batch + MicroBatch - 1) / MicroBatch
	t := &ClassifierTrainer{
		m:       m,
		batch:   batch,
		pool:    pool,
		shards:  make([]*classifierShard, n),
		mParams: m.Params(),
		losses:  make([]float64, n),
	}
	t.shards[0] = newClassifierShard(m)
	for s := 1; s < n; s++ {
		rep := m.replica()
		t.shards[s] = newClassifierShard(rep)
		t.repParams = append(t.repParams, rep.Params())
	}
	t.fn = func(_, s int) {
		lo := s * MicroBatch
		hi := lo + MicroBatch
		if hi > len(t.curWindows) {
			hi = len(t.curWindows)
		}
		t.losses[s] = t.shards[s].windowLoss(t.curWindows[lo:hi], t.curHistory, t.curSteps)
	}
	return t
}

// WindowLoss trains one optimizer batch of windows (each of length
// history+steps), accumulating gradients into the model's Params.
// Returns the sum of the per-window mean cross-entropies — exactly what
// summing serial WindowLoss calls over the same windows returns.
func (t *ClassifierTrainer) WindowLoss(windows [][]int, history, steps int) float64 {
	n := len(windows)
	if n == 0 {
		return 0
	}
	if n > t.batch {
		panic(fmt.Sprintf("nn: batch of %d windows, trainer capacity %d", n, t.batch))
	}
	for _, w := range windows {
		if len(w) != history+steps {
			panic(fmt.Sprintf("nn: window length %d, want history+steps=%d", len(w), history+steps))
		}
	}
	t.m.refreshT()
	t.curWindows, t.curHistory, t.curSteps = windows, history, steps
	shards := (n + MicroBatch - 1) / MicroBatch
	t.pool.ForWorker(shards, t.fn)
	shardMerge(t.mParams, t.repParams, shards)
	total := 0.0
	for s := 0; s < shards; s++ {
		total += t.losses[s]
	}
	t.curWindows = nil
	return total
}

// Epoch is one training pass, the loop Phase 1 and the DeepLog baseline
// share: shuffle wins in place, feed them to WindowLoss in batches of up
// to the trainer's capacity, and after each batch call step with its
// size so the caller applies its optimizer to the accumulated gradients
// (nn cannot import opt). Returns the mean per-window loss.
func (t *ClassifierTrainer) Epoch(wins [][]int, history, steps int, rng *rand.Rand, step func(n int)) float64 {
	rng.Shuffle(len(wins), func(i, j int) { wins[i], wins[j] = wins[j], wins[i] })
	total := 0.0
	for at := 0; at < len(wins); at += t.batch {
		batch := wins[at:min(at+t.batch, len(wins))]
		total += t.WindowLoss(batch, history, steps)
		step(len(batch))
	}
	return total / float64(len(wins))
}
