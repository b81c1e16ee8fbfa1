package nn

import (
	"math"
	"math/rand"
	"testing"

	"desh/internal/par"
)

// randWindow fills a token window within the vocabulary.
func randWindow(rng *rand.Rand, n, vocab int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = rng.Intn(vocab)
	}
	return w
}

// randSeq builds a T-step sequence of dim-wide vectors.
func randSeq(rng *rand.Rand, T, dim int) [][]float64 {
	s := make([][]float64, T)
	for t := range s {
		s[t] = make([]float64, dim)
		for i := range s[t] {
			s[t][i] = rng.NormFloat64()
		}
	}
	return s
}

// twinClassifiers builds two structurally identical models from the
// same seed, so their weights start bit-identical.
func twinClassifiers(seed int64, vocab, emb, hidden, layers int) (*SeqClassifier, *SeqClassifier) {
	a := NewSeqClassifier(vocab, emb, hidden, layers, rand.New(rand.NewSource(seed)))
	b := NewSeqClassifier(vocab, emb, hidden, layers, rand.New(rand.NewSource(seed)))
	return a, b
}

// compareGrads fails the test unless both parameter sets hold equal
// gradients. tol 0 demands float equality (== catches -0 vs 0 as
// equal); tol > 0 allows that relative error.
func compareGrads(t *testing.T, label string, ap, bp []*Param, tol float64) {
	t.Helper()
	if len(ap) != len(bp) {
		t.Fatalf("%s: param counts %d vs %d", label, len(ap), len(bp))
	}
	for i := range ap {
		ag, bg := ap[i].Grad.Data, bp[i].Grad.Data
		for j := range ag {
			if tol == 0 {
				if ag[j] != bg[j] {
					t.Fatalf("%s: param %d (%s) grad[%d]: %v vs %v", label, i, ap[i].Name, j, ag[j], bg[j])
				}
				continue
			}
			diff := math.Abs(ag[j] - bg[j])
			scale := math.Max(1, math.Max(math.Abs(ag[j]), math.Abs(bg[j])))
			if diff > tol*scale {
				t.Fatalf("%s: param %d (%s) grad[%d]: %v vs %v (rel %v)", label, i, ap[i].Name, j, ag[j], bg[j], diff/scale)
			}
		}
	}
}

// TestClassifierBatchOneBitIdentical pins the B=1 guarantee: a one-row
// batched WindowLoss produces the same loss and bit-identical gradients
// as the serial path.
func TestClassifierBatchOneBitIdentical(t *testing.T) {
	const vocab, emb, hidden, layers, history, steps = 23, 8, 16, 2, 5, 3
	serial, batched := twinClassifiers(7, vocab, emb, hidden, layers)
	tr := NewClassifierTrainer(batched, 1, nil)
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 5; iter++ {
		w := randWindow(rng, history+steps, vocab)
		ls := serial.WindowLoss(w, history, steps)
		lb := tr.WindowLoss([][]int{w}, history, steps)
		if ls != lb {
			t.Fatalf("iter %d: serial loss %v, batched loss %v", iter, ls, lb)
		}
		compareGrads(t, "classifier B=1", serial.Params(), batched.Params(), 0)
	}
	// Gradients accumulated over several windows without zeroing must
	// also agree bit-for-bit.
	ZeroGrads(serial.Params())
	ZeroGrads(batched.Params())
	for iter := 0; iter < 4; iter++ {
		w := randWindow(rng, history+steps, vocab)
		serial.WindowLoss(w, history, steps)
		tr.WindowLoss([][]int{w}, history, steps)
	}
	compareGrads(t, "classifier B=1 accumulated", serial.Params(), batched.Params(), 0)
}

// TestClassifierBatchMatchesSerialAccumulation is the random-shape
// property test: for arbitrary geometries and batch sizes, the batched
// gradients match serially accumulated per-window gradients within
// 1e-9 relative error, and the batched loss matches the summed serial
// losses.
func TestClassifierBatchMatchesSerialAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 12; trial++ {
		vocab := 5 + rng.Intn(30)
		emb := 3 + rng.Intn(9)
		hidden := 4 + rng.Intn(20)
		layers := 1 + rng.Intn(3)
		history := 2 + rng.Intn(5)
		steps := 1 + rng.Intn(3)
		B := 1 + rng.Intn(10)

		serial, batched := twinClassifiers(rng.Int63(), vocab, emb, hidden, layers)
		pool := par.NewPool(1 + rng.Intn(4))
		tr := NewClassifierTrainer(batched, B, pool)

		windows := make([][]int, B)
		lossSerial := 0.0
		for b := range windows {
			windows[b] = randWindow(rng, history+steps, vocab)
			lossSerial += serial.WindowLoss(windows[b], history, steps)
		}
		lossBatched := tr.WindowLoss(windows, history, steps)
		pool.Close()
		if math.Abs(lossSerial-lossBatched) > 1e-9*math.Max(1, math.Abs(lossSerial)) {
			t.Fatalf("trial %d (B=%d): serial loss %v, batched %v", trial, B, lossSerial, lossBatched)
		}
		compareGrads(t, "classifier property", serial.Params(), batched.Params(), 1e-9)
	}
}

// TestBatchDeterministicAcrossWorkers pins the deterministic-merge
// guarantee at the trainer level: identical models trained through
// pools of different widths accumulate bit-identical gradients.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	const vocab, emb, hidden, layers, history, steps, B = 31, 8, 16, 2, 6, 2, 11
	narrow, wide := twinClassifiers(17, vocab, emb, hidden, layers)
	p1 := par.NewPool(1)
	p4 := par.NewPool(4)
	defer p1.Close()
	defer p4.Close()
	tr1 := NewClassifierTrainer(narrow, B, p1)
	tr4 := NewClassifierTrainer(wide, B, p4)
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 3; iter++ {
		windows := make([][]int, B)
		for b := range windows {
			windows[b] = randWindow(rng, history+steps, vocab)
		}
		l1 := tr1.WindowLoss(windows, history, steps)
		l4 := tr4.WindowLoss(windows, history, steps)
		if l1 != l4 {
			t.Fatalf("iter %d: pool-1 loss %v, pool-4 loss %v", iter, l1, l4)
		}
		compareGrads(t, "worker determinism", narrow.Params(), wide.Params(), 0)
	}
}

// TestTrainerSteadyStateAllocs pins the 0 allocs/op guarantee for the
// batched training hot loop (trainer pass only; optimizer allocs are
// pinned by the benchmarks).
func TestTrainerSteadyStateAllocs(t *testing.T) {
	const vocab, emb, hidden, layers, history, steps, B = 40, 8, 16, 2, 8, 3, 8
	m := NewSeqClassifier(vocab, emb, hidden, layers, rand.New(rand.NewSource(5)))
	pool := par.NewPool(2)
	defer pool.Close()
	tr := NewClassifierTrainer(m, B, pool)
	rng := rand.New(rand.NewSource(23))
	windows := make([][]int, B)
	for b := range windows {
		windows[b] = randWindow(rng, history+steps, vocab)
	}
	tr.WindowLoss(windows, history, steps) // warm the arenas
	ZeroGrads(m.Params())
	allocs := testing.AllocsPerRun(20, func() {
		tr.WindowLoss(windows, history, steps)
	})
	if allocs != 0 {
		t.Fatalf("batched WindowLoss allocates %.1f times per call, want 0", allocs)
	}
}
