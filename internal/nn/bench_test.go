package nn

import (
	"math/rand"
	"testing"

	"desh/internal/par"
)

// Phase-1-shaped workload: the DefaultConfig classifier geometry over a
// realistic window count. Each benchmark op consumes the full window
// set, so serial and batched sub-benchmarks do identical work and ns/op
// is directly comparable.
const (
	benchVocab   = 120
	benchEmb     = 16
	benchHidden  = 32
	benchLayers  = 2
	benchHistory = 8
	benchSteps   = 3
	benchWindows = 256
	benchBatch   = 8
)

func benchWindowSet(rng *rand.Rand) [][]int {
	windows := make([][]int, benchWindows)
	for i := range windows {
		windows[i] = randWindow(rng, benchHistory+benchSteps, benchVocab)
	}
	return windows
}

// BenchmarkPhase1Training measures one pass over a Phase-1-sized window
// set: serial per-window WindowLoss versus the batched trainer packing
// benchBatch windows per GEMM pass. Steady state must not allocate.
func BenchmarkPhase1Training(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	windows := benchWindowSet(rng)

	b.Run("serial", func(b *testing.B) {
		m := NewSeqClassifier(benchVocab, benchEmb, benchHidden, benchLayers, rand.New(rand.NewSource(42)))
		m.WindowLoss(windows[0], benchHistory, benchSteps) // warm scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range windows {
				m.WindowLoss(w, benchHistory, benchSteps)
			}
			ZeroGrads(m.Params())
		}
	})

	b.Run("batched", func(b *testing.B) {
		m := NewSeqClassifier(benchVocab, benchEmb, benchHidden, benchLayers, rand.New(rand.NewSource(42)))
		pool := par.NewPool(0)
		defer pool.Close()
		tr := NewClassifierTrainer(m, benchBatch, pool)
		tr.WindowLoss(windows[:benchBatch], benchHistory, benchSteps) // warm arenas
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for at := 0; at < len(windows); at += benchBatch {
				end := at + benchBatch
				if end > len(windows) {
					end = len(windows)
				}
				tr.WindowLoss(windows[at:end], benchHistory, benchSteps)
			}
			ZeroGrads(m.Params())
		}
	})
}

// BenchmarkPhase2Training measures one pass over a Phase-2-sized
// sequence set (dim-2 lead-time regressor) through SequenceLoss, the
// one Phase-2 training path.
func BenchmarkPhase2Training(b *testing.B) {
	const dim, T, nSeqs = 2, 12, 64
	rng := rand.New(rand.NewSource(43))
	ins := make([][][]float64, nSeqs)
	tgs := make([][][]float64, nSeqs)
	for i := range ins {
		ins[i] = randSeq(rng, T, dim)
		tgs[i] = randSeq(rng, T, dim)
	}

	m := NewSeqRegressorIO(dim, dim, benchHidden, benchLayers, rand.New(rand.NewSource(44)))
	params := m.Params()
	m.SequenceLoss(ins[0], tgs[0]) // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ins {
			m.SequenceLoss(ins[j], tgs[j])
		}
		ZeroGrads(params)
	}
}
