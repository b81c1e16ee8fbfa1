package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestStreamBatchMatchesStream checks the serving-path parity contract
// against the scalar reference: every row of a StreamBatch pass is
// bit-identical to running that row's sequence through StepInfer and
// the dense head alone, across batch widths from one row up, ragged
// lengths (a row whose sequence has ended keeps stepping on zeros, its
// predictions unread), and repeated Begin cycles.
func TestStreamBatchMatchesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := NewSeqRegressorIO(2, 2, 16, 2, rng)
	sb := m.NewStreamBatch()

	for trial := 0; trial < 20; trial++ {
		B := 1 + rng.Intn(9)
		lens := make([]int, B)
		longest := 0
		for i := range lens {
			lens[i] = 1 + rng.Intn(12)
			longest = max(longest, lens[i])
		}
		seqs := make([][][]float64, B)
		for i := range seqs {
			seqs[i] = randSeq(rng, lens[i], m.InDim)
		}

		// Scalar reference predictions per row and step.
		want := make([][][]float64, B)
		for i, seq := range seqs {
			st := m.Stack.NewState()
			for _, x := range seq {
				want[i] = append(want[i], stepInferRef(m, st, x))
			}
		}

		sb.Begin(B)
		for tstep := 0; tstep < longest; tstep++ {
			for r := 0; r < B; r++ {
				in := sb.Input(r)
				clear(in)
				if tstep < lens[r] {
					copy(in, seqs[r][tstep])
				}
			}
			pred := sb.Step()
			for r := 0; r < B; r++ {
				if tstep >= lens[r] {
					continue
				}
				got := pred.Row(r)
				for d, w := range want[r][tstep] {
					if math.Float64bits(got[d]) != math.Float64bits(w) {
						t.Fatalf("trial %d row %d step %d dim %d: batch %v, StepInfer %v",
							trial, r, tstep, d, got[d], w)
					}
				}
			}
		}
	}
}

// TestScoreMatchesStep holds the whole-sequence scorer to the lockstep
// one: a batch of sequences of mixed lengths (1, 2, 43 and 300 steps:
// inside one chunk, across chunk boundaries, and many chunks) runs
// through Begin/Input/Step, every row's sequence through Score, and each
// row's predictions must match bit for bit at every step. Batch widths
// run 1-32 at DefaultConfig's Phase-2 shape (In 2, H 32, two layers);
// a three-layer model whose 4H is 36 (gate tails at every tier) runs a
// few widths too.
func TestScoreMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	lengths := []int{1, 2, 43, 300}
	for _, c := range []struct {
		in, hidden, layers int
		widths             []int
	}{
		{2, 32, 2, nil},
		{3, 9, 3, []int{1, 5, 12}},
	} {
		m := NewSeqRegressorIO(c.in, 2, c.hidden, c.layers, rng)
		sb, lock := m.NewStreamBatch(), m.NewStreamBatch()
		widths := c.widths
		if widths == nil {
			for B := 1; B <= 32; B++ {
				widths = append(widths, B)
			}
		}
		for _, B := range widths {
			seqs := make([][]float64, B)
			longest := 0
			for r := range seqs {
				T := lengths[rng.Intn(len(lengths))]
				longest = max(longest, T)
				seqs[r] = make([]float64, T*m.InDim)
				for i := range seqs[r] {
					seqs[r][i] = rng.NormFloat64()
				}
			}
			want := make([][]float64, B)
			lock.Begin(B)
			for tstep := 0; tstep < longest; tstep++ {
				for r, seq := range seqs {
					in := lock.Input(r)
					clear(in)
					if tstep*m.InDim < len(seq) {
						copy(in, seq[tstep*m.InDim:])
					}
				}
				pred := lock.Step()
				for r, seq := range seqs {
					if tstep*m.InDim < len(seq) {
						want[r] = append(want[r], pred.Row(r)...)
					}
				}
			}
			for r, seq := range seqs {
				got := sb.Score(seq)
				if len(got) != len(want[r]) {
					t.Fatalf("H %d width %d row %d: Score returned %d values, want %d", c.hidden, B, r, len(got), len(want[r]))
				}
				for i, w := range want[r] {
					if math.Float64bits(got[i]) != math.Float64bits(w) {
						t.Fatalf("H %d width %d row %d (%d steps) step %d dim %d: Score %x, Step %x",
							c.hidden, B, r, len(seq)/m.InDim, i/m.OutDim, i%m.OutDim, math.Float64bits(got[i]), math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestStreamBatchSteadyStateAllocs pins the 0 allocs/op contract: once
// the arenas have seen the widest batch, Begin/Input/Step cycles
// allocate nothing, and once Score has seen the longest sequence,
// neither does Score.
func TestStreamBatchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	m := NewSeqRegressorIO(2, 2, 16, 2, rng)
	sb := m.NewStreamBatch()
	seq := randSeq(rng, 6, m.InDim)
	sb.Begin(8) // warm the arenas at max width

	for _, rows := range []int{8, 3, 1} {
		rows := rows
		allocs := testing.AllocsPerRun(50, func() {
			sb.Begin(rows)
			for tstep := range seq {
				for r := 0; r < rows; r++ {
					copy(sb.Input(r), seq[tstep])
				}
				sb.Step()
			}
		})
		if allocs != 0 {
			t.Fatalf("rows=%d: %v allocs/op in steady state, want 0", rows, allocs)
		}
	}
	flat := make([]float64, 40*m.InDim)
	sb.Score(flat) // warm the sequence arena at max length
	for _, T := range []int{40, 17, 1} {
		if allocs := testing.AllocsPerRun(50, func() { sb.Score(flat[:T*m.InDim]) }); allocs != 0 {
			t.Fatalf("Score of %d steps: %v allocs/op in steady state, want 0", T, allocs)
		}
	}
}

// TestStreamBatchGuards exercises the panic guards on Begin and Score.
func TestStreamBatchGuards(t *testing.T) {
	m := NewSeqRegressorIO(2, 2, 8, 2, rand.New(rand.NewSource(63)))
	sb := m.NewStreamBatch()
	sb.Begin(2)
	for name, fn := range map[string]func(){
		"begin-zero":   func() { sb.Begin(0) },
		"score-empty":  func() { sb.Score(nil) },
		"score-ragged": func() { sb.Score(make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkStreamBatchStep is one serving timestep at DefaultConfig's
// Phase-2 shape (In 2, H 32, two layers, Out 2) on the kernels this host
// selected: one row, as a chain scored alone, and thirty-two, a full
// micro-batch. ns/op is the whole batch's step.
func BenchmarkStreamBatchStep(b *testing.B) {
	m := NewSeqRegressorIO(2, 2, 32, 2, rand.New(rand.NewSource(64)))
	x := []float64{0.3, -1.2}
	for _, rows := range []int{1, 32} {
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			sb := m.NewStreamBatch()
			sb.Begin(rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					copy(sb.Input(r), x)
				}
				sb.Step()
			}
		})
	}
}
