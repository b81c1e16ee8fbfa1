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
// lengths (longest-first with Shrink), and repeated Begin cycles.
func TestStreamBatchMatchesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := NewSeqRegressorIO(2, 2, 16, 2, rng)
	sb := m.NewStreamBatch()

	for trial := 0; trial < 20; trial++ {
		B := 1 + rng.Intn(9)
		// Sequence lengths sorted descending so shrinking retires a
		// suffix, mirroring how DetectBatch schedules ragged chains.
		lens := make([]int, B)
		for i := range lens {
			lens[i] = 1 + rng.Intn(12)
		}
		for i := 1; i < B; i++ {
			if lens[i] > lens[i-1] {
				lens[i] = lens[i-1]
			}
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
		live := B
		for tstep := 0; ; tstep++ {
			for live > 0 && lens[live-1] <= tstep {
				live--
			}
			if live == 0 {
				break
			}
			sb.Shrink(live)
			for r := 0; r < live; r++ {
				copy(sb.Input(r), seqs[r][tstep])
			}
			pred := sb.Step()
			for r := 0; r < live; r++ {
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

// TestStreamBatchSteadyStateAllocs pins the 0 allocs/op contract: once
// the arenas have seen the widest batch, Begin/Input/Step/Shrink cycles
// allocate nothing.
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
				if rows > 1 && tstep == len(seq)-1 {
					sb.Shrink(rows - 1)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("rows=%d: %v allocs/op in steady state, want 0", rows, allocs)
		}
	}
}

// TestStreamBatchGuards exercises the panic guards on Begin and Shrink.
func TestStreamBatchGuards(t *testing.T) {
	m := NewSeqRegressorIO(2, 2, 8, 2, rand.New(rand.NewSource(63)))
	sb := m.NewStreamBatch()
	sb.Begin(2)
	for name, fn := range map[string]func(){
		"begin-zero":    func() { sb.Begin(0) },
		"shrink-grow":   func() { sb.Shrink(3) },
		"shrink-logive": func() { sb.Shrink(-1) },
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
