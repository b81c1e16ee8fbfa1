package nn

import (
	"math/rand"
	"testing"
)

// BenchmarkStreamStepPrecision puts one serial inference timestep in
// both precisions side by side on the serving model shape (In=2, H=64,
// 2 layers, Out=2) — the per-event cost an idle shard pays.
func BenchmarkStreamStepPrecision(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	m := NewSeqRegressorIO(2, 2, 64, 2, rng)
	f, err := m.Convert32()
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.3, -1.2}
	x32 := []float32{0.3, -1.2}
	b.Run("f64", func(b *testing.B) {
		s := m.NewStream()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Step(x)
		}
	})
	b.Run("f32", func(b *testing.B) {
		s := f.NewStream32()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Step(x32)
		}
	})
}
