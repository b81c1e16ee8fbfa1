package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"desh/internal/tensor"
)

// TestConvert32DeterministicIdempotent pins that weight conversion is a
// pure function of the float64 model: two conversions agree bit for
// bit, and converting weights that already round-trip through float32
// reproduces them exactly.
func TestConvert32DeterministicIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := NewSeqRegressorIO(2, 2, 16, 2, rng)
	a, err := m.Convert32()
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	b, err := m.Convert32()
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	sa, sb := a.NewStream32(), b.NewStream32()
	x := []float32{0.5, -1.25}
	for i := 0; i < 8; i++ {
		pa, pb := sa.Step(x), sb.Step(x)
		for d := range pa {
			if math.Float32bits(pa[d]) != math.Float32bits(pb[d]) {
				t.Fatalf("step %d dim %d: %v vs %v", i, d, pa[d], pb[d])
			}
		}
	}

	// Idempotence: write the converted bits back into the f64 model and
	// convert again — identical serving weights.
	for _, l := range m.Stack.Layers {
		for i, v := range l.Wx.Value.Data {
			l.Wx.Value.Data[i] = float64(float32(v))
		}
	}
	c, err := m.Convert32()
	if err != nil {
		t.Fatalf("re-convert: %v", err)
	}
	for k := range a.layers {
		for i := range a.layers[k].Wx.Data {
			want := float32(float64(a.layers[k].Wx.Data[i]))
			if math.Float32bits(c.layers[k].Wx.Data[i]) != math.Float32bits(want) {
				t.Fatalf("layer %d Wx[%d] not idempotent", k, i)
			}
		}
	}
}

// TestConvert32TypedError pins that a damaged model surfaces as a
// wrapped *tensor.ConvertError at conversion time — never a panic,
// never silent Inf weights.
func TestConvert32TypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	m := NewSeqRegressorIO(2, 2, 8, 2, rng)
	m.Stack.Layers[1].Wh.Value.Data[3] = math.NaN()
	_, err := m.Convert32()
	var ce *tensor.ConvertError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want wrapped *tensor.ConvertError", err)
	}
	if ce.Reason != "NaN" || ce.Index != 3 {
		t.Fatalf("error detail: %+v", ce)
	}

	m2 := NewSeqRegressorIO(2, 2, 8, 2, rng)
	m2.Out.W.Value.Data[0] = math.Inf(-1)
	if _, err := m2.Convert32(); err == nil {
		t.Fatal("Inf output weight converted without error")
	}
}

// TestWeightBytes pins the ~2x model-resident-bytes ratio the precision
// benchmarks report.
func TestWeightBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	m := NewSeqRegressorIO(2, 2, 32, 2, rng)
	f, err := m.Convert32()
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if m.WeightBytes() != 2*f.WeightBytes() {
		t.Fatalf("f64 %d bytes, f32 %d bytes, want exactly 2x", m.WeightBytes(), f.WeightBytes())
	}
	if f.WeightBytes() <= 0 {
		t.Fatalf("f32 weight bytes %d", f.WeightBytes())
	}
}

// TestStream32SteadyStateAllocs pins the 0 allocs/op contract of the
// f32 cursor.
func TestStream32SteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	m := NewSeqRegressorIO(2, 2, 16, 2, rng)
	f, err := m.Convert32()
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	seq := make([][]float32, 6)
	for i := range seq {
		seq[i] = []float32{float32(rng.NormFloat64()), float32(rng.NormFloat64())}
	}
	st := f.NewStream32()
	allocs := testing.AllocsPerRun(50, func() {
		st.Reset()
		for _, x := range seq {
			st.Step(x)
		}
	})
	if allocs != 0 {
		t.Fatalf("Stream32: %v allocs/op, want 0", allocs)
	}
}
