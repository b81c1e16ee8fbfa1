package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randVec32(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// TestDot8MatchesNaive pins that the 8-wide unroll does not reassociate:
// dot8 must be bit-identical to the naive ascending-k loop at every
// length across the unroll boundary.
func TestDot8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 33; n++ {
		a := randVec32(rng, n)
		b := randVec32(rng, n)
		var want float32
		for i := range a {
			want += a[i] * b[i]
		}
		if got := dot8(a, b); got != want {
			t.Fatalf("n=%d: dot8 %v, naive %v", n, got, want)
		}
	}
}

// TestConvert32Deterministic pins that conversion is a pure function of
// the input bits: two conversions of the same matrix agree exactly.
func TestConvert32Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := randMat(rng, 17, 13)
	a, err := ConvertMatrix32(m)
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	b, err := ConvertMatrix32(m)
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			t.Fatalf("element %d: %x vs %x", i, math.Float32bits(a.Data[i]), math.Float32bits(b.Data[i]))
		}
	}
}

// TestConvert32Idempotent pins that converting an already-converted
// value returns its exact bits — including the subnormal flush, whose
// output (zero) must convert to itself.
func TestConvert32Idempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	inputs := []float64{0, math.Copysign(0, -1), 1, -1, 0x1p-126, 0x1p-127, 1e-310, 5e-324, -1e-40, math.MaxFloat32, -math.MaxFloat32}
	for i := 0; i < 200; i++ {
		inputs = append(inputs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(75)-40)))
	}
	for _, v := range inputs {
		f1, err := ConvertValue32(v)
		if err != nil {
			t.Fatalf("convert %g: %v", v, err)
		}
		f2, err := ConvertValue32(float64(f1))
		if err != nil {
			t.Fatalf("re-convert %g: %v", float64(f1), err)
		}
		if math.Float32bits(f1) != math.Float32bits(f2) {
			t.Fatalf("value %g not idempotent: %x vs %x", v, math.Float32bits(f1), math.Float32bits(f2))
		}
	}
}

// TestConvert32FlushesSubnormals pins the flush-to-zero policy for
// magnitudes below the smallest normal float32.
func TestConvert32FlushesSubnormals(t *testing.T) {
	for _, v := range []float64{1e-310, 5e-324, 0x1p-127, -0x1p-130, 1e-39, -1e-40} {
		f, err := ConvertValue32(v)
		if err != nil {
			t.Fatalf("convert %g: %v", v, err)
		}
		if f != 0 {
			t.Fatalf("subnormal %g converted to %v, want 0", v, f)
		}
	}
	// The smallest normal float32 itself must survive.
	f, err := ConvertValue32(0x1p-126)
	if err != nil || f != 0x1p-126 {
		t.Fatalf("min normal: got %v, %v", f, err)
	}
}

// TestConvert32TypedErrors pins that non-representable values return a
// *ConvertError carrying the element index — never a panic, never a
// silent Inf in the serving weights.
func TestConvert32TypedErrors(t *testing.T) {
	cases := []struct {
		v      float64
		reason string
	}{
		{math.NaN(), "NaN"},
		{math.Float64frombits(0x7ff8000000000001), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.MaxFloat64, "overflows float32"},
		{-math.MaxFloat64, "overflows float32"},
		{float64(math.MaxFloat32) * 2, "overflows float32"},
	}
	for _, tc := range cases {
		_, err := ConvertValue32(tc.v)
		var ce *ConvertError
		if !errors.As(err, &ce) {
			t.Fatalf("value %g: got %v, want *ConvertError", tc.v, err)
		}
		if ce.Reason != tc.reason {
			t.Fatalf("value %g: reason %q, want %q", tc.v, ce.Reason, tc.reason)
		}
	}
	// Slice conversion reports the index of the first bad element.
	src := []float64{1, 2, math.Inf(1), 4}
	dst := make([]float32, 4)
	err := ConvertSlice32(dst, src)
	var ce *ConvertError
	if !errors.As(err, &ce) || ce.Index != 2 {
		t.Fatalf("slice error: got %v", err)
	}
}

// FuzzConvert32 drives the conversion with arbitrary float64 bit
// patterns: it must never panic, and every accepted value must be
// finite, idempotent, and within half a ULP of the source.
func FuzzConvert32(f *testing.F) {
	seeds := []uint64{
		0,                  // +0
		0x8000000000000000, // -0
		0x3ff0000000000000, // 1.0
		1,                  // 5e-324, smallest denormal float64
		0x000fffffffffffff, // largest denormal float64
		0x3800000000000000, // 0x1p-127, subnormal in float32
		0x3810000000000000, // 0x1p-126, smallest normal float32
		0x47efffffe0000000, // MaxFloat32
		0x47effffff0000000, // just above MaxFloat32, rounds to it
		0x47f0000000000000, // 0x1p128, overflows float32
		0x7fefffffffffffff, // MaxFloat64
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x7ff8000000000000, // canonical NaN
		0x7ff8000000000001, // NaN with payload
		0xfff7ffffffffffff, // signaling-style NaN pattern
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got, err := ConvertValue32(v)
		if err != nil {
			var ce *ConvertError
			if !errors.As(err, &ce) {
				t.Fatalf("bits %#x: non-typed error %v", bits, err)
			}
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) <= math.MaxFloat32 {
				t.Fatalf("bits %#x: rejected representable value %g: %v", bits, v, err)
			}
			return
		}
		if math.IsNaN(float64(got)) || math.IsInf(float64(got), 0) {
			t.Fatalf("bits %#x: accepted conversion produced %v", bits, got)
		}
		again, err := ConvertValue32(float64(got))
		if err != nil {
			t.Fatalf("bits %#x: re-conversion failed: %v", bits, err)
		}
		if math.Float32bits(got) != math.Float32bits(again) {
			t.Fatalf("bits %#x: not idempotent: %x vs %x", bits, math.Float32bits(got), math.Float32bits(again))
		}
		if got == 0 && v != 0 && math.Abs(v) >= minNormal32 {
			t.Fatalf("bits %#x: normal-range value %g flushed to zero", bits, v)
		}
	})
}
