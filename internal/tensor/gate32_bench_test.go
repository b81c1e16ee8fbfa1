package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkGateMatVecPrecision puts the serial forward gate kernels
// side by side: the f64 dot4 path and the f32 dot8 path over the same
// H=64 LSTM shape. On hosts where the f64 weight stream spills cache,
// the f32 stream is half the bytes; on scalar-SSE hosts the FLOP cost
// is identical, so any gap here is pure memory behavior.
func BenchmarkGateMatVecPrecision(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const H, In = 64, 64
	wx := New(4*H, In)
	wh := New(4*H, H)
	bias := make([]float64, 4*H)
	x := make([]float64, In)
	h := make([]float64, H)
	z := make([]float64, 4*H)
	for i := range wx.Data {
		wx.Data[i] = rng.NormFloat64()
	}
	for i := range wh.Data {
		wh.Data[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	wx32, _ := ConvertMatrix32(wx)
	wh32, _ := ConvertMatrix32(wh)
	bias32 := make([]float32, len(bias))
	x32 := make([]float32, len(x))
	h32 := make([]float32, len(h))
	z32 := make([]float32, 4*H)
	_ = ConvertSlice32(bias32, bias)
	_ = ConvertSlice32(x32, x)
	_ = ConvertSlice32(h32, h)
	b.Run("f64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GateMatVec(z, wx, x, wh, h, bias)
		}
	})
	b.Run("f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GateMatVec32(z32, wx32, x32, wh32, h32, bias32)
		}
	})
}
