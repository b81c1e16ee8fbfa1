package tensor

import (
	"fmt"
	"math"
)

// Float32 serving substrate. Training and model files stay float64
// end-to-end; the types and conversions here exist so the serving path
// can score through SIMD-width float32 kernels after a one-time weight
// conversion at model load or hot-swap time.

// Matrix32 is a dense, row-major matrix of float32 values — the
// forward-only counterpart of Matrix. It carries no training surface:
// gradients, optimizers and persistence never see one.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// New32 returns a zeroed rows x cols float32 matrix. It panics if
// either dimension is negative.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a slice aliasing row i (no copy).
func (m *Matrix32) Row(i int) []float32 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// ConvertError reports a float64 value that cannot become a serving
// float32 weight: NaN, ±Inf, or a magnitude that overflows float32.
// Conversion never panics — a damaged or pathological model surfaces as
// this typed error at load/swap time, before any detector flips.
type ConvertError struct {
	Index  int     // flat element index within the converted tensor
	Value  float64 // offending source value
	Reason string  // "NaN", "+Inf", "-Inf" or "overflows float32"
}

func (e *ConvertError) Error() string {
	return fmt.Sprintf("tensor: float32 conversion at index %d: %s (value %g)", e.Index, e.Reason, e.Value)
}

// minNormal32 is the smallest normal float32 (2^-126). Conversion
// flushes subnormal results to zero: subnormal arithmetic is orders of
// magnitude slower on common cores and the flush makes conversion
// exactly idempotent (a flushed weight converts to itself forever).
const minNormal32 = 0x1p-126

// convert32 converts one float64 to the serving float32 encoding:
// round-to-nearest-even, subnormal results flushed to zero. The reason
// string is non-empty for values with no finite float32 encoding.
func convert32(v float64) (f float32, reason string) {
	if math.IsNaN(v) {
		return 0, "NaN"
	}
	if math.IsInf(v, 1) {
		return 0, "+Inf"
	}
	if math.IsInf(v, -1) {
		return 0, "-Inf"
	}
	f = float32(v)
	if math.IsInf(float64(f), 0) {
		return 0, "overflows float32"
	}
	if f != 0 && math.Abs(float64(f)) < minNormal32 {
		return 0, ""
	}
	return f, ""
}

// ConvertValue32 converts one float64 weight, returning a *ConvertError
// (Index 0) for values with no finite float32 encoding. The conversion
// is deterministic (IEEE round-to-nearest-even) and idempotent:
// converting an already-representable value returns its exact bits.
func ConvertValue32(v float64) (float32, error) {
	f, reason := convert32(v)
	if reason != "" {
		return 0, &ConvertError{Index: 0, Value: v, Reason: reason}
	}
	return f, nil
}

// ConvertSlice32 converts src into dst element-wise; lengths must
// match. The first non-representable element aborts with a
// *ConvertError carrying its index.
func ConvertSlice32(dst []float32, src []float64) error {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ConvertSlice32 lengths %d/%d", len(dst), len(src)))
	}
	for i, v := range src {
		f, reason := convert32(v)
		if reason != "" {
			return &ConvertError{Index: i, Value: v, Reason: reason}
		}
		dst[i] = f
	}
	return nil
}

// ConvertMatrix32 converts a trained float64 matrix into a fresh
// serving Matrix32, or returns the *ConvertError naming the first
// non-representable element.
func ConvertMatrix32(m *Matrix) (*Matrix32, error) {
	c := New32(m.Rows, m.Cols)
	if err := ConvertSlice32(c.Data, m.Data); err != nil {
		return nil, err
	}
	return c, nil
}
