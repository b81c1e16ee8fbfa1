package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// trainTier is one tier of the two element-wise training kernels, named
// as GateKernel names the gate kernel of the same width.
type trainTier struct {
	name string
	axpy func(f float64, x, y []float64)
	rms  func(w, g, c []float64, lr, rho, eps float64)
}

// trainTiers lists every training kernel this host and build can run:
// "served" is the dispatch (axpy, RMSpropStep) on whatever tier it picks,
// then each assembly tier, narrowest first. The parity tables and the
// fuzz target hold each one to the Go loops (axpy4, rmsprop), so an
// AVX-512 host still tests the AVX2 kernels.
func trainTiers() []trainTier {
	t := []trainTier{{"served", axpy, RMSpropStep}}
	if useAVX2 {
		t = append(t, trainTier{"avx2", axpy256, func(w, g, c []float64, lr, rho, eps float64) {
			rms256(w, g, c, lr, rho, 1-rho, eps)
		}})
	}
	if useAVX512 {
		t = append(t, trainTier{"avx512", axpy512, func(w, g, c []float64, lr, rho, eps float64) {
			rms512(w, g, c, lr, rho, 1-rho, eps)
		}})
	}
	return t
}

// sentinel fills the elements a kernel must not touch.
const sentinel = 0x7ff4_dead_beef_0001 // a signalling NaN no kernel produces

// placed copies v into a fresh backing array at element offset off, with
// sentinels on both sides, and returns the backing and the placed view.
// The offsets move the view off every vector alignment.
func placed(v []float64, off int) (backing, view []float64) {
	backing = make([]float64, off+len(v)+9)
	for i := range backing {
		backing[i] = math.Float64frombits(sentinel)
	}
	view = backing[off : off+len(v)]
	copy(view, v)
	return backing, view
}

// checkPlaced fails when got differs from want anywhere but NaN payloads,
// or when a sentinel around the view at off moved.
func checkPlaced(t *testing.T, what string, backing []float64, off int, want []float64) {
	t.Helper()
	for i, b := range backing {
		j := i - off
		if j >= 0 && j < len(want) {
			if !sameGate(b, want[j]) {
				t.Fatalf("%s: element %d of %d (offset %d) = %x, Go loop %x",
					what, j, len(want), off, math.Float64bits(b), math.Float64bits(want[j]))
			}
		} else if math.Float64bits(b) != sentinel {
			t.Fatalf("%s: wrote element %d outside the %d at offset %d", what, j, len(want), off)
		}
	}
}

// checkAxpyParity runs y += f·x through axpy4 and every tier, y placed at
// offy and x at offx, and fails on the first element that differs.
func checkAxpyParity(t *testing.T, f float64, x, y []float64, offx, offy int) {
	t.Helper()
	want := append([]float64(nil), y...)
	axpy4(f, x, want)
	for _, k := range trainTiers() {
		_, xv := placed(x, offx)
		yb, yv := placed(y, offy)
		k.axpy(f, xv, yv)
		checkPlaced(t, "axpy "+k.name, yb, offy, want)
	}
}

// checkRMSParity runs one RMSprop update through the Go loop and every
// tier, each of w, g, c placed at its own offset, and fails on the first
// weight or cache element that differs or gradient left uncleared.
func checkRMSParity(t *testing.T, w, g, c []float64, lr, rho, eps float64, off int) {
	t.Helper()
	wantW, wantG, wantC := append([]float64(nil), w...), append([]float64(nil), g...), append([]float64(nil), c...)
	rmsprop(wantW, wantG, wantC, lr, rho, eps)
	for _, k := range trainTiers() {
		wb, wv := placed(w, off)
		gb, gv := placed(g, (off+3)%8)
		cb, cv := placed(c, (off+5)%8)
		k.rms(wv, gv, cv, lr, rho, eps)
		checkPlaced(t, "rmsprop w "+k.name, wb, off, wantW)
		checkPlaced(t, "rmsprop c "+k.name, cb, (off+5)%8, wantC)
		checkPlaced(t, "rmsprop g "+k.name, gb, (off+3)%8, wantG)
	}
	for i, v := range wantG {
		if math.Float64bits(v) != 0 {
			t.Fatalf("rmsprop left gradient %d at %v", i, v)
		}
	}
}

// gradKinds are the value families the parity tables feed the kernels:
// ordinary, exact zeros, subnormals, magnitudes whose square overflows,
// and ordinary values with NaNs at a few positions.
var gradKinds = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"normal", randVec},
	{"zero", func(_ *rand.Rand, n int) []float64 { return make([]float64, n) }},
	{"subnormal", func(rng *rand.Rand, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(rng.Uint64() & 0x800fffffffffffff)
		}
		return v
	}},
	{"1e300", func(rng *rand.Rand, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = (rng.Float64() + 1) * 1e300 * float64(1-2*rng.Intn(2))
		}
		return v
	}},
	{"nan", func(rng *rand.Rand, n int) []float64 {
		v := randVec(rng, n)
		for _, at := range []int{0, n / 3, n - 1, 7, 8, 31} {
			if at >= 0 && at < n {
				v[at] = math.NaN()
			}
		}
		return v
	}},
}

// absVec is a running mean of squares: non-negative, with exact zeros.
func absVec(rng *rand.Rand, n int) []float64 {
	v := randVec(rng, n)
	for i := range v {
		v[i] = math.Abs(v[i])
		if i%5 == 0 {
			v[i] = 0
		}
	}
	return v
}

// Every length through 67 — below a vector, whole blocks, every tail of
// the four- and eight-lane loops, the Phase-2 row lengths 2 and 32 — at
// every alignment offset, for each gradient family.
func TestAxpyKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	factors := []float64{0.37, -2.5, 1e300, 5e-324, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			for _, kind := range gradKinds {
				f := factors[(n+off)%len(factors)]
				checkAxpyParity(t, f, kind.gen(rng, n), randVec(rng, n), off, (off*3)%8)
				checkAxpyParity(t, rng.NormFloat64(), randVec(rng, n), kind.gen(rng, n), off, (off+1)%8)
			}
		}
	}
}

func TestRMSpropKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	hyper := []struct{ lr, rho, eps float64 }{{0.01, 0.9, 1e-8}, {0.01 / 16, 0.9, 1e-8}, {0.3, 0.5, 1e-3}}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			for _, kind := range gradKinds {
				h := hyper[(n+off)%len(hyper)]
				checkRMSParity(t, randVec(rng, n), kind.gen(rng, n), absVec(rng, n), h.lr, h.rho, h.eps, off)
			}
		}
	}
}

func TestRMSpropStepPanicsOnShape(t *testing.T) {
	for _, c := range []struct{ w, g, c int }{{4, 3, 4}, {4, 4, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("w/g/c %d/%d/%d: no panic", c.w, c.g, c.c)
				}
			}()
			RMSpropStep(make([]float64, c.w), make([]float64, c.g), make([]float64, c.c), 0.01, 0.9, 1e-8)
		}()
	}
}

// FuzzTrainKernelParity reinterprets arbitrary bytes as the operands and
// hyperparameters of both element-wise training kernels — NaN payloads,
// infinities, signed zeros and subnormals included — and holds every
// tier to the Go loops' exact bits at the fuzzed length and alignment.
func FuzzTrainKernelParity(f *testing.F) {
	pack := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte(nil), uint8(0), uint8(0))
	f.Add(pack(0.01, 0.9, 1e-8, 0.5, -1.25, 3, 0.125), uint8(32), uint8(1))
	f.Add(pack(0.01, 0.9, 1e-8, 1e300, -1e300, 2, 0), uint8(2), uint8(7))
	f.Add(pack(0.01, 0.9, 1e-8, 5e-324, math.Copysign(0, -1), 1, -1), uint8(67), uint8(13))
	f.Add(pack(0.01, 0.9, 1e-8, math.NaN(), 1, math.Inf(-1), 0.25), uint8(9), uint8(42))
	f.Fuzz(func(t *testing.T, data []byte, n, off uint8) {
		size, o := int(n%68), int(off%8)
		hp := floatsFrom(data, 0, 3)
		lr, rho, eps := hp[0], hp[1], hp[2]
		fx := floatsFrom(data, 3, 1)[0]
		checkAxpyParity(t, fx, floatsFrom(data, 4, size), floatsFrom(data, 5, size), o, int(off/8%8))
		checkRMSParity(t, floatsFrom(data, 6, size), floatsFrom(data, 7, size), floatsFrom(data, 8, size), lr, rho, eps, o)
	})
}

// TestGateMatVecTMatchesGateMatVec holds the training forward's gate —
// the serving kernel over transposes the caller keeps — to GateMatVec on
// the row-major weights, at the Phase-2 shapes and ragged ones.
func TestGateMatVecTMatchesGateMatVec(t *testing.T) {
	if !GateTransposed(4) {
		t.Skip("no gate kernel on this host or build: training keeps GateMatVec")
	}
	rng := rand.New(rand.NewSource(23))
	for _, hidden := range []int{1, 3, 8, 9, 32} {
		for _, in := range []int{0, 1, 2, 7, hidden} {
			rows := 4 * hidden
			wx, wh := randMat(rng, rows, in), randMat(rng, rows, hidden)
			x, h, bias := randVec(rng, in), randVec(rng, hidden), randVec(rng, rows)
			want, got := make([]float64, rows), make([]float64, rows)
			GateMatVec(want, wx, x, wh, h, bias)
			GateMatVecT(got, wx.T(), x, wh.T(), h, bias)
			for i := range want {
				if !sameGate(got[i], want[i]) {
					t.Fatalf("rows %d in %d: row %d = %x, GateMatVec %x", rows, in, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// GateTransposed names exactly the shapes a serving image keeps
// transposes for: the training forward and serving agree on which gates
// run the kernel.
func TestGateTransposedMatchesGateWeights(t *testing.T) {
	for rows := 1; rows <= 12; rows++ {
		g := NewGateWeights(New(rows, 2), New(rows, 3), make([]float64, rows))
		if GateTransposed(rows) != (g.wxT != nil) {
			t.Fatalf("rows %d: GateTransposed %v, image transposed %v", rows, GateTransposed(rows), g.wxT != nil)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("GateMatVecT on 6 rows: no panic")
			}
		}()
		GateMatVecT(make([]float64, 6), New(2, 6), make([]float64, 2), New(3, 6), make([]float64, 3), make([]float64, 6))
	}()
}

func TestTrainKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x, y := randVec(rng, 32), randVec(rng, 32)
	w, g, c := randVec(rng, 4096), randVec(rng, 4096), absVec(rng, 4096)
	if n := testing.AllocsPerRun(100, func() { axpy(0.5, x, y) }); n != 0 {
		t.Fatalf("axpy allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { RMSpropStep(w, g, c, 0.01, 0.9, 1e-8) }); n != 0 {
		t.Fatalf("RMSpropStep allocates %v per call", n)
	}
}

// BenchmarkGateBackward times GateBackward — its four row updates on the
// tier that serves — at DefaultConfig's Phase-2 shape (In 2, H 32): layer1
// is dz 128 over [128x2]+[128x32], layer2 over [128x32]+[128x32].
func BenchmarkGateBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	for _, l := range []struct {
		name string
		in   int
	}{{"layer1", 2}, {"layer2", 32}} {
		const H = 32
		wx, wh := randMat(rng, 4*H, l.in), randMat(rng, 4*H, H)
		gWx, gWh := New(4*H, l.in), New(4*H, H)
		dz, x, h := randVec(rng, 4*H), randVec(rng, l.in), randVec(rng, H)
		dx, dh := make([]float64, l.in), make([]float64, H)
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GateBackward(dz, wx, gWx, wh, gWh, x, h, dx, dh)
			}
		})
	}
}
