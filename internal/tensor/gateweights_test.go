package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameGate reports whether MatVec's result equals GateMatVec's bit for
// bit. Two NaNs count as equal whatever their payloads: when different
// NaNs meet in one operation x86 keeps the first operand's, and operand
// order in the scalar kernel is the Go compiler's choice, not ours.
func sameGate(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// gateTier is one gate kernel: the name GateKernel reports while it
// serves, and its two halves over a GateWeights' transposed image.
type gateTier struct {
	name string
	in   func(sx, wxT, x []float64)
	rec  func(dst, sx, whT, h, bias []float64)
}

// run is the tier's whole gate, the input half into dst and the
// recurrent half over it, as GateWeights.MatVec runs the tier it
// selects.
func (k gateTier) run(dst, wxT, x, whT, h, bias []float64) {
	k.in(dst, wxT, x)
	k.rec(dst, dst, whT, h, bias)
}

// gateTiers lists every gate kernel this host and build can run,
// narrowest first; GateWeights runs the last. The parity table and the
// fuzz target hold each one to GateMatVec, so that an AVX-512 host still
// tests the AVX2 kernel.
func gateTiers() []gateTier {
	var t []gateTier
	if useAVX2 {
		t = append(t, gateTier{"avx2", gateInT, gateRecT})
	}
	if useAVX512 {
		t = append(t, gateTier{"avx512", gateIn512, gateRec512})
	}
	return t
}

// checkGateParity runs GateMatVec, MatVec and every gate tier on one
// problem and fails on the first row that differs.
func checkGateParity(t *testing.T, wx, wh *Matrix, x, h, bias []float64) {
	t.Helper()
	want := make([]float64, wx.Rows)
	got := make([]float64, wx.Rows)
	GateMatVec(want, wx, x, wh, h, bias)
	g := NewGateWeights(wx, wh, bias)
	check := func(kernel string) {
		for i := range want {
			if !sameGate(got[i], want[i]) {
				t.Fatalf("rows %d in %d hidden %d (%s): row %d = %x, GateMatVec %x",
					wx.Rows, wx.Cols, wh.Cols, kernel, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	g.MatVec(got, x, h)
	check("MatVec on " + GateKernel())
	if g.wxT == nil {
		return
	}
	for _, k := range gateTiers() {
		clear(got)
		k.run(got, g.wxT, x, g.whT, h, bias)
		check(k.name)
	}
}

// The serving shapes plus ragged ones: 4H below 16 (tail only), 4H not
// a multiple of 16 or 32 (blocks plus a tail of eight, of four, or
// both), no input columns at all, and row counts the kernels do not
// take (served by GateMatVec).
func TestGateWeightsMatchesGateMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, hidden := range []int{1, 2, 3, 9, 10, 16, 32, 50} {
		for _, in := range []int{0, 1, 2, 7, hidden} {
			rows := 4 * hidden
			checkGateParity(t, randMat(rng, rows, in), randMat(rng, rows, hidden),
				randVec(rng, in), randVec(rng, hidden), randVec(rng, rows))
		}
	}
	for _, rows := range []int{1, 7, 18} {
		checkGateParity(t, randMat(rng, rows, 3), randMat(rng, rows, 5),
			randVec(rng, 3), randVec(rng, 5), randVec(rng, rows))
	}
}

// TestGateHalvesMatchMatVec holds the two halves to GateMatVec bit for
// bit at every tier: Recur(Input(x), h), into a separate dst and in
// place over sx, through GateWeights and straight on each tier's
// kernels. R covers the tails of both widths (4, 12, 36), whole blocks
// (8, 32) and the served 4H (128); X and H cover no columns at all, one
// or two, and 31 to 64. Weights, inputs and bias carry ±0, ±Inf and
// NaN in some rows.
func TestGateHalvesMatchMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	spike := func(v []float64) []float64 {
		for i := range v {
			if rng.Intn(9) == 0 {
				v[i] = special[rng.Intn(len(special))]
			}
		}
		return v
	}
	widths := []int{0, 1, 2, 31, 32, 64}
	for _, R := range []int{4, 8, 12, 32, 36, 128} {
		for _, X := range widths {
			for _, H := range widths {
				wx, wh := randMat(rng, R, X), randMat(rng, R, H)
				spike(wx.Data)
				spike(wh.Data)
				x, h, bias := spike(randVec(rng, X)), spike(randVec(rng, H)), spike(randVec(rng, R))
				want := make([]float64, R)
				GateMatVec(want, wx, x, wh, h, bias)
				check := func(kernel string, got []float64) {
					t.Helper()
					for i := range want {
						if !sameGate(got[i], want[i]) {
							t.Fatalf("R %d X %d H %d (%s): row %d = %x, GateMatVec %x",
								R, X, H, kernel, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
				g := NewGateWeights(wx, wh, bias)
				sx, dst := make([]float64, R), make([]float64, R)
				g.Input(sx, x)
				g.Recur(dst, sx, h)
				check("GateWeights on "+GateKernel(), dst)
				g.Recur(sx, sx, h)
				check("GateWeights in place on "+GateKernel(), sx)
				wxT, whT := wx.T().Data, wh.T().Data
				for _, k := range gateTiers() {
					clear(sx)
					clear(dst)
					k.in(sx, wxT, x)
					k.rec(dst, sx, whT, h, bias)
					check(k.name, dst)
					k.rec(sx, sx, whT, h, bias)
					check(k.name+" in place", sx)
				}
			}
		}
	}
}

// TestKernelSelection pins the tiers: each implies the one below it
// (the wide tier is chosen only on top of AVX2+FMA), and GateKernel and
// ActivationKernel name the kernel the dispatch runs. For the activation
// that is observable: the tiers hand a block back at different widths,
// so a cell whose one out-of-range input sits in unit 4 of 8 comes back
// with 4 units done at four a block and 0 at eight.
func TestKernelSelection(t *testing.T) {
	if useFMA && !useAVX2 || useAVX512 && !useFMA {
		t.Fatalf("tiers out of order: avx2 %v, avx2+fma %v, avx512 %v", useAVX2, useFMA, useAVX512)
	}
	gates, acts := gateTiers(), ActivationTiers()
	wantGate, wantAct, block := "generic", "generic", 0
	if len(gates) > 0 {
		wantGate = gates[len(gates)-1].name
	}
	if len(acts) > 0 {
		wantAct, block = acts[len(acts)-1].Name, acts[len(acts)-1].Block
	}
	if GateKernel() != wantGate || ActivationKernel() != wantAct {
		t.Fatalf("GateKernel %q, ActivationKernel %q; want %q, %q", GateKernel(), ActivationKernel(), wantGate, wantAct)
	}
	if copies := NewGateWeights(New(8, 2), New(8, 2), make([]float64, 8)).wxT != nil; copies != useAVX2 {
		t.Fatalf("GateWeights holds a transposed image: %v, with avx2 %v", copies, useAVX2)
	}
	const H = 8
	z, h, c := make([]float64, 4*H), make([]float64, H), make([]float64, H)
	z[4] = math.Inf(1)
	if n, want := ActivateLSTM(z, h, c), 4/max(block, 1)*block; n != want {
		t.Fatalf("ActivateLSTM finished %d units, want %d from %s", n, want, wantAct)
	}
}
func TestGateWeightsCurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	wx, wh := randMat(rng, 64, 2), randMat(rng, 64, 16)
	g := NewGateWeights(wx, wh, randVec(rng, 64))
	if !g.Current() {
		t.Fatal("fresh image reports stale")
	}
	wh.Data[5] = -wh.Data[5]
	if useAVX2 && g.Current() {
		t.Fatal("image reports current after a weight moved")
	}
	wh.Data[5] = -wh.Data[5]
	wx.Data[0] = math.Copysign(0, -1)
	g = NewGateWeights(wx, wh, g.bias)
	wx.Data[0] = 0 // equal as a float, different bits, different products
	if useAVX2 && g.Current() {
		t.Fatal("image reports current after -0 became +0")
	}
}

func TestGateWeightsMatVecPanicsOnShape(t *testing.T) {
	g := NewGateWeights(New(8, 2), New(8, 4), make([]float64, 8))
	for _, c := range []struct{ dst, x, h int }{{7, 2, 4}, {8, 3, 4}, {8, 2, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dst/x/h %d/%d/%d: no panic", c.dst, c.x, c.h)
				}
			}()
			g.MatVec(make([]float64, c.dst), make([]float64, c.x), make([]float64, c.h))
		}()
	}
}

// floatsFrom reinterprets data as n float64 bit patterns, wrapping
// around when it runs out (all zeros when there are fewer than 8 bytes).
func floatsFrom(data []byte, skip, n int) []float64 {
	out := make([]float64, n)
	words := len(data) / 8
	if words == 0 {
		return out
	}
	for i := range out {
		w := (skip + i) % words
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*w:]))
	}
	return out
}

// FuzzGateKernelParity reinterprets arbitrary bytes as weights, inputs
// and bias — NaN payloads, infinities, signed zeros and subnormals
// included — and holds GateWeights.MatVec and every gate tier to
// GateMatVec's exact bits.
func FuzzGateKernelParity(f *testing.F) {
	pack := func(vs ...uint64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		return b
	}
	const (
		negZero = 0x8000000000000000
		one     = 0x3ff0000000000000
		negOne  = 0xbff0000000000000
		posInf  = 0x7ff0000000000000
		negInf  = 0xfff0000000000000
		qNaN    = 0x7ff8000000000abc
		sNaN    = 0x7ff0000000000001
		minSub  = 0x0000000000000001
		maxSub  = 0x000fffffffffffff
		maxF    = 0x7fefffffffffffff
		third   = 0x3fd5555555555555
		tiny    = 0x3ca0000000000000 // 2^-53: rounds away against 1
	)
	f.Add([]byte(nil), uint8(2), uint8(32))
	f.Add(pack(one, third, negOne, tiny), uint8(2), uint8(32))
	f.Add(pack(negZero, 0, negZero, one), uint8(1), uint8(3))
	f.Add(pack(negZero), uint8(0), uint8(1))
	f.Add(pack(posInf, one, negInf, one, 0), uint8(7), uint8(16))
	f.Add(pack(posInf, 0, one, third, negOne), uint8(2), uint8(50))
	f.Add(pack(qNaN, one, one, one, one, one, one), uint8(2), uint8(4))
	f.Add(pack(one, one, sNaN, one, one, one, one, one, one, one, one), uint8(3), uint8(5))
	f.Add(pack(minSub, maxSub, one, negOne, third), uint8(7), uint8(16))
	f.Add(pack(maxF, maxF, negOne, one, maxF), uint8(2), uint8(32))
	f.Add(pack(one, tiny, negOne, tiny, third, maxSub), uint8(8), uint8(13))
	f.Fuzz(func(t *testing.T, data []byte, in, hid uint8) {
		nx, nh := int(in%9), 1+int(hid%50)
		rows := 4 * nh
		wx := FromSlice(rows, nx, floatsFrom(data, 0, rows*nx))
		wh := FromSlice(rows, nh, floatsFrom(data, 3, rows*nh))
		checkGateParity(t, wx, wh, floatsFrom(data, 1, nx), floatsFrom(data, 2, nh), floatsFrom(data, 5, rows))
	})
}

func TestGateWeightsAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := NewGateWeights(randMat(rng, 128, 32), randMat(rng, 128, 32), randVec(rng, 128))
	dst, x, h := make([]float64, 128), randVec(rng, 32), randVec(rng, 32)
	if n := testing.AllocsPerRun(100, func() { g.MatVec(dst, x, h) }); n != 0 {
		t.Fatalf("MatVec allocates %v per call", n)
	}
}

// BenchmarkGateWeights times each gate kernel at DefaultConfig's
// Phase-2 shape (In 2, H 32, two layers): layer1 is [128x2]+[128x32],
// layer2 [128x32]+[128x32]. generic is GateMatVec on the row-major
// weights; the rest are the tiers this host can run. At layer2 each
// half runs alone beside the whole gate as well (layer2-input, the
// 32 KB wxᵀ; layer2-recur, the 32 KB whᵀ and the bias): together the
// two are the 64 KB the whole gate streams per call.
func BenchmarkGateWeights(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	generic := gateTier{"generic", nil, nil}
	for _, k := range append([]gateTier{generic}, gateTiers()...) {
		for _, l := range []struct {
			name string
			in   int
		}{{"layer1", 2}, {"layer2", 32}} {
			const H = 32
			wx, wh, bias := randMat(rng, 4*H, l.in), randMat(rng, 4*H, H), randVec(rng, 4*H)
			x, h, dst := randVec(rng, l.in), randVec(rng, H), make([]float64, 4*H)
			wxT, whT := wx.T().Data, wh.T().Data
			in, rec := k.in, k.rec
			if k.in == nil {
				in = func(sx, _, x []float64) { gateIn(sx, wx, x) }
				rec = func(dst, sx, _, h, bias []float64) { gateRec(dst, sx, wh, h, bias) }
			}
			bench := func(name string, f func()) {
				b.Run(k.name+"/"+name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						f()
					}
				})
			}
			bench(l.name, func() {
				in(dst, wxT, x)
				rec(dst, dst, whT, h, bias)
			})
			if l.name == "layer2" {
				bench(l.name+"-input", func() { in(dst, wxT, x) })
				bench(l.name+"-recur", func() { rec(dst, dst, whT, h, bias) })
			}
		}
	}
}
