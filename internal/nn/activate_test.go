package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"desh/internal/tensor"
)

// sameActivation reports whether the kernel's value equals the scalar
// loop's bit for bit. Two NaNs count as equal whatever their payloads,
// as in tensor's FuzzGateKernelParity: which NaN survives an operation
// on two of them depends on operand order, the Go compiler's choice.
func sameActivation(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// activationPath is one way activate's work gets done on this host: a
// kernel tier finished from its return value by the scalar loop, as
// activate finishes the tier it selects.
type activationPath struct {
	name string
	run  func(z, h, c []float64)
}

// activationPaths lists every kernel tier this host and build can run
// (tensor.ActivationTiers; activate runs the last), or on the generic
// path activate itself. The parity suites hold each to the scalar loop,
// so that an AVX-512 host still tests the AVX2 kernel.
func activationPaths() []activationPath {
	var ps []activationPath
	for _, k := range tensor.ActivationTiers() {
		ps = append(ps, activationPath{k.Name, func(z, h, c []float64) { activateFrom(k.Run(z, h, c), z, h, c) }})
	}
	if len(ps) == 0 {
		ps = append(ps, activationPath{"generic", activate})
	}
	return ps
}

// checkActivationParity runs every activation path and activateFrom(0)
// (the scalar loop) on copies of one cell state and fails on the first
// unit whose h or c differs.
func checkActivationParity(t *testing.T, z, h, c []float64) {
	t.Helper()
	H := len(h)
	wantH, wantC := append([]float64(nil), h...), append([]float64(nil), c...)
	activateFrom(0, z, wantH, wantC)
	for _, p := range activationPaths() {
		gotH, gotC := append([]float64(nil), h...), append([]float64(nil), c...)
		p.run(z, gotH, gotC)
		for j := 0; j < H; j++ {
			if !sameActivation(gotC[j], wantC[j]) || !sameActivation(gotH[j], wantH[j]) {
				t.Fatalf("H=%d (%s) unit %d, z = %x %x %x %x, c = %x:\n  c' = %x, scalar %x\n  h' = %x, scalar %x",
					H, p.name, j,
					math.Float64bits(z[j]), math.Float64bits(z[H+j]), math.Float64bits(z[2*H+j]), math.Float64bits(z[3*H+j]),
					math.Float64bits(c[j]), math.Float64bits(gotC[j]), math.Float64bits(wantC[j]),
					math.Float64bits(gotH[j]), math.Float64bits(wantH[j]))
			}
		}
	}
}

// Hidden widths below one block, with tail units, exact multiples, and
// the serving width.
func TestActivateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	for _, H := range []int{1, 3, 4, 5, 8, 12, 31, 32, 64} {
		for _, scale := range []float64{0.1, 1, 4, 30} {
			z, h, c := make([]float64, 4*H), make([]float64, H), make([]float64, H)
			for i := range z {
				z[i] = scale * rng.NormFloat64()
			}
			for i := range c {
				h[i], c[i] = rng.NormFloat64(), scale*rng.NormFloat64()
			}
			checkActivationParity(t, z, h, c)
		}
	}
}

// TestActivateHandsBack pins each tier's contract on what it does not
// transcribe: whole blocks only (the tier's width, then one of four at
// the end), stop at the first block with a sigmoid input out of range
// and touch nothing from there on, no restriction on the tanh input or
// the cell state. H = 14 ends in two scalar units; 12 and 36 are blocks
// of eight (or four) and a last block of four.
func TestActivateHandsBack(t *testing.T) {
	tiers := tensor.ActivationTiers()
	if len(tiers) == 0 {
		if n := tensor.ActivateLSTM(make([]float64, 16), make([]float64, 4), make([]float64, 4)); n != 0 {
			t.Fatalf("generic path: ActivateLSTM finished %d units, want 0", n)
		}
		return
	}
	for _, k := range tiers {
		for _, H := range []int{14, 12, 36} {
			fresh := func() (z, h, c []float64) {
				z, h, c = make([]float64, 4*H), make([]float64, H), make([]float64, H)
				for i := range z {
					z[i] = float64(i%7) - 3
				}
				for i := range c {
					h[i], c[i] = 9, float64(i)-5
				}
				return
			}
			whole := H / 4 * 4
			z, h, c := fresh()
			z[2*H+1], z[2*H+6], c[2], c[9] = math.Inf(1), math.NaN(), math.Inf(-1), 1e300
			if n := k.Run(z, h, c); n != whole {
				t.Fatalf("%s H=%d finite sigmoid inputs: kernel finished %d units, want %d", k.Name, H, n, whole)
			}
			checkActivationParity(t, z, h, c)

			for _, bad := range []float64{708, -708, 745, math.Inf(1), math.Inf(-1), math.NaN()} {
				for _, gate := range []int{0, 1, 3} {
					for _, u := range []int{6, H - 2} { // in an early block; in the last block or past it
						z, h, c := fresh()
						z[gate*H+u] = bad
						h0, c0 := append([]float64(nil), h...), append([]float64(nil), c...)
						want := whole
						if u < whole {
							want = u / k.Block * k.Block
						}
						n := k.Run(z, h, c)
						if n != want {
							t.Fatalf("%s H=%d gate %d unit %d input %v: kernel finished %d units, want %d", k.Name, H, gate, u, bad, n, want)
						}
						for j := n; j < H; j++ {
							if h[j] != h0[j] || c[j] != c0[j] {
								t.Fatalf("%s H=%d gate %d input %v: kernel touched unit %d past its return value %d", k.Name, H, gate, bad, j, n)
							}
						}
						checkActivationParity(t, z, h0, c0)
					}
				}
			}
		}
	}
}

// The per-function tables reach one transcription at a time through
// activate by pinning the rest of the cell to exact identities:
// sigmoid(700) = 1 and tanh(50) = 1 exactly, sigmoid(-700) is about
// 1e-304 and vanishes against anything it is added to, and 1·x, x + 0
// and 0 + x are exact.

// unaryInputs is the boundary table every function sees, each value in
// a block of its own (lane k%8 of eight, the rest 0.5) so that a value a
// kernel hands back takes no other with it, then n random draws: uniform
// over ±span, uniform over ±1, and log-uniform magnitudes from 1e-320 to
// maxMag.
func unaryInputs(rng *rand.Rand, n int, span, maxMag float64) []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	table := []float64{0, math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074, 0x1p-1022, 1e-300, 1e-17, 0x1p-53, 0x1p-27,
		0.5, 0.625, 1, 1.25, 19, 36.7, 37, 40, halfMaxLog, 2 * halfMaxLog, 100, 700, 707.9, 708, 708.4, 709.78, 709.79,
		745, 745.2, 1e300, math.MaxFloat64, math.Inf(1)}
	for _, x := range table[:len(table):len(table)] {
		if !math.IsInf(x, 0) && x != 0 {
			table = append(table, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
		}
	}
	for _, x := range table[:len(table):len(table)] {
		table = append(table, -x)
	}
	table = append(table, math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc))
	xs := make([]float64, 0, 8*len(table)+n)
	for k, x := range table {
		block := [8]float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
		block[k%8] = x
		xs = append(xs, block[:]...)
	}
	lo, hi := -320.0, math.Log10(maxMag)
	for i := 0; i < n; i++ {
		var x float64
		switch i % 3 {
		case 0:
			x = span * (2*rng.Float64() - 1)
		case 1:
			x = 2*rng.Float64() - 1
		default:
			x = math.Copysign(math.Pow(10, lo+(hi-lo)*rng.Float64()), rng.Float64()-0.5)
		}
		xs = append(xs, x)
	}
	return xs
}

// viaCell runs every activation path over xs, eight at a time in cells
// of one eight-unit block (two of four). set fills a unit's four gate
// inputs and cell state for input x; out picks the result (h' or c')
// that must equal want(x).
func viaCell(t *testing.T, name string, xs []float64, want func(float64) float64,
	set func(x float64) (zi, zf, zg, zo, c float64), out func(h, c float64) float64) {
	t.Helper()
	const H = 8
	z, h, c := make([]float64, 4*H), make([]float64, H), make([]float64, H)
	for _, p := range activationPaths() {
		for xs := xs; len(xs) > 0; xs = xs[min(H, len(xs)):] {
			for j := 0; j < H; j++ {
				z[j], z[H+j], z[2*H+j], z[3*H+j], c[j] = set(xs[j%len(xs)])
			}
			p.run(z, h, c)
			for j, x := range xs[:min(H, len(xs))] {
				if got, w := out(h[j], c[j]), want(x); !sameActivation(got, w) {
					t.Fatalf("%s(%v = %x) through %s activate = %x (%v), scalar %x (%v)",
						name, x, math.Float64bits(x), p.name, math.Float64bits(got), got, math.Float64bits(w), w)
				}
			}
		}
	}
}

func cellOut(_, c float64) float64   { return c }
func hiddenOut(h, _ float64) float64 { return h }

// TestKernelSigmoid pins the sigmoid transcription against nn.sigmoid
// at each of its three sites: i (c' = f·0 + i·1), f (c' = f·1 + i·0)
// and o (h' = o·tanh(50)).
func TestKernelSigmoid(t *testing.T) {
	xs := unaryInputs(rand.New(rand.NewSource(162)), 1_000_000, 707.9, 707.9)
	viaCell(t, "sigmoid[i]", xs, sigmoid,
		func(x float64) (zi, zf, zg, zo, c float64) { return x, 0, 50, 0, 0 }, cellOut)
	viaCell(t, "sigmoid[f]", xs, sigmoid,
		func(x float64) (zi, zf, zg, zo, c float64) { return 0, x, 0, 0, 1 }, cellOut)
	viaCell(t, "sigmoid[o]", xs, sigmoid,
		func(x float64) (zi, zf, zg, zo, c float64) { return -700, 700, 0, x, 50 }, hiddenOut)
}

// TestKernelTanh pins the tanh transcription against math.Tanh at both
// of its sites. At the g site c' = f·0 + 1·tanh(x), which loses the sign
// of a zero and nothing else; at the cell site c' = 1·x + i·(±0) = x
// with the zero's sign chosen to keep x's, and h' = 1·tanh(x).
func TestKernelTanh(t *testing.T) {
	xs := unaryInputs(rand.New(rand.NewSource(163)), 1_000_000, 50, 1e300)
	viaCell(t, "tanh[g]", xs, func(x float64) float64 { return 0 + math.Tanh(x) },
		func(x float64) (zi, zf, zg, zo, c float64) { return 700, 0, x, 0, 0 }, cellOut)
	viaCell(t, "tanh[c]", xs, math.Tanh,
		func(x float64) (zi, zf, zg, zo, c float64) { return -700, 700, math.Copysign(0, x), 700, x }, hiddenOut)
}

// TestKernelExp pins the exp transcription alone against math.Exp. The
// kernel has one entry point, so exp is visible by itself only where
// sigmoid(x) = e/(1+e) returns e untouched: for x <= -37, e is below
// 2^-53 and 1+e rounds to 1. The rest of exp's domain ((-37, 0] under
// sigmoid, [1.25, 88.03] under tanh) is pinned through those functions'
// own tables above.
func TestKernelExp(t *testing.T) {
	rng := rand.New(rand.NewSource(164))
	xs := []float64{-37, math.Nextafter(-37, -38), -100, -500, -700, -707.9, math.Nextafter(-708, 0), -708, -708.4, -745, -745.2, -746}
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, -37-671*rng.Float64())
	}
	for _, x := range xs {
		if s, e := sigmoid(x), math.Exp(x); s != e {
			t.Fatalf("premise: sigmoid(%v) = %v is not exp = %v", x, s, e)
		}
	}
	viaCell(t, "exp", xs, math.Exp,
		func(x float64) (zi, zf, zg, zo, c float64) { return x, 0, 50, 0, 0 }, cellOut)
}

func TestActivateAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(165))
	for _, H := range []int{32, 30} { // whole blocks; blocks plus a scalar tail
		z, h, c := make([]float64, 4*H), make([]float64, H), make([]float64, H)
		for i := range z {
			z[i] = 2 * rng.NormFloat64()
		}
		if n := testing.AllocsPerRun(100, func() { activate(z, h, c) }); n != 0 {
			t.Fatalf("activate allocates %v per call at H=%d", n, H)
		}
	}
}

// FuzzActivationParity holds activate — the assembly kernel plus the
// scalar loop behind it — to the scalar loop alone, bit for bit, on an
// arbitrary cell: z, h and c are the fuzzer's bytes reinterpreted as
// float64 bit patterns (mode 0: NaN payloads, infinities, signed zeros,
// subnormals) or as fixed-point values spread over ±64 and ±1024 (modes
// 1 and 2: the ranges where the kernel runs and where its hand-back
// bound lies), with tail units and blocks mixing lanes the kernel takes
// with lanes it does not.
//
// The reference is the building toolchain's math.Exp and math.Tanh, so
// this is also the tripwire for a Go release that changes exp_amd64.s or
// tanh.go: the kernel copies their operation sequences as of Go 1.24,
// and this target fails, rather than serving drifts, if they move.
func FuzzActivationParity(f *testing.F) {
	pack := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	both := func(x float64) []float64 {
		return []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)), -x}
	}
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	sNaN := math.Float64frombits(0x7ff0000000000001)
	f.Add([]byte(nil), uint8(0), uint8(31))
	f.Add(pack(0, negZero, 1, -1), uint8(0), uint8(3))
	f.Add(pack(negZero), uint8(0), uint8(7))
	f.Add(pack(math.SmallestNonzeroFloat64, -0x1p-1022, 0x1p-1022-0x1p-1074, 1e-310, 0.5), uint8(0), uint8(7))
	f.Add(pack(inf, 1, -inf, 0.25, 2), uint8(0), uint8(15))
	f.Add(pack(math.NaN(), 1, 2, 3, 4, 5, 6), uint8(0), uint8(11))
	f.Add(pack(1, 2, sNaN, 3, 4, 5, 6, 7, 8, 9, 10), uint8(0), uint8(4))
	f.Add(pack(both(0.625)...), uint8(0), uint8(31))
	f.Add(pack(append(both(0.625), 0.3, -2, 7)...), uint8(0), uint8(12))
	f.Add(pack(both(halfMaxLog)...), uint8(0), uint8(31))
	f.Add(pack(append(both(halfMaxLog), 1, 88.1, -30)...), uint8(0), uint8(9))
	f.Add(pack(append(both(708), 1)...), uint8(0), uint8(31))
	f.Add(pack(709.78, -709.78, 709.79, 1, 2), uint8(0), uint8(15))
	f.Add(pack(745, -745, 745.2, -746, 1, 0.5, -3), uint8(0), uint8(15))
	// One out-of-range lane in an otherwise in-range cell: every 23rd
	// value, so it lands in different gates and blocks as H varies.
	mixed := make([]float64, 23)
	for i := range mixed {
		mixed[i] = float64(i)/4 - 3
	}
	mixed[22] = 1e4
	f.Add(pack(mixed...), uint8(0), uint8(31))
	mixed[22] = math.NaN()
	f.Add(pack(mixed...), uint8(0), uint8(19))
	mixed[22] = -inf
	f.Add(pack(mixed...), uint8(0), uint8(63))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(1), uint8(31))
	f.Add([]byte("Lustre: haven't heard from client for 227s; evicting"), uint8(2), uint8(32))
	f.Fuzz(func(t *testing.T, data []byte, mode, hid uint8) {
		H := 1 + int(hid%64)
		checkActivationParity(t, cellFrom(data, mode, 0, 4*H), cellFrom(data, mode, 1, H), cellFrom(data, mode, 2, H))
	})
}

// cellFrom reads n values out of data, one per 8 bytes, wrapping around
// (all zeros when there are fewer than 8 bytes): raw float64 bits in
// mode 0, else a signed 64-bit fixed-point number scaled to ±64 (mode 1)
// or ±1024 (mode 2).
func cellFrom(data []byte, mode uint8, skip, n int) []float64 {
	out := make([]float64, n)
	words := len(data) / 8
	if words == 0 {
		return out
	}
	for i := range out {
		u := binary.LittleEndian.Uint64(data[8*((skip+i)%words):])
		switch mode % 3 {
		case 0:
			out[i] = math.Float64frombits(u)
		case 1:
			out[i] = float64(int64(u)) * 0x1p-57
		default:
			out[i] = float64(int64(u)) * 0x1p-53
		}
	}
	return out
}

// BenchmarkActivate is the cell's element-wise half at the serving
// width, H = 32: each kernel tier this host can run (finished by the
// scalar loop, as activate finishes it) and the scalar loop beside them.
func BenchmarkActivate(b *testing.B) {
	rng := rand.New(rand.NewSource(166))
	const H = 32
	z, h, c := make([]float64, 4*H), make([]float64, H), make([]float64, H)
	for i := range z {
		z[i] = 2 * rng.NormFloat64()
	}
	for _, p := range activationPaths() {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.run(z, h, c)
			}
		})
	}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			activateFrom(0, z, h, c)
		}
	})
}
