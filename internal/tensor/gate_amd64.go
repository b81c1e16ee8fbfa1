//go:build !purego

package tensor

// The serving kernels come in tiers, chosen once from CPUID: useAVX2
// selects the lane-per-row gate kernel and useFMA the four-lane
// activation kernel (AVX2 and FMA both); useAVX512 (AVX2+FMA plus
// AVX512F/DQ and the OS saving the opmask and ZMM state) widens both to
// eight lanes. Each tier implies the one before it. Training runs on the
// same tiers: the gate kernel over transposes of the live weights
// (GateMatVecT), and the row update and RMSprop kernels at four lanes
// under useAVX2 and eight under useAVX512.
var useAVX2, useFMA, useAVX512 = cpuFeatures()

//go:noescape
func gateInT(sx, wxT, x []float64)

//go:noescape
func gateRecT(dst, sx, whT, h, bias []float64)

//go:noescape
func gateIn512(sx, wxT, x []float64)

//go:noescape
func gateRec512(dst, sx, whT, h, bias []float64)

//go:noescape
func activate4(z, h, c []float64) int

//go:noescape
func activate8(z, h, c []float64) int

//go:noescape
func activate4T(z, h, c, acts, tc []float64) int

//go:noescape
func activate8T(z, h, c, acts, tc []float64) int

func cpuFeatures() (avx2, avx2fma, avx512 bool)

//go:noescape
func axpy256(f float64, x, y []float64)

//go:noescape
func axpy512(f float64, x, y []float64)

//go:noescape
func rms256(w, g, c []float64, lr, rho, omr, eps float64)

//go:noescape
func rms512(w, g, c []float64, lr, rho, omr, eps float64)

//go:noescape
func gateBack256(dz, x, wx, gwx, dx, h, wh, gwh, dh []float64)

//go:noescape
func gateBack512(dz, x, wx, gwx, dx, h, wh, gwh, dh []float64)

//go:noescape
func transpose256(dst, a []float64, rows, cols int)

//go:noescape
func transpose512(dst, a []float64, rows, cols int)

//go:noescape
func sumSquares256(acc *[8]float64, d []float64)

//go:noescape
func sumSquares512(acc *[8]float64, d []float64)
