//go:build !purego

package tensor

// useAVX2 selects the lane-per-row gate kernel and useFMA the four-lane
// activation kernel (AVX2 and FMA both), once, from CPUID.
var useAVX2, useFMA = cpuFeatures()

//go:noescape
func gateT(dst, wxT, x, whT, h, bias []float64)

//go:noescape
func activate4(z, h, c []float64) int

func cpuFeatures() (avx2, avx2fma bool)
