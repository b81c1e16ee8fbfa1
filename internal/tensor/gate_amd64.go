//go:build !purego

package tensor

// useAVX2 selects the lane-per-row gate kernel, once, from CPUID.
var useAVX2 = hasAVX2()

//go:noescape
func gateT(dst, wxT, x, whT, h, bias []float64)

func hasAVX2() bool
