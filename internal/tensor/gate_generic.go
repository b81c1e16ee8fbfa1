//go:build !amd64 || purego

package tensor

// Without the assembly kernel a GateWeights never holds transposed
// copies, so gateT is never reached.
const useAVX2 = false

func gateT(dst, wxT, x, whT, h, bias []float64) {
	panic("tensor: gateT needs the amd64 assembly kernel")
}
