//go:build !amd64 || purego

package tensor

// Without the assembly kernels a GateWeights never holds transposed
// copies and ActivateLSTM finishes nothing, so no kernel below is ever
// reached.
const (
	useAVX2   = false
	useFMA    = false
	useAVX512 = false
)

func gateT(dst, wxT, x, whT, h, bias []float64) {
	panic("tensor: gateT needs the amd64 assembly kernel")
}

func gate512(dst, wxT, x, whT, h, bias []float64) {
	panic("tensor: gate512 needs the amd64 assembly kernel")
}

func activate4(z, h, c []float64) int {
	panic("tensor: activate4 needs the amd64 assembly kernel")
}

func activate8(z, h, c []float64) int {
	panic("tensor: activate8 needs the amd64 assembly kernel")
}
