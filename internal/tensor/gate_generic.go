//go:build !amd64 || purego

package tensor

// Without the assembly kernels a GateWeights never holds transposed
// copies, ActivateLSTM finishes nothing, GateTransposed is false and the
// training kernels run their Go loops, so no kernel below is ever
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

func axpy256(f float64, x, y []float64) {
	panic("tensor: axpy256 needs the amd64 assembly kernel")
}

func axpy512(f float64, x, y []float64) {
	panic("tensor: axpy512 needs the amd64 assembly kernel")
}

func rms256(w, g, c []float64, lr, rho, omr, eps float64) {
	panic("tensor: rms256 needs the amd64 assembly kernel")
}

func rms512(w, g, c []float64, lr, rho, omr, eps float64) {
	panic("tensor: rms512 needs the amd64 assembly kernel")
}
