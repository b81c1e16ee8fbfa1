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

func gateInT(sx, wxT, x []float64) {
	panic("tensor: gateInT needs the amd64 assembly kernel")
}

func gateRecT(dst, sx, whT, h, bias []float64) {
	panic("tensor: gateRecT needs the amd64 assembly kernel")
}

func gateIn512(sx, wxT, x []float64) {
	panic("tensor: gateIn512 needs the amd64 assembly kernel")
}

func gateRec512(dst, sx, whT, h, bias []float64) {
	panic("tensor: gateRec512 needs the amd64 assembly kernel")
}

func activate4(z, h, c []float64) int {
	panic("tensor: activate4 needs the amd64 assembly kernel")
}

func activate8(z, h, c []float64) int {
	panic("tensor: activate8 needs the amd64 assembly kernel")
}

func activate4T(z, h, c, acts, tc []float64) int {
	panic("tensor: activate4T needs the amd64 assembly kernel")
}

func activate8T(z, h, c, acts, tc []float64) int {
	panic("tensor: activate8T needs the amd64 assembly kernel")
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

func gateBack256(dz, x, wx, gwx, dx, h, wh, gwh, dh []float64) {
	panic("tensor: gateBack256 needs the amd64 assembly kernel")
}

func gateBack512(dz, x, wx, gwx, dx, h, wh, gwh, dh []float64) {
	panic("tensor: gateBack512 needs the amd64 assembly kernel")
}

func transpose256(dst, a []float64, rows, cols int) {
	panic("tensor: transpose256 needs the amd64 assembly kernel")
}

func transpose512(dst, a []float64, rows, cols int) {
	panic("tensor: transpose512 needs the amd64 assembly kernel")
}

func sumSquares256(acc *[8]float64, d []float64) {
	panic("tensor: sumSquares256 needs the amd64 assembly kernel")
}

func sumSquares512(acc *[8]float64, d []float64) {
	panic("tensor: sumSquares512 needs the amd64 assembly kernel")
}
