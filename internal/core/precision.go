package core

import (
	"fmt"

	"desh/internal/nn"
	"desh/internal/tensor"
)

// Precision selects which numeric path a serving Detector scores
// through. Training, BPTT and model files are float64 regardless; the
// precision only decides whether serving converts the trained weights
// to float32 once at load/swap time and runs the f32 kernels.
type Precision uint8

const (
	// PrecisionF64 scores through the float64 path — bit-identical to
	// the offline Predict pipeline and to every pre-existing
	// equivalence suite.
	PrecisionF64 Precision = iota
	// PrecisionF32 scores through the float32 serving stack: half the
	// model-resident bytes, scalar kernels on every host, gated by the
	// alert-equivalence tolerance suite instead of bitwise parity.
	PrecisionF32
)

// String returns the flag spelling ("f64" or "f32").
func (pr Precision) String() string {
	switch pr {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	default:
		return fmt.Sprintf("Precision(%d)", uint8(pr))
	}
}

// GateKernel names the LSTM gate kernel a detector of this precision
// serves on: tensor.GateKernel ("avx512", "avx2" or "generic") for f64,
// always "generic" for f32, whose kernels are scalar on every host.
func (pr Precision) GateKernel() string {
	if pr == PrecisionF32 {
		return "generic"
	}
	return tensor.GateKernel()
}

// ActivationKernel names the kernel behind the LSTM cell's sigmoid/tanh
// and state update at this precision: tensor.ActivationKernel
// ("avx512-fma", "avx2-fma" or "generic") for f64, always "generic" for
// f32.
func (pr Precision) ActivationKernel() string {
	if pr == PrecisionF32 {
		return "generic"
	}
	return tensor.ActivationKernel()
}

// ParsePrecision parses the -precision flag spelling.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64", "":
		return PrecisionF64, nil
	case "f32", "float32":
		return PrecisionF32, nil
	default:
		return PrecisionF64, fmt.Errorf("core: unknown precision %q (want f64 or f32)", s)
	}
}

// Convert32 returns the float32 serving image of the trained Phase-2
// model, converting on first use and caching the result. The cache is
// keyed on the model pointer, so installing a new phase2 (retrain,
// snapshot load) converts afresh while repeated detector builds over
// one model share a single conversion. Safe for concurrent use.
//
// The second result reports whether this call performed a conversion
// (false on a cache hit) — the signal behind the precision_conversions
// operator counter.
func (p *Pipeline) Convert32() (*nn.Forward32, bool, error) {
	if p.phase2 == nil {
		return nil, false, fmt.Errorf("core: Convert32 on untrained pipeline")
	}
	p.f32mu.Lock()
	defer p.f32mu.Unlock()
	if p.f32model != nil && p.f32of == p.phase2 {
		return p.f32model, false, nil
	}
	f, err := p.phase2.Convert32()
	if err != nil {
		return nil, false, err
	}
	p.f32model, p.f32of = f, p.phase2
	return f, true, nil
}

// NewDetectorPrecision builds a scoring context for the trained model
// on the chosen numeric path. PrecisionF32 converts the weights on
// first use (cached per model) and returns a typed error — never a
// panic — if any trained weight has no finite float32 encoding. Like
// NewDetector, it panics if the pipeline is untrained.
func (p *Pipeline) NewDetectorPrecision(prec Precision) (*Detector, error) {
	if prec != PrecisionF32 {
		return p.NewDetector(), nil
	}
	if p.phase2 == nil {
		panic("core: NewDetectorPrecision on untrained pipeline")
	}
	f, _, err := p.Convert32()
	if err != nil {
		return nil, err
	}
	return &Detector{p: p, prec: PrecisionF32, f32: f, in32: make([]float32, f.InDim)}, nil
}
