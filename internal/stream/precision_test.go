package stream

import (
	"math"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/core"
	"desh/internal/tensor"
)

// TestPrecisionAlertEquivalence is the calibrated equivalence gate the
// f32 serving path replaces bitwise parity with: on the logsim corpus,
// an f64 streamer and an f32 streamer fed identical traffic must fire
// the identical alert multiset (same nodes, same flag times, same
// provisional status, same multiplicity), and each matched pair's lead
// times must agree within fixture.LeadTolerance.
func TestPrecisionAlertEquivalence(t *testing.T) {
	sc := &scenario{
		in:         fixture.Corpus(t, fixture.Config(12, 16, 10, 144)).Events,
		opts:       []Option{WithShards(3), WithQuietPeriod(time.Minute), WithAlertBuffer(8192)},
		base:       []step{{opts: []Option{WithPrecision(core.PrecisionF64)}}},
		steps:      []step{{opts: []Option{WithPrecision(core.PrecisionF32)}}},
		calibrated: true,
	}
	f32 := sc.run(t, "f32 vs f64").runs[0]
	for prec, s := range map[core.Precision]*Streamer{core.PrecisionF64: sc.baseRun, core.PrecisionF32: f32} {
		snap := s.SnapshotMetrics()
		if snap.ModelPrecision != prec.String() {
			t.Fatalf("ModelPrecision = %q, want %q", snap.ModelPrecision, prec)
		}
		// f32 kernels are scalar everywhere; f64 reports what CPUID chose.
		wantKernel, wantAct := "generic", "generic"
		if prec == core.PrecisionF64 {
			wantKernel, wantAct = tensor.GateKernel(), tensor.ActivationKernel()
		}
		if snap.GateKernel != wantKernel || snap.ActivationKernel != wantAct {
			t.Fatalf("%s: GateKernel %q, ActivationKernel %q; want %q and %q", prec, snap.GateKernel, snap.ActivationKernel, wantKernel, wantAct)
		}
		wantConv := int64(0)
		if prec == core.PrecisionF32 {
			wantConv = 1 // one adopted model → one conversion, shared by all shards
		}
		if snap.PrecisionConversions != wantConv {
			t.Fatalf("%s run: PrecisionConversions = %d, want %d", prec, snap.PrecisionConversions, wantConv)
		}
	}
}

// TestPrecisionOptionValidation pins option handling: an out-of-range
// precision is rejected, and the default is f64.
func TestPrecisionOptionValidation(t *testing.T) {
	if _, err := New(fixture.Model(t, fixture.Serving), WithPrecision(core.Precision(7))); err == nil {
		t.Fatal("unknown precision accepted")
	}
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap := s.SnapshotMetrics()
	if snap.ModelPrecision != "f64" || snap.PrecisionConversions != 0 {
		t.Fatalf("default precision snapshot: %q / %d", snap.ModelPrecision, snap.PrecisionConversions)
	}
}

// TestSwapValidationF32 pins that an f32 streamer rejects a candidate
// whose weights do not convert — at validation time, before any
// durability step, with SwapErrors counted.
func TestSwapValidationF32(t *testing.T) {
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithPrecision(core.PrecisionF32))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cand := fixture.Model(t, fixture.Candidate)
	cand.Phase2Model().Out.W.Value.Data[0] = math.Inf(1)
	if err := s.SwapModel(cand); err == nil {
		t.Fatal("non-convertible candidate must be rejected at f32")
	}
	if got := s.Metrics().SwapErrors.Load(); got != 1 {
		t.Fatalf("SwapErrors = %d, want 1", got)
	}
	// The same candidate is fine on an f64 streamer's validation path —
	// the check is precision-scoped.
	s64, err := New(fixture.Model(t, fixture.Serving), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s64.Close()
	if err := s64.validateSwap(cand); err != nil {
		t.Fatalf("f64 validation rejected candidate: %v", err)
	}
}
