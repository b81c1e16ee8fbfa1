package stream

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"desh/internal/core"
	"desh/internal/logsim"
	"desh/internal/tensor"
)

// leadToleranceSeconds bounds the per-alert |f64 lead − f32 lead| the
// equivalence gate accepts. Lead times are ΔT values copied from chain
// entries (identical in both paths) for closed-chain alerts, and
// model-predicted minutes for provisional ones; only the latter carry
// rounding, at ~1e-7 relative. One millisecond of slack is four orders
// of magnitude above that and six below the alerts' minute scale.
const leadToleranceSeconds = 1e-3

// equivKey identifies an alert across precisions: node, flag time and
// provisional status. Unlike alertKey it deliberately excludes the
// exact float bits of MSE and lead time, which differ by rounding
// between the paths; those are compared with tolerances instead.
func equivKey(a Alert) string {
	return fmt.Sprintf("%s|%d|%v", a.Node, a.FlaggedAt.UnixNano(), a.Provisional)
}

// TestPrecisionAlertEquivalence is the calibrated equivalence gate the
// f32 serving path replaces bitwise parity with: on the logsim corpus,
// an f64 streamer and an f32 streamer fed identical traffic must fire
// the identical alert multiset (same nodes, same flag times, same
// provisional status, same multiplicity), and each matched pair's lead
// times must agree within leadToleranceSeconds.
func TestPrecisionAlertEquivalence(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 12, 16, 10, 144)
	if err != nil {
		t.Fatal(err)
	}
	run := func(prec core.Precision) []Alert {
		t.Helper()
		s, err := New(freshPipeline(t),
			WithShards(3),
			WithQuietPeriod(time.Minute),
			WithAlertBuffer(8192),
			WithPrecision(prec),
		)
		if err != nil {
			t.Fatal(err)
		}
		_, wait := collectAlerts(s)
		feedEvents(t, s, events)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if d := s.Metrics().AlertsDropped.Load(); d != 0 {
			t.Fatalf("%s run dropped %d alerts", prec, d)
		}
		snap := s.SnapshotMetrics()
		if snap.ModelPrecision != prec.String() {
			t.Fatalf("ModelPrecision = %q, want %q", snap.ModelPrecision, prec)
		}
		// f32 kernels are scalar everywhere; f64 reports what CPUID chose.
		wantKernel, wantAct := "generic", "generic"
		if prec == core.PrecisionF64 {
			wantKernel, wantAct = tensor.GateKernel(), tensor.ActivationKernel()
		}
		if snap.GateKernel != wantKernel {
			t.Fatalf("%s: GateKernel = %q, want %q", prec, snap.GateKernel, wantKernel)
		}
		if snap.ActivationKernel != wantAct {
			t.Fatalf("%s: ActivationKernel = %q, want %q", prec, snap.ActivationKernel, wantAct)
		}
		wantConv := int64(0)
		if prec == core.PrecisionF32 {
			wantConv = 1 // one adopted model → one conversion, shared by all shards
		}
		if snap.PrecisionConversions != wantConv {
			t.Fatalf("%s run: PrecisionConversions = %d, want %d", prec, snap.PrecisionConversions, wantConv)
		}
		checkConservation(t, s)
		return wait()
	}

	a64 := run(core.PrecisionF64)
	a32 := run(core.PrecisionF32)
	if len(a64) == 0 {
		t.Fatal("f64 run fired no alerts; corpus too quiet to pin equivalence")
	}

	// Alert multisets must match exactly on the equivalence key.
	count64 := map[string]int{}
	for _, a := range a64 {
		count64[equivKey(a)]++
	}
	count32 := map[string]int{}
	for _, a := range a32 {
		count32[equivKey(a)]++
	}
	for k, n := range count64 {
		if count32[k] != n {
			t.Errorf("alert %s: f64 fired %d, f32 fired %d", k, n, count32[k])
		}
	}
	for k, n := range count32 {
		if count64[k] != n {
			t.Errorf("spurious alert %s: f32 fired %d, f64 fired %d", k, n, count64[k])
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Pair matched alerts and bound the per-verdict lead-time delta.
	// Sorting each key's group by lead keeps pairing deterministic when
	// a key fires more than once.
	group := func(alerts []Alert) map[string][]Alert {
		g := map[string][]Alert{}
		for _, a := range alerts {
			k := equivKey(a)
			g[k] = append(g[k], a)
		}
		for _, as := range g {
			sort.Slice(as, func(i, j int) bool { return as[i].LeadSeconds < as[j].LeadSeconds })
		}
		return g
	}
	g64, g32 := group(a64), group(a32)
	var maxDelta float64
	for k, as := range g64 {
		bs := g32[k]
		for i := range as {
			d := math.Abs(as[i].LeadSeconds - bs[i].LeadSeconds)
			if d > maxDelta {
				maxDelta = d
			}
			if d > leadToleranceSeconds {
				t.Errorf("alert %s: lead delta %gs exceeds %gs (f64 %g, f32 %g)",
					k, d, leadToleranceSeconds, as[i].LeadSeconds, bs[i].LeadSeconds)
			}
		}
	}
	t.Logf("equivalence: %d alerts matched, max lead delta %gs", len(a64), maxDelta)
}

// TestPrecisionOptionValidation pins option handling: an out-of-range
// precision is rejected, and the default is f64.
func TestPrecisionOptionValidation(t *testing.T) {
	if _, err := New(freshPipeline(t), WithPrecision(core.Precision(7))); err == nil {
		t.Fatal("unknown precision accepted")
	}
	s, err := New(freshPipeline(t), WithShards(1))
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
	s, err := New(freshPipeline(t), WithShards(2), WithPrecision(core.PrecisionF32))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cand := freshCandidate(t)
	cand.Phase2Model().Out.W.Value.Data[0] = math.Inf(1)
	if err := s.SwapModel(cand); err == nil {
		t.Fatal("non-convertible candidate must be rejected at f32")
	}
	if got := s.Metrics().SwapErrors.Load(); got != 1 {
		t.Fatalf("SwapErrors = %d, want 1", got)
	}
	// The same candidate is fine on an f64 streamer's validation path —
	// the check is precision-scoped.
	s64, err := New(freshPipeline(t), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s64.Close()
	if err := s64.validateSwap(cand); err != nil {
		t.Fatalf("f64 validation rejected candidate: %v", err)
	}
}
