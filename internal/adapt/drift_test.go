package adapt

import (
	"math"
	"testing"
)

func TestDriftUnseenRateComponent(t *testing.T) {
	d := newDrift(driftConfig{refUnseenRate: 0.02})
	if s := d.Score(); s != 0 {
		t.Fatalf("fresh tracker score = %v, want 0", s)
	}
	// Clean traffic: no unseen phrases, score stays at zero.
	for i := 0; i < 5; i++ {
		d.Tick(1000, 0, 0, 0, 0, 0)
	}
	if s := d.Score(); s != 0 {
		t.Fatalf("clean traffic score = %v, want 0", s)
	}
	// 4% unseen — twice the reference — must converge above 1.
	for i := 0; i < 50; i++ {
		d.Tick(1000, 40, 0, 0, 0, 0)
	}
	if s := d.Score(); math.Abs(s-2) > 0.1 {
		t.Fatalf("score = %v, want ~2 (4%% unseen vs 2%% reference)", s)
	}
	d.Reset()
	if s := d.Score(); s != 0 {
		t.Fatalf("score after Reset = %v, want 0", s)
	}
}

func TestDriftMSEBaselineAndInflation(t *testing.T) {
	d := newDrift(driftConfig{baselineTicks: 4, refInflation: 2})
	// Baseline phase: steady MSE of 0.1 per verdict.
	for i := 0; i < 4; i++ {
		d.Tick(100, 0, 10, 1.0, 0, 0)
	}
	if s := d.Score(); s != 0 {
		t.Fatalf("score during baseline learning = %v, want 0", s)
	}
	// Same error level after the baseline freezes: ratio 1.0 against
	// baseline, so score 1/RefInflation = 0.5.
	for i := 0; i < 50; i++ {
		d.Tick(100, 0, 10, 1.0, 0, 0)
	}
	if s := d.Score(); math.Abs(s-0.5) > 0.05 {
		t.Fatalf("steady-state score = %v, want ~0.5", s)
	}
	// MSE quadruples: ratio 4.0, score 4/2 = 2.
	for i := 0; i < 80; i++ {
		d.Tick(100, 0, 10, 4.0, 0, 0)
	}
	if s := d.Score(); math.Abs(s-2) > 0.1 {
		t.Fatalf("inflated score = %v, want ~2", s)
	}
}

func TestDriftLeadErrorComponent(t *testing.T) {
	d := newDrift(driftConfig{baselineTicks: 2, refInflation: 2})
	for i := 0; i < 2; i++ {
		d.Tick(100, 0, 10, 0.1, 5, 10) // 2s mean lead error baseline
	}
	for i := 0; i < 80; i++ {
		d.Tick(100, 0, 10, 0.1, 5, 40) // 8s mean lead error: ratio 4, score 2
	}
	if s := d.Score(); math.Abs(s-2) > 0.1 {
		t.Fatalf("lead-error score = %v, want ~2", s)
	}
}

func TestDriftIgnoresEmptyTicks(t *testing.T) {
	d := newDrift(driftConfig{})
	for i := 0; i < 10; i++ {
		d.Tick(0, 0, 0, 0, 0, 0) // idle stream: no events, no verdicts
	}
	if s := d.Score(); s != 0 {
		t.Fatalf("idle ticks moved the score to %v", s)
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": PolicyAuto, "auto": PolicyAuto, "shadow": PolicyShadow, "immediate": PolicyImmediate,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("yolo"); err == nil {
		t.Fatal("ParsePolicy must reject unknown policies")
	}
}
