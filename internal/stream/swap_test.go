package stream

import (
	"strings"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/core"
	"desh/internal/logparse"
)

func TestSwapValidation(t *testing.T) {
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	untrained, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SwapModel(untrained); err == nil {
		t.Fatal("untrained candidate must be rejected")
	}

	cfg := fixture.Model(t, fixture.Serving).Config()
	cfg.ChainCfg.MaxGap += time.Hour
	other, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Train(fixture.Corpus(t, fixture.Serving.Corpus).Events); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapModel(other); err == nil {
		t.Fatal("candidate with a different chain config must be rejected")
	}
	if got := s.Metrics().SwapErrors.Load(); got != 2 {
		t.Fatalf("SwapErrors = %d, want 2", got)
	}
	if got := s.Metrics().Swaps.Load(); got != 0 {
		t.Fatalf("Swaps = %d, want 0", got)
	}
}

// TestHotSwapBitIdentical: after a live swap, traffic on fresh nodes
// must score exactly as a fresh streamer running the candidate model
// would score it — same alerts, bit-identical lead times — while the
// pre-swap phase keeps the old model's verdicts and nothing is dropped.
func TestHotSwapBitIdentical(t *testing.T) {
	runHotSwapBitIdentical(t)
}

// TestHotSwapBitIdenticalF32 re-arms the same harness at f32: post-swap
// f32 traffic must match a fresh f32 boot on the candidate, bit for bit
// — precision changes which path serves, never the swap protocol's
// equivalence guarantee (f32-vs-f32 comparison stays bitwise).
func TestHotSwapBitIdenticalF32(t *testing.T) {
	runHotSwapBitIdentical(t, WithPrecision(core.PrecisionF32))
}

func runHotSwapBitIdentical(t *testing.T, extra ...Option) {
	events := fixture.Corpus(t, fixture.Config(12, 16, 10, 141)).Events
	// Phase B on fresh nodes: their chains are born and die entirely on
	// the candidate model.
	phaseB := make([]logparse.Event, len(events))
	for i, ev := range events {
		ev.Node += "-b"
		phaseB[i] = ev
	}
	sc := &scenario{opts: append([]Option{WithShards(3), WithQuietPeriod(time.Minute), WithAlertBuffer(8192)}, extra...), durable: true}
	tr := sc.play(t, append(events, phaseB...), []step{{until: len(events), swap: true, end: keep}, {}})
	if s := tr.runs[0]; s.ActiveModelFile() == "" || s.Metrics().Swaps.Load() != 1 {
		t.Fatalf("Swaps = %d with active model file %q, want 1 and a file", s.Metrics().Swaps.Load(), s.ActiveModelFile())
	}
	var swapped []Alert
	for _, a := range tr.alerts {
		if strings.HasSuffix(a.Node, "-b") {
			swapped = append(swapped, a)
		}
	}
	if len(swapped) == 0 {
		t.Fatal("post-swap phase fired no alerts; stream too quiet to pin equivalence")
	}
	// Reference: a fresh streamer serving the candidate from boot, fed
	// only the phase-B traffic.
	sc.durable = false
	ref := sc.play(t, phaseB, []step{{model: fixture.Candidate}})
	fixture.Compare(t, "swapped run vs candidate-from-boot run", fixture.Multiset(swapped), fixture.Multiset(ref.alerts))
}

// TestCrashDuringSwapEquivalence kills the process at each durability
// stage inside SwapModel and recovers: a kill before the journal
// record must come back on the old model, a kill after it on the new
// one — and in both cases the full run's alerts must match the
// corresponding uninterrupted run exactly.
func TestCrashDuringSwapEquivalence(t *testing.T) {
	runCrashDuringSwapEquivalence(t)
}

// TestCrashDuringSwapEquivalenceF32 runs the crash-during-swap matrix
// with -precision f32 armed: recovery converts whichever model the
// journal says is active and both incarnations serve f32, so the
// crashed run must still match its uninterrupted f32 baseline exactly.
func TestCrashDuringSwapEquivalenceF32(t *testing.T) {
	runCrashDuringSwapEquivalence(t, WithPrecision(core.PrecisionF32))
}

func runCrashDuringSwapEquivalence(t *testing.T, fixed ...Option) {
	events := fixture.Corpus(t, fixture.Config(12, 16, 10, 142)).Events
	cut := len(events) / 2
	sc := &scenario{
		opts: append([]Option{
			WithShards(3),
			WithQuietPeriod(time.Minute),
			WithAlertBuffer(8192),
			WithSnapshotEvery(time.Hour),
			fastRestart,
		}, fixed...),
	}
	// Uninterrupted baselines: one run that never swaps, one that swaps
	// successfully at the same cut.
	baseline := func(swap bool) map[string]int {
		return fixture.Multiset(sc.play(t, events, []step{{until: cut, swap: swap, end: keep}, {}}).alerts)
	}
	wantOld, wantNew := baseline(false), baseline(true)
	if len(wantOld) == 0 || len(wantNew) == 0 {
		t.Fatal("baselines fired no alerts; stream too quiet")
	}

	sc.durable = true
	cases := []struct {
		name      string
		stage     SwapStage
		wantModel bool // recovered incarnation serves the candidate
		want      map[string]int
	}{
		{"kill-after-model-write", SwapModelWritten, false, wantOld},
		{"kill-after-journal", SwapJournaled, true, wantNew},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := sc.play(t, events, []step{{until: cut, end: swapKill, stage: tc.stage}, {}})
			if recovered := tr.runs[1].ActiveModelFile(); (recovered != "") != tc.wantModel {
				t.Fatalf("recovered on model %q, want candidate=%v", recovered, tc.wantModel)
			}
			fixture.Compare(t, "crashed run vs baseline", fixture.Multiset(tr.alerts), tc.want)
		})
	}
}

// TestShadowSelfAgreement: shadow-evaluating a byte-identical copy of
// the serving model must produce perfect agreement — every scored
// chain lands in BothFlagged or Neither, with zero lead-time delta.
func TestShadowSelfAgreement(t *testing.T) {
	events := fixture.Corpus(t, fixture.Config(12, 16, 10, 143)).Events
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithQuietPeriod(time.Minute), WithAlertBuffer(8192))
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := s.StartShadow(fixture.Model(t, fixture.Serving), 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartShadow(fixture.Model(t, fixture.Serving), 10); err == nil {
		t.Fatal("second concurrent shadow evaluation must be rejected")
	}
	wait := fixture.Collect(s.Alerts())
	feedEvents(t, s, events)
	select {
	case <-ev2.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("shadow window never filled")
	}
	rep := ev2.Stop()
	if rep.Scored < 10 {
		t.Fatalf("scored %d chains, want >= 10", rep.Scored)
	}
	if rep.ActiveOnly != 0 || rep.CandidateOnly != 0 {
		t.Fatalf("identical models disagreed: active-only %d, candidate-only %d", rep.ActiveOnly, rep.CandidateOnly)
	}
	if rep.LeadAbsDeltaSeconds != 0 {
		t.Fatalf("identical models diverged on lead time by %v seconds", rep.LeadAbsDeltaSeconds)
	}
	if s.shadow.Load() != nil {
		t.Fatal("shadow evaluation did not detach after its window")
	}
	// A fresh evaluation can start once the previous one detached.
	ev3, err := s.StartShadow(fixture.Model(t, fixture.Serving), 1000000)
	if err != nil {
		t.Fatal(err)
	}
	ev3.Stop()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
}
