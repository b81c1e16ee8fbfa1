package stream

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/logsim"
)

// candidatePipeline trains a second model on the same corpus as
// trainedPipeline but with a different epoch budget: identical phrase
// vocabulary (so it passes swap validation) with different weights (so
// swapped runs are distinguishable from unswapped ones).
var (
	candOnce = &struct{ done bool }{}
	candPipe *core.Pipeline
)

func candidatePipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	if !candOnce.done {
		cfg := core.DefaultConfig()
		cfg.Epochs1 = 0
		cfg.Epochs2 = 60 // fewer epochs than trainedPipeline's 150 — different weights
		p, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		events, err := generatedEvents(logsim.Profiles()[2], 30, 48, 30, 32)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Train(events); err != nil {
			t.Fatal(err)
		}
		candPipe = p
		candOnce.done = true
	}
	return candPipe
}

// freshCandidate reloads candidatePipeline through Save/Load, like a
// restart would, so each use gets its own encoder.
func freshCandidate(t testing.TB) *core.Pipeline {
	t.Helper()
	var buf bytes.Buffer
	if err := candidatePipeline(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSwapValidation(t *testing.T) {
	s, err := New(freshPipeline(t), WithShards(2))
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

	cfg := trainedPipeline(t).Config()
	cfg.ChainCfg.MaxGap += time.Hour
	other, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Train(mustEvents(t)); err != nil {
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

func mustEvents(t testing.TB) []logparse.Event {
	t.Helper()
	events, err := generatedEvents(logsim.Profiles()[2], 30, 48, 30, 32)
	if err != nil {
		t.Fatal(err)
	}
	return events
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
	events, err := generatedEvents(logsim.Profiles()[2], 12, 16, 10, 141)
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]Option{
		WithShards(3),
		WithQuietPeriod(time.Minute),
		WithAlertBuffer(8192),
	}, extra...)

	dir := t.TempDir()
	s, err := New(freshPipeline(t), append(opts, WithStateDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	feedEvents(t, s, events)
	cand := freshCandidate(t)
	if err := s.SwapModel(cand); err != nil {
		t.Fatalf("swap: %v", err)
	}
	if s.ActiveModelFile() == "" {
		t.Fatal("swap left no active model file recorded")
	}
	// Phase B on fresh nodes: their chains are born and die entirely on
	// the candidate model.
	for _, ev := range events {
		ev.Node += "-b"
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := s.Metrics().AlertsDropped.Load(); d != 0 {
		t.Fatalf("dropped %d alerts across the swap", d)
	}
	if got := s.Metrics().Swaps.Load(); got != 1 {
		t.Fatalf("Swaps = %d, want 1", got)
	}
	checkConservation(t, s)
	var phaseB []Alert
	for _, a := range wait() {
		if strings.HasSuffix(a.Node, "-b") {
			phaseB = append(phaseB, a)
		}
	}
	if len(phaseB) == 0 {
		t.Fatal("post-swap phase fired no alerts; stream too quiet to pin equivalence")
	}

	// Reference: a fresh streamer serving the candidate from boot, fed
	// only the phase-B traffic.
	ref, err := New(freshCandidate(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitRef := collectAlerts(ref)
	for _, ev := range events {
		ev.Node += "-b"
		if err := ref.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	want := alertMultiset(waitRef())
	got := alertMultiset(phaseB)
	compareMultisets(t, "swapped run vs candidate-from-boot run", got, want)
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
	events, err := generatedEvents(logsim.Profiles()[2], 12, 16, 10, 142)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(events) / 2
	opts := func(extra ...Option) []Option {
		base := append([]Option{
			WithShards(3),
			WithQuietPeriod(time.Minute),
			WithAlertBuffer(8192),
			WithSnapshotEvery(time.Hour),
			fastRestart,
		}, fixed...)
		return append(base, extra...)
	}

	// Uninterrupted baselines: one run that never swaps, one that swaps
	// successfully at the same cut.
	baseline := func(swap bool) map[string]int {
		t.Helper()
		s, err := New(freshPipeline(t), opts()...)
		if err != nil {
			t.Fatal(err)
		}
		_, wait := collectAlerts(s)
		for i, ev := range events {
			if i == cut && swap {
				if err := s.SwapModel(freshCandidate(t)); err != nil {
					t.Fatalf("baseline swap: %v", err)
				}
			}
			if err := s.IngestEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return alertMultiset(wait())
	}
	wantOld := baseline(false)
	wantNew := baseline(true)
	if len(wantOld) == 0 || len(wantNew) == 0 {
		t.Fatal("baselines fired no alerts; stream too quiet")
	}

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
			dir := t.TempDir()
			s, err := New(freshPipeline(t),
				opts(WithStateDir(dir), withSwapHook(func(st SwapStage) bool { return st == tc.stage }))...)
			if err != nil {
				t.Fatal(err)
			}
			_, wait := collectAlerts(s)
			feedEvents(t, s, events[:cut])
			if err := s.SwapModel(freshCandidate(t)); !errors.Is(err, ErrSwapAborted) {
				t.Fatalf("swap returned %v, want ErrSwapAborted", err)
			}
			// The hook simulated a kill at the durability stage; nothing
			// else may touch this incarnation.
			s.crash()
			got := wait()

			s2, err := New(freshPipeline(t), opts(WithStateDir(dir))...)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if (s2.ActiveModelFile() != "") != tc.wantModel {
				t.Fatalf("recovered on model %q, want candidate=%v", s2.ActiveModelFile(), tc.wantModel)
			}
			_, wait2 := collectAlerts(s2)
			feedEvents(t, s2, events[cut:])
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			if d := s.Metrics().AlertsDropped.Load() + s2.Metrics().AlertsDropped.Load(); d != 0 {
				t.Fatalf("dropped %d alerts", d)
			}
			got = append(got, wait2()...)
			gotSet := alertMultiset(got)
			compareMultisets(t, "crashed run vs baseline", gotSet, tc.want)
		})
	}
}

// TestShadowSelfAgreement: shadow-evaluating a byte-identical copy of
// the serving model must produce perfect agreement — every scored
// chain lands in BothFlagged or Neither, with zero lead-time delta.
func TestShadowSelfAgreement(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 12, 16, 10, 143)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(freshPipeline(t), WithShards(2), WithQuietPeriod(time.Minute), WithAlertBuffer(8192))
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := s.StartShadow(freshPipeline(t), 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartShadow(freshPipeline(t), 10); err == nil {
		t.Fatal("second concurrent shadow evaluation must be rejected")
	}
	_, wait := collectAlerts(s)
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
	ev3, err := s.StartShadow(freshPipeline(t), 1000000)
	if err != nil {
		t.Fatal(err)
	}
	ev3.Stop()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
}
