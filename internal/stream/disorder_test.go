package stream

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
)

// TestShuffleWithinLatenessMatchesSorted is the reorder property test:
// any input shuffled within the allowed-lateness window must produce a
// byte-identical alert multiset (node, flag time, lead, MSE — the full
// ledger key) to the same input sorted, with zero events classified
// late.
func TestShuffleWithinLatenessMatchesSorted(t *testing.T) {
	const w = 30 * time.Second
	sc := &scenario{
		in:    fixture.Corpus(t, fixture.Config(24, 24, 16, 141)).Events,
		opts:  []Option{WithShards(4), WithQuietPeriod(0), WithAlertBuffer(8192), WithAllowedLateness(w), WithReorderDepth(8192)},
		steps: []step{{}},
		quiet: 5,
	}
	for _, seed := range []int64{1, 2, 3} {
		sc.disturb = func(in []logparse.Event) []logparse.Event {
			return shuffleWithinLateness(in, w, rand.New(rand.NewSource(seed)))
		}
		m := sc.run(t, fmt.Sprintf("seed %d vs sorted baseline", seed)).runs[0].SnapshotMetrics()
		if m.Late != 0 || m.LateClamped != 0 || m.ReorderOverflow != 0 {
			t.Fatalf("seed %d: disorder leaked through the buffer: late %d, clamped %d, overflow %d",
				seed, m.Late, m.LateClamped, m.ReorderOverflow)
		}
	}
}

// skewedKey is the multiset identity used when per-node clock skew is
// in play: a constant per-node offset shifts FlaggedAt but cancels in
// every within-node difference, so lead and MSE stay bit-exact.
func skewedKey(a Alert) string {
	return fmt.Sprintf("%s|%x|%x|%v", a.Node, math.Float64bits(a.LeadSeconds), math.Float64bits(a.MSE), a.Provisional)
}

// TestDisorderEquivalence is the acceptance pin for hostile input:
// shuffling within the allowed-lateness window, duplicating a tenth of
// the stream, and skewing every node's clock by a constant within
// ±tolerance must yield the same alerts — same nodes, bit-identical
// LeadSeconds and MSE — as clean sorted input.
func TestDisorderEquivalence(t *testing.T) {
	const (
		w       = 30 * time.Second
		skewTol = 2 * time.Second
	)
	sc := &scenario{
		in: fixture.Corpus(t, fixture.Config(24, 24, 16, 142)).Events,
		opts: []Option{
			WithShards(4),
			WithQuietPeriod(0),
			WithAlertBuffer(8192),
			WithAllowedLateness(w),
			WithReorderDepth(8192),
			WithDedupWindow(64),
			WithSkewTolerance(skewTol),
		},
		// Per-node constant clock skew in [-tol, +tol], shuffled within
		// the lateness window, every tenth event re-delivered.
		disturb: func(in []logparse.Event) []logparse.Event {
			rng := rand.New(rand.NewSource(77))
			offsets := make(map[string]time.Duration)
			for i, ev := range in {
				off, ok := offsets[ev.Node]
				if !ok {
					off = time.Duration(rng.Int63n(int64(2*skewTol))) - skewTol
					offsets[ev.Node] = off
				}
				in[i].Time = ev.Time.Add(off)
			}
			return duplicated(shuffleWithinLateness(in, w, rng))
		},
		steps: []step{{}},
		key:   skewedKey,
		quiet: 3,
	}
	m := sc.run(t, "hostile run vs clean baseline").runs[0].SnapshotMetrics()
	if m.Duplicates == 0 {
		t.Fatal("injected duplicates were not suppressed by the dedup ring")
	}
	if m.Late != 0 || m.LateDropped != 0 || m.SkewQuarantined != 0 {
		t.Fatalf("unexpected disorder counters: late %d, dropped %d, skew-quarantined %d",
			m.Late, m.LateDropped, m.SkewQuarantined)
	}
}

// TestDuplicatedTCPBatchFiresOnce simulates a producer-side retry: the
// same batch delivered twice over TCP must fire each alert exactly
// once. Dedup runs before the late check, so the re-delivered batch —
// every event of which is behind the watermark by then — is suppressed
// as duplicates, not misclassified as a flood of late events.
func TestDuplicatedTCPBatchFiresOnce(t *testing.T) {
	in := fixture.Corpus(t, fixture.Config(8, 4, 4, 143)).Events
	sc := &scenario{
		in:   in,
		opts: []Option{WithShards(2), WithQuietPeriod(0), WithAlertBuffer(8192), WithAllowedLateness(5 * time.Second), WithDedupWindow(4096)},
		// The batches must not interleave: the retry arrives after the
		// original, as a real store-and-forward producer would replay it.
		disturb: func(in []logparse.Event) []logparse.Event { return append(in, in...) },
		steps:   []step{{until: len(in), via: viaTCP, end: keep}, {via: viaTCP}},
	}
	if m := sc.run(t, "retried batch vs single delivery").runs[0].SnapshotMetrics(); m.Duplicates == 0 {
		t.Fatal("re-delivered batch registered no duplicates")
	}
}

// TestLatePolicyFeedAndDrop: an event behind the release cursor either
// reaches the tracker (LateFeed) or is discarded (LateDrop) — the
// LateDropped counter is the observable difference. The detect
// histogram counts dequeued events (enqueue→verdict) under both
// policies: a dropped-late event still has a measurable verdict
// latency, its verdict just being "discarded".
func TestLatePolicyFeedAndDrop(t *testing.T) {
	base := time.Date(2026, 5, 3, 0, 0, 0, 0, time.UTC)
	mk := func(offset time.Duration, key string) logparse.Event {
		return logparse.Event{Time: base.Add(offset), Node: "c0-0c0s0n0", Key: key}
	}
	for _, tc := range []struct {
		policy                     LatePolicy
		wantDropped, wantProcessed int64
	}{
		{LateFeed, 0, 2},
		{LateDrop, 1, 2},
	} {
		s, err := New(fixture.Model(t, fixture.Serving),
			WithShards(1),
			WithQuietPeriod(0),
			WithAllowedLateness(10*time.Second),
			WithLatePolicy(tc.policy),
		)
		if err != nil {
			t.Fatal(err)
		}
		wait := fixture.Collect(s.Alerts())
		// maxSeen = +60s, so the release cursor jumps to +50s; the event
		// at +0s is then 50s behind it — late.
		if err := s.IngestEvent(mk(60*time.Second, "DVS: Verify Filesystem *")); err != nil {
			t.Fatal(err)
		}
		if err := s.IngestEvent(mk(0, "LustreError: * failed md_getattr err *")); err != nil {
			t.Fatal(err)
		}
		fixture.WaitFor(t, 5*time.Second, "events to process", func() bool {
			return s.Metrics().Processed.Load() == 2
		})
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wait()
		m := s.SnapshotMetrics()
		if m.Late != 1 || m.LateDropped != tc.wantDropped {
			t.Errorf("policy %v: late %d dropped %d, want 1 and %d", tc.policy, m.Late, m.LateDropped, tc.wantDropped)
		}
		if n := m.Processed; n != tc.wantProcessed {
			t.Errorf("policy %v: processed %d events, want %d", tc.policy, n, tc.wantProcessed)
		}
		checkConservation(t, s)
	}
}

// TestSkewGuardQuarantinesFutureEvents: a timestamp absurdly ahead of
// the local clock is quarantined at ingest with a counter and one
// diagnostic line — never fed, never crashing, never poisoning the
// watermark.
func TestSkewGuardQuarantinesFutureEvents(t *testing.T) {
	var mu sync.Mutex
	var diags []string
	s, err := New(fixture.Model(t, fixture.Serving),
		WithShards(1),
		WithQuietPeriod(0),
		WithAllowedLateness(time.Second),
		WithSkewTolerance(time.Second),
		WithDiag(func(format string, args ...any) {
			mu.Lock()
			diags = append(diags, fmt.Sprintf(format, args...))
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	future := logparse.Event{Time: time.Now().Add(48 * time.Hour), Node: "c0-0c0s0n0", Key: "Out of memory: Killed process *"}
	if err := s.IngestEvent(future); err != nil {
		t.Fatal(err)
	}
	honest := logparse.Event{Time: time.Now().Add(-time.Minute), Node: "c0-0c0s0n0", Key: "DVS: Verify Filesystem *"}
	if err := s.IngestEvent(honest); err != nil {
		t.Fatal(err)
	}
	fixture.WaitFor(t, 5*time.Second, "honest event to process", func() bool {
		return s.Metrics().Processed.Load() == 1
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	m := s.SnapshotMetrics()
	if m.SkewQuarantined != 1 {
		t.Fatalf("skew-quarantined %d events, want 1", m.SkewQuarantined)
	}
	if m.Late != 0 {
		t.Fatalf("quarantined event still poisoned the watermark: %d late", m.Late)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(diags) != 1 || !strings.Contains(diags[0], "c0-0c0s0n0") {
		t.Fatalf("want one quarantine diagnostic naming the node, got %q", diags)
	}
	checkConservation(t, s)
}

// TestReorderOverflowBounded: a buffer past ReorderDepth releases its
// earliest events ahead of the watermark instead of growing without
// bound.
func TestReorderOverflowBounded(t *testing.T) {
	base := time.Date(2026, 5, 3, 0, 0, 0, 0, time.UTC)
	keys := []string{"DVS: Verify Filesystem *", "LustreError: * failed md_getattr err *"}
	s, err := New(fixture.Model(t, fixture.Serving),
		WithShards(1),
		WithQuietPeriod(0),
		WithAllowedLateness(time.Hour), // watermark never releases on its own
		WithReorderDepth(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	const n = 10
	for i := 0; i < n; i++ {
		ev := logparse.Event{Time: base.Add(time.Duration(i) * time.Second), Node: "c0-0c0s0n0", Key: keys[i%2]}
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	fixture.WaitFor(t, 5*time.Second, "events to process", func() bool {
		return s.Metrics().Processed.Load() == n
	})
	m := s.SnapshotMetrics()
	if m.ReorderOverflow != n-4 {
		t.Fatalf("overflow released %d events, want %d", m.ReorderOverflow, n-4)
	}
	if m.ReorderPending != 4 {
		t.Fatalf("buffer holds %d events, want the depth bound 4", m.ReorderPending)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	if got := s.Metrics().Processed.Load(); got != n {
		t.Fatalf("tracker saw %d events after drain, want all %d", got, n)
	}
	checkConservation(t, s)
}

// TestMetricsExposeEventTimeFields: the /metrics JSON must surface the
// disorder counters, the shed level, the window-eviction count and the
// per-shard watermarks.
func TestMetricsExposeEventTimeFields(t *testing.T) {
	s, err := New(fixture.Model(t, fixture.Serving),
		WithShards(2),
		WithQuietPeriod(0),
		WithAllowedLateness(time.Second),
		WithShedPolicy(ShedDegrade),
	)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	ev := logparse.Event{
		Time: time.Date(2026, 5, 3, 0, 0, 0, 0, time.UTC),
		Node: "c0-0c0s0n0",
		Key:  "DVS: Verify Filesystem *",
	}
	if err := s.IngestEvent(ev); err != nil {
		t.Fatal(err)
	}
	fixture.WaitFor(t, 5*time.Second, "event to buffer", func() bool {
		return s.SnapshotMetrics().ReorderPending == 1
	})
	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, field := range []string{
		`"late"`, `"late_dropped"`, `"late_clamped"`, `"duplicates"`,
		`"skew_quarantined"`, `"shed"`, `"shed_level"`, `"shed_level_max"`,
		`"reorder_overflow"`, `"reorder_pending": 1`, `"window_evicted"`, `"watermarks"`,
	} {
		if !strings.Contains(body, field) {
			t.Errorf("/metrics missing %s: %s", field, body)
		}
	}
	// The ingesting shard's watermark must be derived from the event
	// time, not the wall clock.
	wm := ev.Time.Add(-time.Second).UnixNano()
	if !strings.Contains(body, fmt.Sprintf("%d", wm)) {
		t.Errorf("/metrics watermarks missing %d: %s", wm, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
}
