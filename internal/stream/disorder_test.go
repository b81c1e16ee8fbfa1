package stream

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"desh/internal/logparse"
	"desh/internal/logsim"
)

// shuffleWithinLateness returns events in a disordered arrival order:
// each event's sort key is its timestamp plus a jitter uniform in
// [0, w), and arrival is the stable sort by that key. This is the
// bounded-disorder model the reorder buffer is specified against — for
// any node, an event can only be overtaken by events less than w newer,
// so a w-lateness watermark releases everything in timestamp order and
// classifies nothing late.
func shuffleWithinLateness(events []logparse.Event, w time.Duration, rng *rand.Rand) []logparse.Event {
	type keyed struct {
		ev  logparse.Event
		key int64
	}
	ks := make([]keyed, len(events))
	for i, ev := range events {
		ks[i] = keyed{ev, ev.Time.UnixNano() + rng.Int63n(int64(w))}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]logparse.Event, len(events))
	for i, k := range ks {
		out[i] = k.ev
	}
	return out
}

// sortedByTime returns a stable time-sorted copy — the clean baseline
// input.
func sortedByTime(events []logparse.Event) []logparse.Event {
	out := append([]logparse.Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

func runAlerts(t *testing.T, events []logparse.Event, options ...Option) ([]Alert, *Streamer) {
	t.Helper()
	s, err := New(freshPipeline(t), options...)
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	feedEvents(t, s, events)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return wait(), s
}

// TestShuffleWithinLatenessMatchesSorted is the reorder property test:
// any input shuffled within the allowed-lateness window must produce a
// byte-identical alert multiset (node, flag time, lead, MSE — the full
// ledger key) to the same input sorted, with zero events classified
// late.
func TestShuffleWithinLatenessMatchesSorted(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 24, 24, 16, 141)
	if err != nil {
		t.Fatal(err)
	}
	const w = 30 * time.Second
	opts := []Option{
		WithShards(4),
		WithQuietPeriod(0),
		WithAlertBuffer(8192),
		WithAllowedLateness(w),
		WithReorderDepth(8192),
	}
	baseAlerts, _ := runAlerts(t, sortedByTime(events), opts...)
	want := alertMultiset(baseAlerts)
	if len(want) < 5 {
		t.Fatalf("baseline fired only %d distinct alerts; run too quiet to pin the property", len(want))
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		alerts, s := runAlerts(t, shuffleWithinLateness(events, w, rng), opts...)
		m := s.SnapshotMetrics()
		if m.Late != 0 || m.LateClamped != 0 || m.ReorderOverflow != 0 {
			t.Fatalf("seed %d: disorder leaked through the buffer: late %d, clamped %d, overflow %d",
				seed, m.Late, m.LateClamped, m.ReorderOverflow)
		}
		got := alertMultiset(alerts)
		compareMultisets(t, fmt.Sprintf("seed %d vs sorted baseline", seed), got, want)
		checkConservation(t, s)
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
	events, err := generatedEvents(logsim.Profiles()[2], 24, 24, 16, 142)
	if err != nil {
		t.Fatal(err)
	}
	const (
		w       = 30 * time.Second
		skewTol = 2 * time.Second
	)
	opts := []Option{
		WithShards(4),
		WithQuietPeriod(0),
		WithAlertBuffer(8192),
		WithAllowedLateness(w),
		WithReorderDepth(8192),
		WithDedupWindow(64),
		WithSkewTolerance(skewTol),
	}
	baseAlerts, _ := runAlerts(t, sortedByTime(events), opts...)
	want := make(map[string]int)
	for _, a := range baseAlerts {
		want[skewedKey(a)]++
	}
	if len(want) < 3 {
		t.Fatalf("baseline fired only %d distinct alerts", len(want))
	}

	// Hostile copy: per-node constant clock skew in [-tol, +tol] ...
	rng := rand.New(rand.NewSource(77))
	offsets := make(map[string]time.Duration)
	skewed := make([]logparse.Event, len(events))
	for i, ev := range events {
		off, ok := offsets[ev.Node]
		if !ok {
			off = time.Duration(rng.Int63n(int64(2*skewTol))) - skewTol
			offsets[ev.Node] = off
		}
		ev.Time = ev.Time.Add(off)
		skewed[i] = ev
	}
	// ... shuffled within the lateness window ...
	arrival := shuffleWithinLateness(skewed, w, rng)
	// ... with every 10th event re-delivered (retry simulation).
	var hostile []logparse.Event
	for i, ev := range arrival {
		hostile = append(hostile, ev)
		if i%10 == 9 {
			hostile = append(hostile, ev)
		}
	}

	alerts, s := runAlerts(t, hostile, opts...)
	m := s.SnapshotMetrics()
	if m.Duplicates == 0 {
		t.Fatal("injected duplicates were not suppressed by the dedup ring")
	}
	if m.Late != 0 || m.LateDropped != 0 || m.SkewQuarantined != 0 {
		t.Fatalf("unexpected disorder counters: late %d, dropped %d, skew-quarantined %d",
			m.Late, m.LateDropped, m.SkewQuarantined)
	}
	got := make(map[string]int)
	for _, a := range alerts {
		got[skewedKey(a)]++
	}
	compareMultisets(t, "hostile run vs clean baseline", got, want)
	checkConservation(t, s)
}

// TestDuplicatedTCPBatchFiresOnce simulates a producer-side retry: the
// same batch delivered twice over TCP must fire each alert exactly
// once. Dedup runs before the late check, so the re-delivered batch —
// every event of which is behind the watermark by then — is suppressed
// as duplicates, not misclassified as a flood of late events.
func TestDuplicatedTCPBatchFiresOnce(t *testing.T) {
	run, err := generatedRun(logsim.Profiles()[2], 8, 4, 4, 143)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(run.Events))
	for i, ge := range run.Events {
		lines[i] = ge.Line()
	}
	opts := []Option{
		WithShards(2),
		WithQuietPeriod(0),
		WithAlertBuffer(8192),
		WithAllowedLateness(5 * time.Second),
		WithDedupWindow(4096),
	}
	baseAlerts, _ := runAlerts(t, sortedByTime(eventsOf(t, lines)), opts...)
	want := alertMultiset(baseAlerts)
	if len(want) == 0 {
		t.Fatal("baseline fired no alerts; batch too quiet")
	}

	s, err := New(freshPipeline(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ServeLines(ln) }()
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range lines {
			if _, err := fmt.Fprintln(conn, line); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
		// The batches must not interleave: the retry arrives after the
		// original, as a real store-and-forward producer would replay it.
		waitUntil(t, 10*time.Second, "batch to ingest", func() bool {
			return s.Metrics().Ingested.Load() >= int64((attempt+1)*len(lines))
		})
	}
	ln.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := alertMultiset(wait())
	m := s.SnapshotMetrics()
	if m.Duplicates == 0 {
		t.Fatal("re-delivered batch registered no duplicates")
	}
	compareMultisets(t, "retried batch vs single delivery", got, want)
	checkConservation(t, s)
}

func eventsOf(t *testing.T, lines []string) []logparse.Event {
	t.Helper()
	events := make([]logparse.Event, len(lines))
	for i, line := range lines {
		ev, err := logparse.ParseLine(line)
		if err != nil {
			t.Fatal(err)
		}
		events[i] = ev
	}
	return events
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
		policy                  LatePolicy
		wantDropped, wantDetect int64
	}{
		{LateFeed, 0, 2},
		{LateDrop, 1, 2},
	} {
		s, err := New(freshPipeline(t),
			WithShards(1),
			WithQuietPeriod(0),
			WithAllowedLateness(10*time.Second),
			WithLatePolicy(tc.policy),
		)
		if err != nil {
			t.Fatal(err)
		}
		_, wait := collectAlerts(s)
		// maxSeen = +60s, so the release cursor jumps to +50s; the event
		// at +0s is then 50s behind it — late.
		if err := s.IngestEvent(mk(60*time.Second, "DVS: Verify Filesystem *")); err != nil {
			t.Fatal(err)
		}
		if err := s.IngestEvent(mk(0, "LustreError: * failed md_getattr err *")); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 5*time.Second, "events to process", func() bool {
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
		if n := m.Detect.Count; n != tc.wantDetect {
			t.Errorf("policy %v: tracker saw %d events, want %d", tc.policy, n, tc.wantDetect)
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
	s, err := New(freshPipeline(t),
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
	_, wait := collectAlerts(s)
	future := logparse.Event{Time: time.Now().Add(48 * time.Hour), Node: "c0-0c0s0n0", Key: "Out of memory: Killed process *"}
	if err := s.IngestEvent(future); err != nil {
		t.Fatal(err)
	}
	honest := logparse.Event{Time: time.Now().Add(-time.Minute), Node: "c0-0c0s0n0", Key: "DVS: Verify Filesystem *"}
	if err := s.IngestEvent(honest); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "honest event to process", func() bool {
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
	s, err := New(freshPipeline(t),
		WithShards(1),
		WithQuietPeriod(0),
		WithAllowedLateness(time.Hour), // watermark never releases on its own
		WithReorderDepth(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	const n = 10
	for i := 0; i < n; i++ {
		ev := logparse.Event{Time: base.Add(time.Duration(i) * time.Second), Node: "c0-0c0s0n0", Key: keys[i%2]}
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, "events to process", func() bool {
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
	if got := s.Metrics().Detect.Count(); got != n {
		t.Fatalf("tracker saw %d events after drain, want all %d", got, n)
	}
	checkConservation(t, s)
}

// TestMetricsExposeEventTimeFields: the /metrics JSON must surface the
// disorder counters, the shed level, the window-eviction count and the
// per-shard watermarks.
func TestMetricsExposeEventTimeFields(t *testing.T) {
	s, err := New(freshPipeline(t),
		WithShards(2),
		WithQuietPeriod(0),
		WithAllowedLateness(time.Second),
		WithShedPolicy(ShedDegrade),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	ev := logparse.Event{
		Time: time.Date(2026, 5, 3, 0, 0, 0, 0, time.UTC),
		Node: "c0-0c0s0n0",
		Key:  "DVS: Verify Filesystem *",
	}
	if err := s.IngestEvent(ev); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "event to buffer", func() bool {
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
