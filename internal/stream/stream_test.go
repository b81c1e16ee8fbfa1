package stream

import (
	"testing"
	"time"

	"desh/internal/chain"
	"desh/internal/chaos/fixture"
	"desh/internal/core"
	"desh/internal/logparse"
)

// chainEvents renders a ΔT-annotated chain back into parseable events
// on the given node starting at base.
func chainEvents(c chain.Chain, node string, base time.Time) []logparse.Event {
	lead := c.Lead()
	events := make([]logparse.Event, len(c.Entries))
	for i, e := range c.Entries {
		events[i] = logparse.Event{
			Time: base.Add(time.Duration((lead - e.DeltaT) * float64(time.Second))),
			Node: node,
			Key:  e.Key,
		}
	}
	return events
}

func TestNewRejectsUntrainedAndBadOptions(t *testing.T) {
	untrained, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(untrained); err == nil {
		t.Fatal("untrained pipeline must be rejected")
	}
	p := fixture.Model(t, fixture.Serving)
	bad := []Option{
		WithShards(0),
		WithQueueDepth(0),
		WithAlertBuffer(0),
		WithQuietPeriod(-time.Second),
		WithMaxOpenWindow(-1),
		WithMaxOpenWindow(1), // below chain MinLen
		WithIdleFlush(-time.Second),
		WithAllowedLateness(-time.Second),
		WithSkewTolerance(-time.Second),
		WithDedupWindow(-1),
		WithReorderDepth(0),
		WithLatePolicy(LatePolicy(42)),
		WithShedPolicy(ShedPolicy(42)),
		WithMicroBatch(0),
		WithMicroBatch(maxMicroBatch + 1),
	}
	for i, o := range bad {
		if _, err := New(p, o); err == nil {
			t.Fatalf("bad option %d accepted", i)
		}
	}
}

func TestStreamerIngestCountsAndClose(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	s, err := New(p, WithShards(2), WithQuietPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	run := fixture.Corpus(t, fixture.Config(10, 4, 4, 41)).Run
	for _, ge := range run.Events {
		if err := s.IngestLine(ge.Line()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.IngestLine("   "); err != nil {
		t.Fatalf("blank line must be ignored: %v", err)
	}
	if err := s.IngestLine("not a log line"); err == nil {
		t.Fatal("malformed line must report an error")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	if err := s.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if err := s.IngestLine(run.Events[0].Line()); err != ErrClosed {
		t.Fatalf("ingest after close: %v, want ErrClosed", err)
	}
	snap := s.SnapshotMetrics()
	if snap.Ingested != int64(len(run.Events)) {
		t.Fatalf("ingested %d, want %d", snap.Ingested, len(run.Events))
	}
	if snap.Malformed != 1 {
		t.Fatalf("malformed %d, want 1", snap.Malformed)
	}
	if snap.SafeFiltered == 0 {
		t.Fatal("generated log must contain Safe chatter")
	}
	// Conservation: every counted non-Safe event was processed.
	if got := s.Metrics().Detect.Count(); got != snap.Ingested-snap.SafeFiltered {
		t.Fatalf("processed %d events, ingested non-Safe %d", got, snap.Ingested-snap.SafeFiltered)
	}
	if snap.ChainsOpen != 0 {
		t.Fatalf("chains still open after drain: %d", snap.ChainsOpen)
	}
	if snap.ChainsClosed == 0 {
		t.Fatal("no chains closed")
	}
	if len(snap.QueueDepths) != 2 || snap.QueueDepths[0] != 0 || snap.QueueDepths[1] != 0 {
		t.Fatalf("queues not drained: %v", snap.QueueDepths)
	}
}

// TestAlertDedupQuietPeriod replays one well-trained failure chain
// twice on the same node, 10 minutes apart: with dedup off both fire,
// with a long quiet period the second is suppressed, and after the
// quiet period elapses the state machine re-arms.
func TestAlertDedupQuietPeriod(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	var flagged chain.Chain
	found := false
	for _, c := range p.TrainedChains() {
		if v := p.Detect(c); v.Flagged {
			flagged, found = c, true
			break
		}
	}
	if !found {
		t.Fatal("no trained chain is flagged by its own model")
	}
	base := time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC)
	node := flagged.Node
	replay := func(s *Streamer, offsets ...time.Duration) {
		t.Helper()
		for _, off := range offsets {
			feedEvents(t, s, chainEvents(flagged, node, base.Add(off)))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	s1, err := New(p, WithQuietPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	wait1 := fixture.Collect(s1.Alerts())
	replay(s1, 0, 10*time.Minute)
	if alerts := wait1(); len(alerts) != 2 {
		t.Fatalf("dedup off: %d alerts, want 2", len(alerts))
	}

	s2, err := New(p, WithQuietPeriod(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	wait2 := fixture.Collect(s2.Alerts())
	replay(s2, 0, 10*time.Minute)
	if alerts := wait2(); len(alerts) != 1 {
		t.Fatalf("quiet period: %d alerts, want 1", len(alerts))
	}
	if got := s2.Metrics().AlertsSuppressed.Load(); got != 1 {
		t.Fatalf("suppressed %d, want 1", got)
	}

	s3, err := New(p, WithQuietPeriod(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	wait3 := fixture.Collect(s3.Alerts())
	replay(s3, 0, 2*time.Hour)
	if alerts := wait3(); len(alerts) != 2 {
		t.Fatalf("re-arm: %d alerts, want 2", len(alerts))
	}
}

// TestEarlyDetectProvisionalAlert replays a trained chain with early
// detection on: a provisional alert must fire strictly before the
// terminal event's timestamp, with the model-predicted lead attached.
func TestEarlyDetectProvisionalAlert(t *testing.T) {
	p := fixture.Model(t, fixture.Serving)
	var flagged chain.Chain
	found := false
	for _, c := range p.TrainedChains() {
		v := p.Detect(c)
		// Need a chain flagged before its final transition so the open
		// prefix can plausibly cross the threshold early.
		if v.Flagged && v.FlagIndex < len(c.Entries)-1 {
			flagged, found = c, true
			break
		}
	}
	if !found {
		t.Skip("no trained chain flagged mid-sequence")
	}
	s, err := New(p, WithQuietPeriod(0), WithEarlyDetect(true))
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	base := time.Date(2026, 5, 2, 0, 0, 0, 0, time.UTC)
	events := chainEvents(flagged, flagged.Node, base)
	terminalAt := events[len(events)-1].Time
	feedEvents(t, s, events)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	alerts := wait()
	provisional := 0
	for _, a := range alerts {
		if !a.Provisional {
			continue
		}
		provisional++
		if !a.FlaggedAt.Before(terminalAt) {
			t.Fatalf("provisional alert at %v, not before terminal %v", a.FlaggedAt, terminalAt)
		}
		if a.LeadSeconds <= 0 {
			t.Fatalf("provisional lead %.2fs, want > 0", a.LeadSeconds)
		}
	}
	if provisional == 0 {
		t.Fatalf("no provisional alert among %d alerts", len(alerts))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Microsecond) // bucket upper bound 4µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(500 * time.Microsecond) // bucket upper bound 512µs
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Quantile(0.5); got != 4*time.Microsecond {
		t.Fatalf("p50 %v", got)
	}
	if got := h.Quantile(0.99); got != 512*time.Microsecond {
		t.Fatalf("p99 %v", got)
	}
	if m := h.Mean(); m < 40*time.Microsecond || m > 60*time.Microsecond {
		t.Fatalf("mean %v", m)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}
