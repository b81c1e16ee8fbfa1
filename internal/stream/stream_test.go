package stream

import (
	"sync"
	"testing"
	"time"

	"desh/internal/chain"
	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/logsim"
)

var (
	pipeOnce sync.Once
	pipe     *core.Pipeline
	pipeErr  error
)

// trainedPipeline trains one small pipeline shared by every test and
// benchmark in the package (training dominates test cost; inference
// state is per-test).
func trainedPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	pipeOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Epochs1 = 0
		cfg.Epochs2 = 150
		p, err := core.New(cfg)
		if err != nil {
			pipeErr = err
			return
		}
		events, err := generatedEvents(logsim.Profiles()[2], 30, 48, 30, 32)
		if err != nil {
			pipeErr = err
			return
		}
		if _, err := p.Train(events); err != nil {
			pipeErr = err
			return
		}
		pipe = p
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe
}

func generatedRun(profile logsim.Profile, nodes int, hours float64, failures int, seed int64) (*logsim.Run, error) {
	return logsim.Generate(logsim.Config{
		Profile: profile, Nodes: nodes, Hours: hours, Failures: failures, Seed: seed,
	})
}

func generatedEvents(profile logsim.Profile, nodes int, hours float64, failures int, seed int64) ([]logparse.Event, error) {
	run, err := generatedRun(profile, nodes, hours, failures, seed)
	if err != nil {
		return nil, err
	}
	events := make([]logparse.Event, len(run.Events))
	for i, ge := range run.Events {
		ev, err := logparse.ParseLine(ge.Line())
		if err != nil {
			return nil, err
		}
		events[i] = ev
	}
	return events, nil
}

// collectAlerts drains the streamer's alert channel in the background.
func collectAlerts(s *Streamer) (<-chan []Alert, func() []Alert) {
	done := make(chan []Alert, 1)
	go func() {
		var alerts []Alert
		for a := range s.Alerts() {
			alerts = append(alerts, a)
		}
		done <- alerts
	}()
	wait := func() []Alert { return <-done }
	return done, wait
}

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
	p := trainedPipeline(t)
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
	p := trainedPipeline(t)
	s, err := New(p, WithShards(2), WithQuietPeriod(0))
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	run, err := generatedRun(logsim.Profiles()[2], 10, 4, 4, 41)
	if err != nil {
		t.Fatal(err)
	}
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
	p := trainedPipeline(t)
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
	_, wait1 := collectAlerts(s1)
	replay(s1, 0, 10*time.Minute)
	if alerts := wait1(); len(alerts) != 2 {
		t.Fatalf("dedup off: %d alerts, want 2", len(alerts))
	}

	s2, err := New(p, WithQuietPeriod(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	_, wait2 := collectAlerts(s2)
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
	_, wait3 := collectAlerts(s3)
	replay(s3, 0, 2*time.Hour)
	if alerts := wait3(); len(alerts) != 2 {
		t.Fatalf("re-arm: %d alerts, want 2", len(alerts))
	}
}

// TestEarlyDetectProvisionalAlert replays a trained chain with early
// detection on: a provisional alert must fire strictly before the
// terminal event's timestamp, with the model-predicted lead attached.
func TestEarlyDetectProvisionalAlert(t *testing.T) {
	p := trainedPipeline(t)
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
	_, wait := collectAlerts(s)
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
