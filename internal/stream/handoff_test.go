package stream

import (
	"testing"
	"time"

	"desh/internal/logsim"
	"desh/internal/persist"
)

// fullCircle is the canonical whole-keyspace range.
var fullCircle = []persist.HashRange{{Lo: 0, Hi: 0}}

func handoffOpts(extra ...Option) []Option {
	return append([]Option{
		WithShards(3),
		WithQuietPeriod(time.Minute),
		WithEarlyDetect(true),
		WithAlertBuffer(8192),
		WithSnapshotEvery(time.Hour),
		WithAllowedLateness(10 * time.Second),
		WithDedupWindow(64),
	}, extra...)
}

// TestHandoffFreezeAndAbort: Begin freezes ingest for the ranges
// (ErrFrozen), a second Begin is rejected while one is in flight, and
// Abort thaws everything with no state lost.
func TestHandoffFreezeAndAbort(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 6, 2, 2, 151)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(freshPipeline(t), handoffOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	half := len(events) / 2
	feedEvents(t, s, events[:half])
	st, err := s.BeginHandoff(2, "http://target", fullCircle)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) == 0 {
		t.Fatal("captured state has no nodes")
	}
	if len(st.EncKeys) == 0 {
		t.Fatal("captured state has no encoder table")
	}
	if err := s.IngestEvent(events[half]); err != ErrFrozen {
		t.Fatalf("ingest into frozen range: %v, want ErrFrozen", err)
	}
	if _, err := s.BeginHandoff(3, "http://other", fullCircle); err != ErrHandoffInFlight {
		t.Fatalf("second Begin: %v, want ErrHandoffInFlight", err)
	}
	if _, _, _, ok := s.PendingHandoff(); !ok {
		t.Fatal("PendingHandoff must report the in-flight handoff")
	}
	if err := s.AbortHandoff(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[half:] {
		if err := s.IngestEvent(ev); err != nil {
			t.Fatalf("ingest after abort: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	m := s.SnapshotMetrics()
	if m.HandoffsStarted != 1 || m.HandoffsAborted != 1 || m.HandoffsCompleted != 0 {
		t.Fatalf("handoff counters: started %d aborted %d completed %d", m.HandoffsStarted, m.HandoffsAborted, m.HandoffsCompleted)
	}
	// The aborted handoff must not have perturbed the run.
	checkConservation(t, s)
}

// TestLiveHandoffEquivalence is the core lossless-migration claim at
// the stream layer: a run whose whole keyspace migrates mid-stream
// from instance A to instance B (Begin → ship → Import → Complete)
// must deliver exactly the alerts of one uninterrupted streamer — open
// chains continue on B, alerts A already fired are suppressed on B,
// nothing is lost or duplicated.
func TestLiveHandoffEquivalence(t *testing.T) {
	run, err := generatedRun(logsim.Profiles()[2], 16, 12, 10, 152)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(run.Events))
	for i, ge := range run.Events {
		lines[i] = ge.Line()
	}

	sb, err := New(freshPipeline(t), handoffOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitBase := collectAlerts(sb)
	for _, line := range lines {
		if err := sb.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	want := alertMultiset(waitBase())
	if len(want) < 2 {
		t.Fatalf("baseline fired only %d distinct alerts; run too quiet", len(want))
	}

	a, err := New(freshPipeline(t), handoffOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(freshPipeline(t), handoffOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitA := collectAlerts(a)
	_, waitB := collectAlerts(b)
	cut := len(lines) * 3 / 5
	for _, line := range lines[:cut] {
		if err := a.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	st, err := a.BeginHandoff(2, "b", fullCircle)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ImportState(2, "a", fullCircle, st); err != nil {
		t.Fatal(err)
	}
	if err := a.CompleteHandoff(); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines[cut:] {
		if err := b.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	got := alertMultiset(append(waitA(), waitB()...))
	compareMultisets(t, "handoff run vs baseline", got, want)
	ma, mbm := a.SnapshotMetrics(), b.SnapshotMetrics()
	if ma.HandoffsCompleted != 1 {
		t.Fatalf("source completed %d handoffs, want 1", ma.HandoffsCompleted)
	}
	if mbm.HandoffImports != 1 || mbm.HandoffNodesIn == 0 {
		t.Fatalf("target imports %d, nodes in %d", mbm.HandoffImports, mbm.HandoffNodesIn)
	}
}

// TestHandoffCrashMidFlightStaysFrozen: a crash between Begin and
// Complete recovers with the intent unresolved — the ranges stay
// frozen (fail-safe: zero owners rather than two) until the
// coordinator resolves the handoff, and Abort thaws them.
func TestHandoffCrashMidFlightStaysFrozen(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 6, 2, 2, 153)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := New(freshPipeline(t), handoffOpts(WithStateDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	half := len(events) / 2
	feedEvents(t, s, events[:half])
	if _, err := s.BeginHandoff(5, "http://target", fullCircle); err != nil {
		t.Fatal(err)
	}
	s.crash()
	wait()

	s2, err := New(freshPipeline(t), handoffOpts(WithStateDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	_, wait2 := collectAlerts(s2)
	epoch, target, ranges, ok := s2.PendingHandoff()
	if !ok {
		t.Fatal("recovered streamer must surface the unresolved handoff")
	}
	if epoch != 5 || target != "http://target" || len(ranges) != 1 {
		t.Fatalf("recovered intent: epoch %d target %q ranges %v", epoch, target, ranges)
	}
	if err := s2.IngestEvent(events[half]); err != ErrFrozen {
		t.Fatalf("recovered frozen range accepted an event: %v, want ErrFrozen", err)
	}
	if err := s2.AbortHandoff(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[half:] {
		if err := s2.IngestEvent(ev); err != nil {
			t.Fatalf("ingest after recovered abort: %v", err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	wait2()
}

// TestEpochJournalRecovery: the ownership record survives a crash and
// the newest one wins.
func TestEpochJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := New(freshPipeline(t), WithShards(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	r1 := []persist.HashRange{{Lo: 10, Hi: 20}}
	r2 := []persist.HashRange{{Lo: 20, Hi: 30}, {Lo: 40, Hi: 0}}
	if err := s.JournalEpoch(3, r1); err != nil {
		t.Fatal(err)
	}
	if err := s.JournalEpoch(4, r2); err != nil {
		t.Fatal(err)
	}
	s.crash()
	wait()
	s2, err := New(freshPipeline(t), WithShards(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	_, wait2 := collectAlerts(s2)
	rec, ok := s2.RecoveredOwnership()
	if !ok {
		t.Fatal("ownership record not recovered")
	}
	if rec.Epoch != 4 || len(rec.Ranges) != 2 || rec.Ranges[0] != r2[0] || rec.Ranges[1] != r2[1] {
		t.Fatalf("recovered %+v, want epoch 4 ranges %v", rec, r2)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	wait2()
}

// TestTakeoverFromDeadDirEquivalence is the dead-instance path: A is
// killed mid-run, its state directory is rebuilt read-only into a
// HandoffState, B imports it and serves the rest of the stream. The
// union of alerts must equal one uninterrupted run.
func TestTakeoverFromDeadDirEquivalence(t *testing.T) {
	run, err := generatedRun(logsim.Profiles()[2], 16, 12, 10, 154)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(run.Events))
	for i, ge := range run.Events {
		lines[i] = ge.Line()
	}

	sb, err := New(freshPipeline(t), handoffOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitBase := collectAlerts(sb)
	for _, line := range lines {
		if err := sb.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	want := alertMultiset(waitBase())
	if len(want) < 2 {
		t.Fatalf("baseline fired only %d distinct alerts; run too quiet", len(want))
	}

	dir := t.TempDir()
	a, err := New(freshPipeline(t), handoffOpts(WithStateDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitA := collectAlerts(a)
	cut := len(lines) * 3 / 5
	for i, line := range lines[:cut] {
		if err := a.IngestLine(line); err != nil {
			t.Fatal(err)
		}
		// A mid-segment snapshot exercises snapshot + WAL-tail takeover,
		// not just full-WAL replay.
		if i == cut/2 {
			if err := a.snapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.crash()

	st, err := LoadHandoffFromDir(nil, dir, fullCircle)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(freshPipeline(t), handoffOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitB := collectAlerts(b)
	if err := b.ImportState(6, "takeover:"+dir, fullCircle, st); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines[cut:] {
		if err := b.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	got := alertMultiset(append(waitA(), waitB()...))
	compareMultisets(t, "takeover run vs baseline", got, want)
}
