package stream

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"desh/internal/catalog"
	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/logsim"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
)

// freshPipeline clones the shared trained pipeline through Save/Load —
// the same thing a real restart does by reloading the model file — so
// each streamer incarnation gets its own encoder and labeler.
func freshPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	var buf bytes.Buffer
	if err := trainedPipeline(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fastRestart shrinks the supervisor's restart backoff so panic tests
// finish quickly.
func fastRestart(o *Options) { o.restartBackoff = time.Millisecond }

// alertKey is the multiset identity of an alert for run comparison: its
// ledger key plus the bits of the one observable field that key leaves
// out, so two alerts compare equal only when they are bit-identical.
func alertKey(a Alert) string {
	return fmt.Sprintf("%s|%016x", alertRecordOf(a).LedgerKey(), math.Float64bits(a.MSE))
}

func alertMultiset(alerts []Alert) map[string]int {
	m := make(map[string]int, len(alerts))
	for _, a := range alerts {
		m[alertKey(a)]++
	}
	return m
}

// compareMultisets fails the test for every alert key whose count in got
// is not its count in want: missing, miscounted or spurious. label names
// the two runs.
func compareMultisets(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: alert %s delivered %d times, want %d", label, k, got[k], n)
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: spurious alert %s delivered %d times", label, k, n)
		}
	}
}

// feedEvents ingests evs in order; any ingest error fails the test.
func feedEvents(t testing.TB, s *Streamer, evs []logparse.Event) {
	t.Helper()
	for _, ev := range evs {
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func checkConservation(t *testing.T, s *Streamer) {
	t.Helper()
	m := s.SnapshotMetrics()
	if m.Processed+m.Dropped+m.Quarantined+m.SkewQuarantined+m.Shed != m.Ingested-m.SafeFiltered {
		t.Fatalf("conservation violated: processed %d + dropped %d + quarantined %d + skew %d + shed %d != ingested %d - safe %d",
			m.Processed, m.Dropped, m.Quarantined, m.SkewQuarantined, m.Shed, m.Ingested, m.SafeFiltered)
	}
}

// TestCrashRestartEquivalence is the paper cut of the tentpole: a run
// that is killed (no drain, no final snapshot) several times and
// recovered from its state directory must deliver exactly the alerts of
// an uninterrupted run — no losses, no duplicates — with snapshots
// taken mid-flight to exercise the snapshot + WAL-tail path.
func TestCrashRestartEquivalence(t *testing.T) {
	run, err := generatedRun(logsim.Profiles()[2], 24, 24, 16, 131)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(run.Events))
	for i, ge := range run.Events {
		lines[i] = ge.Line()
	}
	opts := func(extra ...Option) []Option {
		return append([]Option{
			WithShards(3),
			WithQuietPeriod(time.Minute),
			WithEarlyDetect(true),
			WithAlertBuffer(8192),
			WithSnapshotEvery(time.Hour), // periodic loop stays out of the way
			fastRestart,
			// Event-time layer on: buffered events must ride snapshots and
			// the WAL replay must re-derive watermarks deterministically.
			WithAllowedLateness(10 * time.Second),
			WithDedupWindow(64),
			WithSkewTolerance(2 * time.Second),
		}, extra...)
	}

	// Baseline: one uninterrupted pass.
	sb, err := New(freshPipeline(t), opts()...)
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
	if len(want) < 3 {
		t.Fatalf("baseline fired only %d distinct alerts; run too quiet to pin equivalence", len(want))
	}

	// The same stream, killed four times: each incarnation picks up from
	// the state directory. Odd incarnations also snapshot mid-segment so
	// recovery exercises snapshot-restore + WAL-tail, not just full
	// replay.
	dir := t.TempDir()
	n := len(lines)
	cuts := []int{n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5, n}
	var got []Alert
	start := 0
	for i, end := range cuts {
		s, err := New(freshPipeline(t), opts(WithStateDir(dir))...)
		if err != nil {
			t.Fatalf("incarnation %d: %v", i, err)
		}
		_, wait := collectAlerts(s)
		for j := start; j < end; j++ {
			if err := s.IngestLine(lines[j]); err != nil {
				t.Fatalf("incarnation %d line %d: %v", i, j, err)
			}
			if i%2 == 1 && j == (start+end)/2 {
				if err := s.snapshotNow(); err != nil {
					t.Fatalf("incarnation %d snapshot: %v", i, err)
				}
			}
		}
		if end < n {
			s.crash()
		} else {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			checkConservation(t, s)
		}
		if d := s.Metrics().AlertsDropped.Load(); d != 0 {
			t.Fatalf("incarnation %d dropped %d alerts; buffer sizing broke the comparison", i, d)
		}
		got = append(got, wait()...)
		start = end
	}

	gotSet := alertMultiset(got)
	compareMultisets(t, "crash-restart run vs baseline", gotSet, want)
}

// TestGracefulRestartReplaysNothing: a drained Close writes a final
// snapshot covering the whole WAL, so the next boot replays zero
// records and serves immediately.
func TestGracefulRestartReplaysNothing(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 8, 4, 3, 134)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := New(freshPipeline(t), WithShards(2), WithStateDir(dir), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	feedEvents(t, s, events)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Metrics().Snapshots.Load() == 0 {
		t.Fatal("graceful close took no final snapshot")
	}

	s2, err := New(freshPipeline(t), WithShards(2), WithStateDir(dir), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	m := s2.SnapshotMetrics()
	if m.ReplayedEvents != 0 {
		t.Fatalf("replayed %d events after a graceful shutdown", m.ReplayedEvents)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardPanicRestartKeepsState: one injected panic mid-stream must
// cost nothing — the supervisor restarts the shard, retries the event,
// and the run's alerts match a run with no panic at all.
func TestShardPanicRestartKeepsState(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 12, 12, 8, 132)
	if err != nil {
		t.Fatal(err)
	}
	base := []Option{
		WithShards(2),
		WithQuietPeriod(time.Minute),
		WithAlertBuffer(8192),
		fastRestart,
	}

	sb, err := New(freshPipeline(t), base...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitBase := collectAlerts(sb)
	feedEvents(t, sb, events)
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	want := alertMultiset(waitBase())
	if len(want) == 0 {
		t.Fatal("baseline fired no alerts; test stream too quiet")
	}

	var seen atomic.Int64
	hook := func(_ int, _ logparse.EncodedEvent) {
		if seen.Add(1) == 50 {
			panic("injected shard failure")
		}
	}
	s, err := New(freshPipeline(t), append(base, withPanicHook(hook))...)
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	feedEvents(t, s, events)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := alertMultiset(wait())

	m := s.SnapshotMetrics()
	if m.ShardRestarts != 1 || m.Quarantined != 0 {
		t.Fatalf("restarts %d quarantined %d; want exactly 1 restart, 0 quarantines", m.ShardRestarts, m.Quarantined)
	}
	checkConservation(t, s)
	compareMultisets(t, "run with panic vs without", got, want)
}

// TestPoisonedEventQuarantinedAndSkippedOnReplay: an event that panics
// on every attempt is retried maxEventRetries times, then quarantined —
// durably, so recovery after a crash skips it instead of re-entering
// the crash loop.
func TestPoisonedEventQuarantinedAndSkippedOnReplay(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 8, 4, 3, 133)
	if err != nil {
		t.Fatal(err)
	}
	p := freshPipeline(t)
	lab := p.Labeler()

	// Pick a victim that is non-Safe (reaches a shard) and unique by
	// quarantine identity, so exactly one quarantine fires.
	counts := map[string]int{}
	nonSafe := 0
	for _, ev := range events {
		counts[persist.EventQuarantineKey(ev.Time, ev.Node, ev.Key)]++
		if lab.Label(ev.Key) != catalog.Safe {
			nonSafe++
		}
	}
	victim := ""
	for _, ev := range events[len(events)/10:] {
		k := persist.EventQuarantineKey(ev.Time, ev.Node, ev.Key)
		if lab.Label(ev.Key) != catalog.Safe && counts[k] == 1 {
			victim = k
			break
		}
	}
	if victim == "" {
		t.Fatal("no unique non-Safe event to poison")
	}
	hook := func(_ int, ev logparse.EncodedEvent) {
		if quarantineKeyOf(ev) == victim {
			panic("poisoned event")
		}
	}

	dir := t.TempDir()
	mkOpts := func() []Option {
		return []Option{
			WithShards(2),
			WithStateDir(dir),
			fastRestart,
			WithSnapshotEvery(time.Hour),
			WithAlertBuffer(8192),
			withPanicHook(hook),
		}
	}
	s, err := New(p, mkOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	feedEvents(t, s, events)
	// Let the shards drain fully (the victim included) before killing
	// the process, so the quarantine decision is what recovery sees.
	waitUntil(t, 10*time.Second, "shards to drain", func() bool {
		return s.met.Processed.Load()+s.met.Quarantined.Load() == int64(nonSafe)
	})
	s.crash()
	wait()
	m := s.SnapshotMetrics()
	if m.Quarantined != 1 {
		t.Fatalf("quarantined %d events, want 1", m.Quarantined)
	}
	if m.ShardRestarts != 3 {
		t.Fatalf("shard restarted %d times, want 3 (maxEventRetries)", m.ShardRestarts)
	}

	// Recovery replays the WAL with the same poisoned event in it — and
	// must skip it via its durable quarantine record, not panic again.
	s2, err := New(freshPipeline(t), mkOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, wait2 := collectAlerts(s2)
	m2 := s2.SnapshotMetrics()
	if m2.Quarantined != 0 || m2.ShardRestarts != 0 {
		t.Fatalf("replay re-hit the poisoned event: quarantined %d, restarts %d", m2.Quarantined, m2.ShardRestarts)
	}
	if m2.ReplayedEvents != int64(nonSafe-1) {
		t.Fatalf("replayed %d events, want %d (all non-Safe minus the quarantined one)", m2.ReplayedEvents, nonSafe-1)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	wait2()
	checkConservation(t, s2)
}

// TestPoisonedEventInImportedTailQuarantinedAndSkipped: a dead source
// journaled an event it never got to process, and that event panics the
// importer. The import replays the tail through the same step boot
// recovery uses, so the event is quarantined at once and durably: the
// importer's own next boot re-applies the import without it, and the
// alerts of source + importer equal one streamer that quarantined the
// same event with no handoff at all.
func TestPoisonedEventInImportedTailQuarantinedAndSkipped(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 16, 12, 10, 156)
	if err != nil {
		t.Fatal(err)
	}
	// The victim is the source's last event: non-Safe, unique by
	// quarantine identity.
	lab, counts := freshPipeline(t).Labeler(), map[string]int{}
	for _, ev := range events {
		counts[persist.EventQuarantineKey(ev.Time, ev.Node, ev.Key)]++
	}
	cut := len(events) * 3 / 5
	key := func(ev logparse.Event) string { return persist.EventQuarantineKey(ev.Time, ev.Node, ev.Key) }
	for lab.Label(events[cut-1].Key) == catalog.Safe || counts[key(events[cut-1])] != 1 {
		cut++
	}
	victim := events[cut-1]
	opts := func(extra ...Option) []Option {
		return handoffOpts(append(extra, fastRestart, withPanicHook(func(_ int, ev logparse.EncodedEvent) {
			if quarantineKeyOf(ev) == key(victim) {
				panic("poisoned event")
			}
		}))...)
	}

	sb, err := New(freshPipeline(t), opts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitBase := collectAlerts(sb)
	feedEvents(t, sb, events)
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	want := alertMultiset(waitBase())
	if q := sb.met.Quarantined.Load(); q != 1 || len(want) < 2 {
		t.Fatalf("baseline quarantined %d events and fired %d distinct alerts; want 1 and >= 2", q, len(want))
	}

	// The source never sees the victim (no hook needed); the takeover
	// state gets it as the last record of the pending tail, as if the
	// source had died between the WAL append and the shard.
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := New(freshPipeline(t), handoffOpts(WithStateDir(dirA))...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitA := collectAlerts(a)
	feedEvents(t, a, events[:cut-1])
	a.crash()
	st, err := LoadHandoffFromDir(nil, dirA, fullCircle)
	if err != nil {
		t.Fatal(err)
	}
	st.Pending = append(st.Pending, persist.RecordOf(victim))

	b, err := New(freshPipeline(t), opts(WithStateDir(dirB))...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitB := collectAlerts(b)
	if err := b.ImportState(6, "takeover:"+dirA, fullCircle, st); err != nil {
		t.Fatal(err)
	}
	if m := b.SnapshotMetrics(); m.Quarantined != 1 || m.ShardRestarts != 0 {
		t.Fatalf("import: quarantined %d, restarts %d; want 1 and 0 (no supervisor retry on a replayed event)", m.Quarantined, m.ShardRestarts)
	}
	journaled := 0
	if _, err := persist.ReplayWAL(faultfs.OS(), dirB, 0, func(_ uint64, payload []byte) error {
		if payload[0] == persist.RecQuarantine {
			rec, err := persist.DecodeQuarantine(payload[1:])
			if err != nil || rec.LedgerKey() != key(victim) {
				t.Errorf("quarantine record %+v (%v), want the victim", rec, err)
			}
			journaled++
		}
		return nil
	}); err != nil || journaled != 1 {
		t.Fatalf("importer's WAL holds %d quarantine records (%v), want 1", journaled, err)
	}
	b.crash()

	b2, err := New(freshPipeline(t), opts(WithStateDir(dirB))...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitB2 := collectAlerts(b2)
	if m := b2.SnapshotMetrics(); m.Quarantined != 0 || m.ReplayedEvents == 0 {
		t.Fatalf("importer's reboot: quarantined %d, replayed %d; want the import re-applied without the victim", m.Quarantined, m.ReplayedEvents)
	}
	feedEvents(t, b2, events[cut:])
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	got := alertMultiset(append(append(waitA(), waitB()...), waitB2()...))
	compareMultisets(t, "poisoned takeover vs quarantine with no handoff", got, want)
	checkConservation(t, b2)
}

// TestNoGoroutineLeakAcrossRestarts: every incarnation — graceful or
// crashed — must release all its goroutines (shards, supervisor
// restarts, snapshot loop, idle flusher).
func TestNoGoroutineLeakAcrossRestarts(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 6, 2, 2, 135)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		s, err := New(freshPipeline(t),
			WithShards(4),
			WithStateDir(dir),
			WithIdleFlush(50*time.Millisecond),
			WithAlertBuffer(4096),
		)
		if err != nil {
			t.Fatal(err)
		}
		_, wait := collectAlerts(s)
		feedEvents(t, s, events)
		if i%2 == 0 {
			s.crash()
		} else if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wait()
	}
	waitUntil(t, 5*time.Second, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestIngestBatchOneWALWrite: a batch is journaled as one contiguous run
// of records by one WAL write — taking an event's wire record as it
// came, encoding the rest — and leaves on disk exactly the bytes the
// same events leave when ingested one at a time. Events the caller
// withholds are skipped untouched; a frozen range is refused per event.
func TestIngestBatchOneWALWrite(t *testing.T) {
	events, err := generatedEvents(logsim.Profiles()[2], 6, 2, 2, 152)
	if err != nil {
		t.Fatal(err)
	}
	opts := func(dir string) []Option {
		return handoffOpts(WithStateDir(dir), WithAllowedLateness(1000*time.Hour), WithReorderDepth(len(events)))
	}
	segment := func(dir string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000000.log"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	oneDir := t.TempDir()
	one, err := New(freshPipeline(t), opts(oneDir)...)
	if err != nil {
		t.Fatal(err)
	}
	_, waitOne := collectAlerts(one)
	feedEvents(t, one, events)
	want := segment(oneDir)
	wantAppends := one.SnapshotMetrics().WALBatchAppends
	one.Kill()
	waitOne()

	dir := t.TempDir()
	s, err := New(freshPipeline(t), opts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	_, wait := collectAlerts(s)
	// Every other event carries its wire record; one foreign event rides
	// in the middle, withheld by the caller.
	batch := make([]Admission, 0, len(events)+1)
	for i, ev := range events {
		a := Admission{Event: ev}
		if i%2 == 0 {
			a.Record = persist.EncodeEvent(persist.RecordOf(ev))
		}
		batch = append(batch, a)
		if i == len(events)/2 {
			batch = append(batch, Admission{Event: ev, Refused: true})
		}
	}
	if err := s.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i, a := range batch {
		if a.Refused != (i == len(events)/2+1) {
			t.Fatalf("batch[%d].Refused = %v", i, a.Refused)
		}
	}
	m := s.SnapshotMetrics()
	if m.Ingested != int64(len(events)) || m.WALBatchAppends != 1 || m.WALErrors != 0 {
		t.Fatalf("ingested %d (want %d) with %d WAL writes (want 1, one at a time took %d), %d errors",
			m.Ingested, len(events), m.WALBatchAppends, wantAppends, m.WALErrors)
	}
	if got := segment(dir); !bytes.Equal(got, want) {
		t.Fatalf("batched WAL (%d bytes) differs from the one-at-a-time WAL (%d bytes)", len(got), len(want))
	}

	// A frozen range refuses per event, counting and journaling nothing.
	if _, err := s.BeginHandoff(2, "http://target", fullCircle); err != nil {
		t.Fatal(err)
	}
	frozen := []Admission{{Event: events[0]}, {Event: events[1]}}
	if err := s.IngestBatch(frozen); err != nil {
		t.Fatal(err)
	}
	if !frozen[0].Refused || !frozen[1].Refused {
		t.Fatalf("frozen batch not refused: %+v", frozen)
	}
	if got := s.SnapshotMetrics(); got.Ingested != m.Ingested || got.WALBatchAppends != 1 {
		t.Fatalf("frozen batch was counted: ingested %d, WAL writes %d", got.Ingested, got.WALBatchAppends)
	}
	s.Kill()
	wait()
	if err := s.IngestBatch(frozen[:1]); err != ErrClosed {
		t.Fatalf("batch after kill: %v, want ErrClosed", err)
	}
}
