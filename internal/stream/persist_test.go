package stream

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desh/internal/catalog"
	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
)

// TestCrashRestartEquivalence is the paper cut of the tentpole: a run
// that is killed (no drain, no final snapshot) several times and
// recovered from its state directory must deliver exactly the alerts of
// an uninterrupted run — no losses, no duplicates — with snapshots
// taken mid-flight to exercise the snapshot + WAL-tail path.
func TestCrashRestartEquivalence(t *testing.T) {
	sc := &scenario{
		in:      fixture.Corpus(t, fixture.Config(24, 24, 16, 131)).Events,
		via:     viaLines,
		durable: true,
		quiet:   3,
		opts: []Option{
			WithShards(3),
			WithQuietPeriod(time.Minute),
			WithEarlyDetect(true),
			WithAlertBuffer(8192),
			WithSnapshotEvery(time.Hour), // periodic loop stays out of the way
			// Event-time layer on: buffered events must ride snapshots and
			// the WAL replay must re-derive watermarks deterministically.
			WithAllowedLateness(10 * time.Second),
			WithDedupWindow(64),
			WithSkewTolerance(2 * time.Second),
		},
	}
	// Killed four times, each incarnation picking up from the state
	// directory; every other one also snapshots mid-segment so recovery
	// exercises snapshot-restore + WAL-tail, not just full replay.
	n := len(sc.in)
	for i := 1; i <= 4; i++ {
		sc.steps = append(sc.steps, step{until: i * n / 5, snapshot: i%2 == 0, end: kill})
	}
	sc.steps = append(sc.steps, step{})
	sc.run(t, "crash-restart run vs baseline")
}

// TestGracefulRestartReplaysNothing: a drained Close writes a final
// snapshot covering the whole WAL, so the next boot replays zero
// records and serves immediately.
func TestGracefulRestartReplaysNothing(t *testing.T) {
	events := fixture.Corpus(t, fixture.Config(8, 4, 3, 134)).Events
	dir := t.TempDir()
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(dir), WithAlertBuffer(4096))
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

	s2, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(dir), WithAlertBuffer(4096))
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
// cost nothing — the shard recovers it, retries the event where it
// stands, and the run's alerts match a run with no panic at all.
func TestShardPanicRestartKeepsState(t *testing.T) {
	events := fixture.Corpus(t, fixture.Config(12, 12, 8, 132)).Events
	base := []Option{
		WithShards(2),
		WithQuietPeriod(time.Minute),
		WithAlertBuffer(8192),
	}

	sb, err := New(fixture.Model(t, fixture.Serving), base...)
	if err != nil {
		t.Fatal(err)
	}
	waitBase := fixture.Collect(sb.Alerts())
	feedEvents(t, sb, events)
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	want := fixture.Multiset(waitBase())
	if len(want) == 0 {
		t.Fatal("baseline fired no alerts; test stream too quiet")
	}

	var seen atomic.Int64
	hook := func(_ int, _ logparse.EncodedEvent) {
		if seen.Add(1) == 50 {
			panic("injected shard failure")
		}
	}
	s, err := New(fixture.Model(t, fixture.Serving), append(base, withPanicHook(hook))...)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	feedEvents(t, s, events)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := fixture.Multiset(wait())

	m := s.SnapshotMetrics()
	if m.ShardPanics != 1 || m.Quarantined != 0 {
		t.Fatalf("panics %d quarantined %d; want exactly 1 panic, 0 quarantines", m.ShardPanics, m.Quarantined)
	}
	checkConservation(t, s)
	fixture.Compare(t, "run with panic vs without", got, want)
}

// TestPoisonedEventQuarantinedAndSkippedOnReplay: an event that panics
// on every attempt is retried maxEventRetries times, then quarantined —
// durably, so recovery after a crash skips it instead of re-entering
// the crash loop.
func TestPoisonedEventQuarantinedAndSkippedOnReplay(t *testing.T) {
	events := fixture.Corpus(t, fixture.Config(8, 4, 3, 133)).Events
	p := fixture.Model(t, fixture.Serving)
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
			WithSnapshotEvery(time.Hour),
			WithAlertBuffer(8192),
			withPanicHook(hook),
		}
	}
	s, err := New(p, mkOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	feedEvents(t, s, events)
	// Let the shards drain fully (the victim included) before killing
	// the process, so the quarantine decision is what recovery sees.
	fixture.WaitFor(t, 10*time.Second, "shards to drain", func() bool {
		return s.met.Processed.Load()+s.met.Quarantined.Load() == int64(nonSafe)
	})
	s.crash()
	wait()
	m := s.SnapshotMetrics()
	if m.Quarantined != 1 {
		t.Fatalf("quarantined %d events, want 1", m.Quarantined)
	}
	if m.ShardPanics != 3 {
		t.Fatalf("shard panicked %d times, want 3 (maxEventRetries)", m.ShardPanics)
	}

	// Recovery replays the WAL with the same poisoned event in it — and
	// must skip it via its durable quarantine record, not panic again.
	s2, err := New(fixture.Model(t, fixture.Serving), mkOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	wait2 := fixture.Collect(s2.Alerts())
	m2 := s2.SnapshotMetrics()
	if m2.Quarantined != 0 || m2.ShardPanics != 0 {
		t.Fatalf("replay re-hit the poisoned event: quarantined %d, panics %d", m2.Quarantined, m2.ShardPanics)
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
	events := fixture.Corpus(t, fixture.Config(16, 12, 10, 156)).Events
	// The victim is the source's last event: non-Safe, unique by
	// quarantine identity.
	lab, counts := fixture.Model(t, fixture.Serving).Labeler(), map[string]int{}
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
		return handoffOpts(append(extra, withPanicHook(func(_ int, ev logparse.EncodedEvent) {
			if quarantineKeyOf(ev) == key(victim) {
				panic("poisoned event")
			}
		}))...)
	}

	sb, err := New(fixture.Model(t, fixture.Serving), opts()...)
	if err != nil {
		t.Fatal(err)
	}
	waitBase := fixture.Collect(sb.Alerts())
	feedEvents(t, sb, events)
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	want := fixture.Multiset(waitBase())
	if q := sb.met.Quarantined.Load(); q != 1 || len(want) < 2 {
		t.Fatalf("baseline quarantined %d events and fired %d distinct alerts; want 1 and >= 2", q, len(want))
	}

	// The source never sees the victim (no hook needed); the takeover
	// state gets it as the last record of the pending tail, as if the
	// source had died between the WAL append and the shard.
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := New(fixture.Model(t, fixture.Serving), handoffOpts(WithStateDir(dirA))...)
	if err != nil {
		t.Fatal(err)
	}
	waitA := fixture.Collect(a.Alerts())
	feedEvents(t, a, events[:cut-1])
	a.crash()
	st, err := LoadHandoffFromDir(nil, dirA, fullCircle)
	if err != nil {
		t.Fatal(err)
	}
	st.Pending = append(st.Pending, persist.RecordOf(victim))

	b, err := New(fixture.Model(t, fixture.Serving), opts(WithStateDir(dirB))...)
	if err != nil {
		t.Fatal(err)
	}
	waitB := fixture.Collect(b.Alerts())
	if err := b.ImportState(6, "takeover:"+dirA, fullCircle, st); err != nil {
		t.Fatal(err)
	}
	if m := b.SnapshotMetrics(); m.Quarantined != 1 || m.ShardPanics != 1 {
		t.Fatalf("import: quarantined %d, panics %d; want 1 and 1 (a replayed event is tried once, not retried)", m.Quarantined, m.ShardPanics)
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

	b2, err := New(fixture.Model(t, fixture.Serving), opts(WithStateDir(dirB))...)
	if err != nil {
		t.Fatal(err)
	}
	waitB2 := fixture.Collect(b2.Alerts())
	if m := b2.SnapshotMetrics(); m.Quarantined != 0 || m.ReplayedEvents == 0 {
		t.Fatalf("importer's reboot: quarantined %d, replayed %d; want the import re-applied without the victim", m.Quarantined, m.ReplayedEvents)
	}
	feedEvents(t, b2, events[cut:])
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	got := fixture.Multiset(append(append(waitA(), waitB()...), waitB2()...))
	fixture.Compare(t, "poisoned takeover vs quarantine with no handoff", got, want)
	checkConservation(t, b2)
}

// TestNoGoroutineLeakAcrossRestarts: every incarnation — graceful or
// crashed — must release all its goroutines (shards, snapshot
// loop, idle flusher).
func TestNoGoroutineLeakAcrossRestarts(t *testing.T) {
	events := fixture.Corpus(t, fixture.Config(6, 2, 2, 135)).Events
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		s, err := New(fixture.Model(t, fixture.Serving),
			WithShards(4),
			WithStateDir(dir),
			WithIdleFlush(50*time.Millisecond),
			WithAlertBuffer(4096),
		)
		if err != nil {
			t.Fatal(err)
		}
		wait := fixture.Collect(s.Alerts())
		feedEvents(t, s, events)
		if i%2 == 0 {
			s.crash()
		} else if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wait()
	}
	fixture.WaitFor(t, 5*time.Second, "goroutines to settle", func() bool {
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
	events := fixture.Corpus(t, fixture.Config(6, 2, 2, 152)).Events
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
	one, err := New(fixture.Model(t, fixture.Serving), opts(oneDir)...)
	if err != nil {
		t.Fatal(err)
	}
	waitOne := fixture.Collect(one.Alerts())
	feedEvents(t, one, events)
	want := segment(oneDir)
	wantAppends := one.SnapshotMetrics().WALBatchAppends
	one.Kill()
	waitOne()

	dir := t.TempDir()
	s, err := New(fixture.Model(t, fixture.Serving), opts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	// Every other event carries its wire record; one foreign event rides
	// in the middle, withheld by the caller.
	batch := make([]Admission, 0, len(events)+1)
	for i, ev := range events {
		a := Admission{Event: ev}
		if i%2 == 0 {
			a.record = persist.EncodeEvent(persist.RecordOf(ev))
		}
		batch = append(batch, a)
		if i == len(events)/2 {
			batch = append(batch, Admission{Event: ev, Refused: true})
		}
	}
	if _, err := s.IngestBatch(batch); err != nil {
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
	if _, err := s.IngestBatch(frozen); err != nil {
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
	if _, err := s.IngestBatch(frozen[:1]); err != ErrClosed {
		t.Fatalf("batch after kill: %v, want ErrClosed", err)
	}
}

// syncLog is a faultfs.FS that records every fsync in order: a file's
// Sync under the file's name, a SyncDir under the directory's.
type syncLog struct {
	faultfs.FS
	mu    sync.Mutex
	syncs []string
}

func (l *syncLog) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := l.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncLogFile{f, l}, nil
}

func (l *syncLog) SyncDir(name string) error {
	l.note(name)
	return l.FS.SyncDir(name)
}

func (l *syncLog) note(name string) {
	l.mu.Lock()
	l.syncs = append(l.syncs, filepath.Base(name))
	l.mu.Unlock()
}

// take returns the fsyncs recorded since the last take.
func (l *syncLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.syncs
	l.syncs = nil
	return out
}

type syncLogFile struct {
	faultfs.File
	l *syncLog
}

func (f syncLogFile) Sync() error {
	f.l.note(f.Name())
	return f.File.Sync()
}

// stateFiles lists a state dir's file names.
func stateFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestGracefulCloseDropsCoveredSegment: the final snapshot covers the
// whole WAL, so Close fsyncs the snapshot's temp file and the directory
// (after the rename, and after removing the segment) and never the
// segment, and leaves the snapshot alone in the state dir. A retain floor
// below the boundary pins the segment: it is fsynced and kept.
func TestGracefulCloseDropsCoveredSegment(t *testing.T) {
	events := fixture.Corpus(t, fixture.Config(8, 4, 3, 134)).Events
	const seg = "wal-0000000000000000.log"
	for _, pinned := range []bool{false, true} {
		t.Run(map[bool]string{false: "covered", true: "retain-floor"}[pinned], func(t *testing.T) {
			dir := t.TempDir()
			fsys := &syncLog{FS: faultfs.OS()}
			s, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(dir), WithAlertBuffer(4096),
				WithSnapshotEvery(time.Hour), WithWALSyncEvery(1<<30), withFS(fsys))
			if err != nil {
				t.Fatal(err)
			}
			wait := fixture.Collect(s.Alerts())
			feedEvents(t, s, events)
			if pinned {
				s.SetWALRetainFloor(1)
			}
			fsys.take()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			wait()
			// The boundary is the WAL's end after the drain journaled its
			// alerts.
			snap := fmt.Sprintf("snap-%016d", s.pst.wal.NextSeq())
			want := []string{snap + ".tmp", filepath.Base(dir), filepath.Base(dir)}
			files := []string{snap}
			if pinned {
				want = []string{snap + ".tmp", filepath.Base(dir), seg}
				files = []string{snap, seg}
			}
			if got := fsys.take(); !reflect.DeepEqual(got, want) {
				t.Errorf("Close fsynced %v, want %v", got, want)
			}
			if got := stateFiles(t, dir); !reflect.DeepEqual(got, files) {
				t.Errorf("state dir after Close holds %v, want %v", got, files)
			}
		})
	}
}

// TestGracefulCloseSurvivesOSCrash: an OS crash before Close's directory
// sync can bring the removed segment back, unsynced — here with its
// middle zeroed. It holds only records below the snapshot's boundary, so
// boot restores what a clean reboot restores, replaying nothing and
// continuing at the boundary; and a kill-and-recover cycle after it
// replays exactly the newer events, with the clean twin's alerts and
// final state.
func TestGracefulCloseSurvivesOSCrash(t *testing.T) {
	events := fixture.Corpus(t, fixture.Config(12, 12, 8, 137)).Events
	half := len(events) / 2
	opts := func(dir string) []Option {
		return []Option{WithShards(2), WithStateDir(dir), WithAlertBuffer(8192), WithSnapshotEvery(time.Hour),
			WithQuietPeriod(time.Minute), WithAllowedLateness(10 * time.Second), WithDedupWindow(64)}
	}
	dir, clean := t.TempDir(), t.TempDir()
	s, err := New(fixture.Model(t, fixture.Serving), opts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	feedEvents(t, s, events[:half])
	seg := filepath.Join(dir, "wal-0000000000000000.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	boundary := s.pst.wal.NextSeq()
	for _, name := range stateFiles(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(clean, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data = bytes.TrimRight(data, "\x00")
	clear(data[len(data)/3 : 2*len(data)/3])
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if stats, err := persist.ReplayWAL(faultfs.OS(), dir, boundary, func(uint64, []byte) error { return nil }); err != nil || !stats.Torn || stats.Records != 0 {
		t.Fatalf("resurrected segment: %+v, %v; want a torn segment of records below the boundary", stats, err)
	}

	type life struct {
		alerts   map[string]int
		replayed int64
		final    streamerSnapshot
	}
	run := func(dir string) life {
		s2, err := New(fixture.Model(t, fixture.Serving), opts(dir)...)
		if err != nil {
			t.Fatal(err)
		}
		wait2 := fixture.Collect(s2.Alerts())
		if m := s2.SnapshotMetrics(); m.ReplayedEvents != 0 || s2.WALNextSeq() < boundary {
			t.Fatalf("%s: boot replayed %d events and continues at seq %d; want 0 and at least the boundary %d", dir, m.ReplayedEvents, s2.WALNextSeq(), boundary)
		}
		feedEvents(t, s2, events[half:])
		m2 := s2.SnapshotMetrics()
		s2.Kill()
		s3, err := New(fixture.Model(t, fixture.Serving), opts(dir)...)
		if err != nil {
			t.Fatal(err)
		}
		wait3 := fixture.Collect(s3.Alerts())
		replayed := s3.SnapshotMetrics().ReplayedEvents
		if want := m2.Ingested - m2.SafeFiltered; replayed != want {
			t.Fatalf("%s: recovery replayed %d events, want the %d the second life journaled", dir, replayed, want)
		}
		if err := s3.Close(); err != nil {
			t.Fatal(err)
		}
		l := life{alerts: fixture.Multiset(append(wait2(), wait3()...)), replayed: replayed}
		store, err := persist.NewSnapshotStore(faultfs.OS(), dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := store.LoadLatest(&l.final); !ok || err != nil {
			t.Fatalf("%s: final snapshot: ok=%v %v", dir, ok, err)
		}
		return l
	}
	got, want := run(dir), run(clean)
	if len(want.alerts) == 0 {
		t.Fatal("the second half fired no alerts; test stream too quiet")
	}
	fixture.Compare(t, "after a resurrected segment vs a clean reboot", got.alerts, want.alerts)
	if !reflect.DeepEqual(got.final, want.final) {
		t.Error("final state after a resurrected segment differs from a clean reboot's")
	}
}

// TestPackRingRoundTrip: a packed ring unpacks to the same entries in the
// same slots, whatever unit its timestamps share — whole seconds, the
// microseconds of a parsed line, odd nanoseconds, before the epoch, zero —
// and however its slots wrap.
func TestPackRingRoundTrip(t *testing.T) {
	base := time.Date(2026, 5, 3, 12, 0, 0, 0, time.UTC).UnixNano()
	for name, ring := range map[string][]dedupEntry{
		"empty":        nil,
		"one":          {{Nano: base, ID: 3}},
		"seconds":      {{Nano: base, ID: 0}, {Nano: base + 1e9, ID: 1}, {Nano: base + 1e9, ID: 2}},
		"microseconds": {{Nano: base + 7e3, ID: 5}, {Nano: base + 3e9 + 11e3, ID: 700}},
		"nanoseconds":  {{Nano: base + 1, ID: 1}, {Nano: base - 999, ID: 2}},
		"wrapped":      {{Nano: base + 5e9, ID: 9}, {Nano: base + 6e9, ID: 9}, {Nano: base + 1e9, ID: 4}, {Nano: base + 2e9, ID: 4}},
		"pre-epoch":    {{Nano: -3e9, ID: 1}, {Nano: -1e8, ID: 2}, {Nano: 0, ID: 3}, {Nano: 2e8, ID: 1}},
		"zero":         {{Nano: 0, ID: 0}},
	} {
		packed := packRing(ring)
		got := (&persistedNode{Ring: packed}).ring()
		if len(ring) == 0 {
			if packed != nil || len(got) != 0 {
				t.Errorf("%s: packed %v unpacks to %v", name, packed, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, ring) {
			t.Errorf("%s: %v packed into %d bytes unpacks to %v", name, ring, len(packed), got)
		}
	}
}
