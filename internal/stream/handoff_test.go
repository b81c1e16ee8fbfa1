package stream

import (
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
)

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
	events := fixture.Corpus(t, fixture.Config(6, 2, 2, 151)).Events
	s, err := New(fixture.Model(t, fixture.Serving), handoffOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
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
	if s.Control().Handoff == nil {
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
	in := fixture.Corpus(t, fixture.Config(16, 12, 10, 152)).Events
	sc := &scenario{
		in:    in,
		opts:  handoffOpts(),
		via:   viaLines,
		steps: []step{{until: len(in) * 3 / 5, end: handoff}, {}},
		quiet: 2,
	}
	tr := sc.run(t, "handoff run vs baseline")
	ma, mb := tr.runs[0].SnapshotMetrics(), tr.runs[1].SnapshotMetrics()
	if ma.HandoffsCompleted != 1 {
		t.Fatalf("source completed %d handoffs, want 1", ma.HandoffsCompleted)
	}
	if mb.HandoffImports != 1 || mb.HandoffNodesIn == 0 {
		t.Fatalf("target imports %d, nodes in %d", mb.HandoffImports, mb.HandoffNodesIn)
	}
}

// TestHandoffCrashMidFlightStaysFrozen: a crash between Begin and
// Complete recovers with the intent unresolved — the ranges stay
// frozen (fail-safe: zero owners rather than two) until the
// coordinator resolves the handoff, and Abort thaws them.
func TestHandoffCrashMidFlightStaysFrozen(t *testing.T) {
	events := fixture.Corpus(t, fixture.Config(6, 2, 2, 153)).Events
	dir := t.TempDir()
	s, err := New(fixture.Model(t, fixture.Serving), handoffOpts(WithStateDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	half := len(events) / 2
	feedEvents(t, s, events[:half])
	if _, err := s.BeginHandoff(5, "http://target", fullCircle); err != nil {
		t.Fatal(err)
	}
	s.crash()
	wait()

	s2, err := New(fixture.Model(t, fixture.Serving), handoffOpts(WithStateDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	wait2 := fixture.Collect(s2.Alerts())
	h := s2.Control().Handoff
	if h == nil {
		t.Fatal("recovered streamer must surface the unresolved handoff")
	}
	if h.Epoch != 5 || h.Peer != "http://target" || len(h.Ranges) != 1 {
		t.Fatalf("recovered intent: epoch %d target %q ranges %v", h.Epoch, h.Peer, h.Ranges)
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
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	r1 := []persist.HashRange{{Lo: 10, Hi: 20}}
	r2 := []persist.HashRange{{Lo: 20, Hi: 30}, {Lo: 40, Hi: 0}}
	journal(t, s, persist.EncodeEpoch(persist.EpochRecord{Epoch: 3, Ranges: r1}))
	journal(t, s, persist.EncodeEpoch(persist.EpochRecord{Epoch: 4, Ranges: r2}))
	s.crash()
	wait()
	s2, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	wait2 := fixture.Collect(s2.Alerts())
	rec := s2.Control().Epoch
	if rec == nil {
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
	in := fixture.Corpus(t, fixture.Config(16, 12, 10, 154)).Events
	sc := &scenario{
		in:      in,
		opts:    handoffOpts(),
		via:     viaLines,
		durable: true,
		// A mid-segment snapshot exercises snapshot + WAL-tail takeover,
		// not just full-WAL replay.
		steps: []step{{until: len(in) * 3 / 5, snapshot: true, end: takeover}, {}},
		quiet: 2,
	}
	if m := sc.run(t, "takeover run vs baseline").runs[1].SnapshotMetrics(); m.HandoffImports != 1 {
		t.Fatalf("target imports %d, want the dead directory's", m.HandoffImports)
	}
}

// TestTakeoverExcludesUnresolvedIntents: a takeover from a dead state
// dir ships no range an unresolved outbound intent covers, whether the
// intent is open in the WAL tail or rides in the snapshot's control
// state, and none a tail Out already handed away; a range whose intent
// was aborted ships. Node a's range is the one the intent names; node b
// is outside it and always ships.
func TestTakeoverExcludesUnresolvedIntents(t *testing.T) {
	const a, b = "c0-0c0s0n0", "c0-0c0s0n1"
	ha := persist.NodeHash(a)
	if ha == persist.NodeHash(b) || ha == ^uint32(0) {
		t.Fatal("pick nodes with distinct hashes")
	}
	intent := persist.HandoffRecord{Epoch: 3, Peer: "target", Ranges: []persist.HashRange{{Lo: ha, Hi: ha + 1}}}
	begin := persist.EncodeHandoff(persist.RecHandoffBegin, intent)
	out := persist.EncodeHandoff(persist.RecHandoffOut, intent)
	abort := persist.EncodeHandoff(persist.RecHandoffAbort, intent)
	event := func(node string) []byte {
		return persist.EncodeEvent(persist.EventRecord{TimeNano: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano(), Node: node, Message: "m", Key: "k"})
	}
	cases := []struct {
		name       string
		snapIntent bool
		tail       [][]byte
		shipsA     bool
	}{
		{"open begin in the tail", false, [][]byte{event(a), event(b), begin}, false},
		{"open begin in the snapshot", true, [][]byte{event(a), event(b)}, false},
		{"begin then out", false, [][]byte{event(a), event(b), begin, out}, false},
		{"begin then abort", false, [][]byte{event(a), event(b), begin, abort}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := persist.NewSnapshotStore(faultfs.OS(), dir)
			if err != nil {
				t.Fatal(err)
			}
			snap := streamerSnapshot{Nodes: map[string]persistedNode{a: {}, b: {}}}
			if tc.snapIntent {
				snap.Control.Handoff = &intent
			}
			if err := store.Save(0, &snap); err != nil {
				t.Fatal(err)
			}
			w, err := persist.OpenWAL(faultfs.OS(), dir, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.tail {
				if _, err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := LoadHandoffFromDir(nil, dir, fullCircle)
			if err != nil {
				t.Fatal(err)
			}
			shipped := func(node string) (inNodes bool, pending int) {
				_, inNodes = st.Nodes[node]
				for _, rec := range st.Pending {
					if rec.Node == node {
						pending++
					}
				}
				return inNodes, pending
			}
			if n, p := shipped(b); !n || p != 1 {
				t.Fatalf("b outside the intent: in nodes %v, %d pending events; want shipped with 1", n, p)
			}
			if n, p := shipped(a); n != tc.shipsA || (p == 1) != tc.shipsA || p > 1 {
				t.Fatalf("a inside the intent: in nodes %v, %d pending events; want shipped %v", n, p, tc.shipsA)
			}
		})
	}
}
