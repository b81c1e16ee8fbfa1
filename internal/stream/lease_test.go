package stream

import (
	"os"
	"reflect"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/persist"
)

// TestLeaseAndViewJournalRecovery: the lease and cluster-view records
// survive a crash, and the newest of each wins.
func TestLeaseAndViewJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	if c := s.Control(); c.Lease != nil {
		t.Fatal("cold start must not report a recovered lease")
	}
	if c := s.Control(); c.View != nil {
		t.Fatal("cold start must not report a recovered view")
	}
	journal(t, s, persist.EncodeLease(persist.LeaseRecord{Holder: "r-old", Gen: 1, ExpireNano: 100}))
	lease := persist.LeaseRecord{Holder: "r-new", Gen: 2, ExpireNano: 200}
	journal(t, s, persist.EncodeLease(lease))
	journal(t, s, persist.EncodeView(persist.ViewRecord{Epoch: 1, Members: []persist.ViewMember{{Name: "a", State: persist.StateIn}}}))
	view := persist.ViewRecord{Epoch: 2, Members: []persist.ViewMember{
		{Name: "a", URL: "http://a", Dir: "/a", State: persist.StateIn},
		{Name: "b", URL: "http://b", Dir: "/b", State: persist.StateDraining},
	}}
	journal(t, s, persist.EncodeView(view))
	s.crash()
	wait()
	s2, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	wait2 := fixture.Collect(s2.Alerts())
	c := s2.Control()
	if c.Lease == nil || *c.Lease != lease {
		t.Fatalf("recovered lease %+v, want %+v", c.Lease, lease)
	}
	if c.View == nil || !reflect.DeepEqual(*c.View, view) {
		t.Fatalf("recovered view %+v, want %+v", c.View, view)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	wait2()
}

// TestHasImportSurvivesCrash: the imported-epoch set answers the
// successor coordinator's resolution question across a restart.
func TestHasImportSurvivesCrash(t *testing.T) {
	lines := fixture.Corpus(t, fixture.Config(8, 8, 6, 177)).Lines
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := New(fixture.Model(t, fixture.Serving), handoffOpts(WithStateDir(dirA))...)
	if err != nil {
		t.Fatal(err)
	}
	waitA := fixture.Collect(a.Alerts())
	b, err := New(fixture.Model(t, fixture.Serving), handoffOpts(WithStateDir(dirB))...)
	if err != nil {
		t.Fatal(err)
	}
	waitB := fixture.Collect(b.Alerts())
	for _, line := range lines[:len(lines)/2] {
		if err := a.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	st, err := a.BeginHandoff(7, "b", fullCircle)
	if err != nil {
		t.Fatal(err)
	}
	if hasImport(b, 7, "a") {
		t.Fatal("HasImport(7, a) true before the import committed")
	}
	if err := b.ImportState(7, "a", fullCircle, st); err != nil {
		t.Fatal(err)
	}
	if !hasImport(b, 7, "a") || hasImport(b, 8, "a") || hasImport(b, 7, "other") {
		t.Fatal("HasImport after live import: want exactly (7, a)")
	}
	if err := a.CompleteHandoff(); err != nil {
		t.Fatal(err)
	}
	b.crash()
	waitB()
	b2, err := New(fixture.Model(t, fixture.Serving), handoffOpts(WithStateDir(dirB))...)
	if err != nil {
		t.Fatal(err)
	}
	waitB2 := fixture.Collect(b2.Alerts())
	if !hasImport(b2, 7, "a") {
		t.Fatal("HasImport(7, a) lost across a crash — intent resolution would wrongly abort")
	}
	if hasImport(b2, 7, "other") {
		t.Fatal("HasImport must stay keyed by source across recovery")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	waitA()
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	waitB2()
}

// TestControlJournalSurvivesSnapshot: boot replay skips every WAL record
// below a snapshot's boundary, control records included, so the snapshot
// carries the control plane's state — after a graceful Close (whose
// snapshot covers the whole WAL, and which deletes it) and after a crash
// that follows a periodic snapshot. Ownership, the lease's fencing
// generation, the view, the import set and a pending outbound intent all
// come back, with nothing replayed.
func TestControlJournalSurvivesSnapshot(t *testing.T) {
	epoch := persist.EpochRecord{Epoch: 4, Ranges: []persist.HashRange{{Lo: 1 << 30, Hi: 1 << 31}}}
	lease := persist.LeaseRecord{Holder: "r1", Gen: 7, ExpireNano: 700}
	view := persist.ViewRecord{Epoch: 4, Members: []persist.ViewMember{
		{Name: "a", URL: "http://a", Dir: "/a", State: persist.StateIn},
		{Name: "b", URL: "http://b", Dir: "/b", State: persist.StateDraining},
	}}
	outbound := []persist.HashRange{{Lo: 10, Hi: 20}}
	for _, graceful := range []bool{true, false} {
		t.Run(map[bool]string{true: "graceful-close", false: "crash-after-snapshot"}[graceful], func(t *testing.T) {
			dir := t.TempDir()
			boot := func() (*Streamer, func() []Alert) {
				s, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(dir), WithSnapshotEvery(time.Hour))
				if err != nil {
					t.Fatal(err)
				}
				return s, fixture.Collect(s.Alerts())
			}
			s, wait := boot()
			journal(t, s, persist.EncodeEpoch(epoch))
			journal(t, s, persist.EncodeLease(lease))
			journal(t, s, persist.EncodeView(view))
			if err := s.ImportState(3, "src", epoch.Ranges, &HandoffState{}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.BeginHandoff(5, "b", outbound); err != nil {
				t.Fatal(err)
			}
			if graceful {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := s.snapshotNow(); err != nil {
					t.Fatal(err)
				}
				s.Kill()
			}
			wait()

			s2, wait2 := boot()
			if m := s2.SnapshotMetrics(); m.ReplayedEvents != 0 {
				t.Errorf("replayed %d events; every record is below the boundary", m.ReplayedEvents)
			}
			c := s2.Control()
			if c.Epoch == nil || !reflect.DeepEqual(*c.Epoch, epoch) {
				t.Errorf("recovered ownership %+v, want %+v", c.Epoch, epoch)
			}
			if c.Lease == nil || *c.Lease != lease {
				t.Errorf("recovered lease %+v, want %+v", c.Lease, lease)
			}
			if c.View == nil || !reflect.DeepEqual(*c.View, view) {
				t.Errorf("recovered view %+v, want %+v", c.View, view)
			}
			if !hasImport(s2, 3, "src") || hasImport(s2, 3, "other") {
				t.Error("import set lost or widened: want exactly (3, src)")
			}
			if h := c.Handoff; h == nil || h.Epoch != 5 || h.Peer != "b" || !reflect.DeepEqual(h.Ranges, outbound) {
				t.Errorf("pending handoff %+v, want (5, b, %v)", h, outbound)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			wait2()
		})
	}
}

// journal commits one control record through Decide, as the cluster
// layer does.
func journal(t testing.TB, s *Streamer, rec []byte) {
	t.Helper()
	if err := s.Decide(func(Control) ([]byte, bool, error) { return rec, true, nil }); err != nil {
		t.Fatal(err)
	}
}

// hasImport is the question a successor coordinator asks an intent's
// target: did the handoff at epoch from source commit here?
func hasImport(s *Streamer, epoch uint64, source string) bool {
	return s.Control().Imports[ImportKey{epoch, source}]
}

// TestParentWrittenControlRestores: a snapshot written while the control
// state's types were unexported (controlState, importKey) decodes into
// Control field for field — gob matches fields by name.
func TestParentWrittenControlRestores(t *testing.T) {
	raw, err := os.ReadFile("testdata/control_snapshot.bin")
	if err != nil {
		t.Fatal(err)
	}
	var snap streamerSnapshot
	if err := persist.DecodeSnapshot(raw, &snap); err != nil {
		t.Fatal(err)
	}
	want := Control{
		Epoch: &persist.EpochRecord{Epoch: 4, Ranges: []persist.HashRange{{Lo: 1 << 30, Hi: 1 << 31}, {Lo: 3 << 30, Hi: 5}}},
		Lease: &persist.LeaseRecord{Holder: "r1", Gen: 7, ExpireNano: 700},
		View: &persist.ViewRecord{Epoch: 4, Members: []persist.ViewMember{
			{Name: "a", URL: "http://a", Dir: "/a", State: persist.StateIn},
			{Name: "b", URL: "http://b", Dir: "/b", State: persist.StateDraining},
		}},
		Imports: map[ImportKey]bool{{3, "src"}: true, {4, "takeover:/d"}: true},
		Handoff: &persist.HandoffRecord{Epoch: 5, Peer: "http://b", Ranges: []persist.HashRange{{Lo: 10, Hi: 20}}},
	}
	if !reflect.DeepEqual(snap.Control, want) {
		t.Fatalf("decoded control state %+v, want %+v", snap.Control, want)
	}
}
