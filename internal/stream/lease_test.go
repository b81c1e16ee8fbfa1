package stream

import (
	"reflect"
	"testing"

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
	if _, ok := s.RecoveredLease(); ok {
		t.Fatal("cold start must not report a recovered lease")
	}
	if _, ok := s.RecoveredView(); ok {
		t.Fatal("cold start must not report a recovered view")
	}
	if err := s.JournalLease(persist.LeaseRecord{Holder: "r-old", Gen: 1, ExpireNano: 100}); err != nil {
		t.Fatal(err)
	}
	lease := persist.LeaseRecord{Holder: "r-new", Gen: 2, ExpireNano: 200}
	if err := s.JournalLease(lease); err != nil {
		t.Fatal(err)
	}
	if err := s.JournalView(persist.ViewRecord{Epoch: 1, Members: []persist.ViewMember{{Name: "a", State: persist.StateIn}}}); err != nil {
		t.Fatal(err)
	}
	view := persist.ViewRecord{Epoch: 2, Members: []persist.ViewMember{
		{Name: "a", URL: "http://a", Dir: "/a", State: persist.StateIn},
		{Name: "b", URL: "http://b", Dir: "/b", State: persist.StateDraining},
	}}
	if err := s.JournalView(view); err != nil {
		t.Fatal(err)
	}
	s.crash()
	wait()
	s2, err := New(fixture.Model(t, fixture.Serving), WithShards(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	wait2 := fixture.Collect(s2.Alerts())
	got, ok := s2.RecoveredLease()
	if !ok || got != lease {
		t.Fatalf("recovered lease %+v (ok=%v), want %+v", got, ok, lease)
	}
	gv, ok := s2.RecoveredView()
	if !ok || !reflect.DeepEqual(gv, view) {
		t.Fatalf("recovered view %+v (ok=%v), want %+v", gv, ok, view)
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
	if b.HasImport(7, "a") {
		t.Fatal("HasImport(7, a) true before the import committed")
	}
	if err := b.ImportState(7, "a", fullCircle, st); err != nil {
		t.Fatal(err)
	}
	if !b.HasImport(7, "a") || b.HasImport(8, "a") || b.HasImport(7, "other") {
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
	if !b2.HasImport(7, "a") {
		t.Fatal("HasImport(7, a) lost across a crash — intent resolution would wrongly abort")
	}
	if b2.HasImport(7, "other") {
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
