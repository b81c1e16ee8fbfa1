package stream

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
)

// wantWatermarks is each shard's watermark as its nodes' state says it
// is: the max event time they have seen, less the allowed lateness, and
// 0 for a shard that has seen none. A capture barrier reads the nodes,
// so call it only after the gauge under test has been read.
func wantWatermarks(s *Streamer, lateness time.Duration) []int64 {
	out := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		var seen int64
		for _, pn := range answered(sh) {
			seen = max(seen, cursorNano(pn.ETMaxSeen))
		}
		if seen > 0 {
			out[i] = seen - int64(lateness)
		}
	}
	return out
}

// TestWatermarksMatchNodeState: the per-shard watermarks in
// SnapshotMetrics read what the shards' node state says — after a
// disordered flood once every event is processed, after a crash and the
// WAL-tail replay of the same flood as soon as New returns, and after an
// import as soon as ImportState returns — and the three agree.
func TestWatermarksMatchNodeState(t *testing.T) {
	const lateness = 10 * time.Second
	events := fixture.Corpus(t, fixture.Config(24, 6, 6, 48)).Events
	events = shuffleWithinLateness(events, lateness, rand.New(rand.NewSource(48)))
	p := fixture.Model(t, fixture.Serving)
	dir := t.TempDir()
	opts := handoffOpts(WithStateDir(dir))

	s, err := New(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fixture.Collect(s.Alerts())
	feedEvents(t, s, events)
	settle(s)
	flood := s.SnapshotMetrics().Watermarks
	if want := wantWatermarks(s, lateness); !slices.Equal(flood, want) {
		t.Fatalf("after the flood: watermarks %v, want %v", flood, want)
	}
	if slices.Max(flood) == 0 {
		t.Fatal("the flood moved no watermark")
	}
	s.crash()

	s2, err := New(fixture.Model(t, fixture.Serving), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fixture.Collect(s2.Alerts())
	replayed := s2.SnapshotMetrics().Watermarks
	if m := s2.SnapshotMetrics(); m.ReplayedEvents == 0 {
		t.Fatal("the restart replayed no WAL tail")
	}
	if want := wantWatermarks(s2, lateness); !slices.Equal(replayed, want) || !slices.Equal(replayed, flood) {
		t.Fatalf("after the replay: watermarks %v, want %v (the flood's %v)", replayed, want, flood)
	}

	st, err := s2.BeginHandoff(2, "http://target", fullCircle)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := New(fixture.Model(t, fixture.Serving), handoffOpts(WithStateDir(t.TempDir()))...)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	fixture.Collect(s3.Alerts())
	if err := s3.ImportState(2, "source", fullCircle, st); err != nil {
		t.Fatal(err)
	}
	imported := s3.SnapshotMetrics().Watermarks
	if want := wantWatermarks(s3, lateness); !slices.Equal(imported, want) || !slices.Equal(imported, flood) {
		t.Fatalf("after the import: watermarks %v, want %v (the flood's %v)", imported, want, flood)
	}
}
