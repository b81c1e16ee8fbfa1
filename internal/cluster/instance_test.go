package cluster

import (
	"net/http/httptest"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/stream"
)

// The in-package tests that need this package's unexported seams build
// their instances here. The equivalence suites run on chaos.Fleet, which
// these tests cannot import (chaos imports cluster); servingOpts and
// baseline are chaos.ServingOptions and chaos.Baseline for that reason.

func servingOpts(depth int, dir string) []stream.Option {
	opts := []stream.Option{
		stream.WithShards(2),
		stream.WithQuietPeriod(time.Minute),
		stream.WithEarlyDetect(true),
		stream.WithAlertBuffer(16384),
		stream.WithSnapshotEvery(time.Hour),
		stream.WithAllowedLateness(1000 * time.Hour),
		stream.WithReorderDepth(depth),
		stream.WithDedupWindow(512),
	}
	if dir != "" {
		opts = append(opts, stream.WithStateDir(dir))
	}
	return opts
}

// testInstance bundles one in-process cluster member.
type testInstance struct {
	inst *Instance
	srv  *httptest.Server
	wait func() []stream.Alert
	dir  string // its state dir ("" in memory)
}

func newTestInstance(t testing.TB, name, dir string, depth int) *testInstance {
	t.Helper()
	s, err := stream.New(fixture.Model(t, fixture.Serving), servingOpts(depth, dir)...)
	if err != nil {
		t.Fatal(err)
	}
	ti := &testInstance{inst: NewInstance(name, s, nil), wait: fixture.Collect(s.Alerts()), dir: dir}
	ti.srv = httptest.NewServer(ti.inst.Handler())
	return ti
}

// baseline is the alert multiset of one undisturbed streamer fed every
// line in order.
func baseline(t *testing.T, lines []string, depth int) map[string]int {
	t.Helper()
	ti := newTestInstance(t, "baseline", "", depth)
	defer ti.srv.Close()
	s := ti.inst.Streamer()
	for _, line := range lines {
		if err := s.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := fixture.Multiset(ti.wait())
	if len(want) < 3 {
		t.Fatalf("baseline fired only %d distinct alerts; run too quiet to pin equivalence", len(want))
	}
	return want
}
