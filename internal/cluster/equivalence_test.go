package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/logsim"
	"desh/internal/persist"
	"desh/internal/stream"
)

var (
	modelOnce  sync.Once
	modelBytes []byte
	modelErr   error
)

// freshPipeline returns an independent copy of one shared trained
// pipeline (each streamer mutates its encoder, so instances must not
// share one).
func freshPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	modelOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Epochs1 = 0
		cfg.Epochs2 = 150
		p, err := core.New(cfg)
		if err != nil {
			modelErr = err
			return
		}
		run, err := logsim.Generate(logsim.Config{
			Profile: logsim.Profiles()[2], Nodes: 30, Hours: 48, Failures: 30, Seed: 32,
		})
		if err != nil {
			modelErr = err
			return
		}
		events := make([]logparse.Event, len(run.Events))
		for i, ge := range run.Events {
			ev, err := logparse.ParseLine(ge.Line())
			if err != nil {
				modelErr = err
				return
			}
			events[i] = ev
		}
		if _, err := p.Train(events); err != nil {
			modelErr = err
			return
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			modelErr = err
			return
		}
		modelBytes = buf.Bytes()
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	p, err := core.Load(bytes.NewReader(modelBytes))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// equivLines generates the serving stream and verifies the equivalence
// precondition: no node has two events at the same microsecond, so
// per-node timestamp order is a total order and reorder tie-breaks
// cannot diverge between runs.
func equivLines(t *testing.T, seed int64) (lines []string, maxPerNode int) {
	t.Helper()
	return equivCorpus(t, logsim.Config{Profile: logsim.Profiles()[2], Nodes: 18, Hours: 12, Failures: 10, Seed: seed})
}

// equivCorpus is equivLines at a size of the caller's choosing.
func equivCorpus(t *testing.T, cfg logsim.Config) (lines []string, maxPerNode int) {
	t.Helper()
	seed := cfg.Seed
	run, err := logsim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	perNode := make(map[string]int)
	lines = make([]string, len(run.Events))
	for i, ge := range run.Events {
		lines[i] = ge.Line()
		k := ge.Node + "|" + fmt.Sprint(ge.Time.UnixNano())
		seen[k]++
		if seen[k] > 1 {
			t.Fatalf("seed %d: node %s has two events at %v; pick another seed", seed, ge.Node, ge.Time)
		}
		perNode[ge.Node]++
		if perNode[ge.Node] > maxPerNode {
			maxPerNode = perNode[ge.Node]
		}
	}
	return lines, maxPerNode
}

// equivOpts configures a streamer for order-independent equivalence:
// the allowed-lateness window outlasts the whole run and the reorder
// depth holds every event of a node, so each node's events reach the
// chain tracker in timestamp order at drain time no matter how
// failover shuffled their arrival.
func equivOpts(depth int, dir string) []stream.Option {
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

func collectAlerts(s *stream.Streamer) func() []stream.Alert {
	done := make(chan []stream.Alert, 1)
	go func() {
		var alerts []stream.Alert
		for a := range s.Alerts() {
			alerts = append(alerts, a)
		}
		done <- alerts
	}()
	return func() []stream.Alert { return <-done }
}

func alertMultiset(alerts []stream.Alert) map[string]int {
	m := make(map[string]int, len(alerts))
	for _, a := range alerts {
		m[persist.AlertRecord{
			Node:        a.Node,
			FlaggedNano: a.FlaggedAt.UnixNano(),
			LeadBits:    math.Float64bits(a.LeadSeconds),
			MSEBits:     math.Float64bits(a.MSE),
			Provisional: a.Provisional,
		}.LedgerKey()]++
	}
	return m
}

func baselineMultiset(t *testing.T, lines []string, depth int) map[string]int {
	t.Helper()
	s, err := stream.New(freshPipeline(t), equivOpts(depth, "")...)
	if err != nil {
		t.Fatal(err)
	}
	wait := collectAlerts(s)
	for _, line := range lines {
		if err := s.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := alertMultiset(wait())
	if len(want) < 3 {
		t.Fatalf("baseline fired only %d distinct alerts; run too quiet to pin equivalence", len(want))
	}
	return want
}

func compareMultisets(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("alert %s: %s delivered %d, baseline %d", k, label, got[k], n)
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Errorf("spurious alert %s: %s delivered %d, baseline %d", k, label, n, want[k])
		}
	}
}

// testInstance bundles one in-process cluster member.
type testInstance struct {
	inst *Instance
	srv  *httptest.Server
	wait func() []stream.Alert
	down atomic.Bool // simulates a partition: every endpoint 503s
}

func newTestInstance(t *testing.T, name, dir string, depth int) *testInstance {
	t.Helper()
	s, err := stream.New(freshPipeline(t), equivOpts(depth, dir)...)
	if err != nil {
		t.Fatal(err)
	}
	ti := &testInstance{wait: collectAlerts(s)}
	ti.inst = NewInstance(name, s, nil)
	inner := ti.inst.Handler()
	ti.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ti.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	return ti
}

// TestKillOneInstanceEquivalence is the acceptance test of the PR: a
// 3-instance cluster where one instance is SIGKILLed mid-run (its
// process state vanishes; only its state directory survives) must
// deliver exactly the alert multiset of one uninterrupted
// single-process run. The router ejects the dead peer, survivors
// rebuild its ranges from the directory (snapshot + WAL tail through
// the recovery path), spilled lines redeliver, and the shipped dedup
// rings absorb the redelivery duplicates.
func TestKillOneInstanceEquivalence(t *testing.T) {
	lines, maxPerNode := equivLines(t, 211)
	depth := maxPerNode + 16
	want := baselineMultiset(t, lines, depth)

	shared := t.TempDir()
	names := []string{"i0", "i1", "i2"}
	instances := make([]*testInstance, len(names))
	peers := make([]Peer, len(names))
	for i, name := range names {
		dir := shared + "/" + name
		instances[i] = newTestInstance(t, name, dir, depth)
		peers[i] = Peer{Name: name, URL: instances[i].srv.URL, Dir: dir}
	}
	r, err := NewRouter(fastRouterConfig(peers, shared+"/spill"))
	if err != nil {
		t.Fatal(err)
	}

	cut := 2 * len(lines) / 5
	for _, line := range lines[:cut] {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	// SIGKILL instance 1: the streamer dies where it stands (no drain,
	// no final snapshot) and its HTTP listener vanishes.
	victim := instances[1]
	victim.inst.Streamer().Kill()
	victim.srv.Close()
	for _, line := range lines[cut:] {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "victim ejection", func() bool {
		return r.Metrics().PeerUnhealthy == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	m := r.Metrics()
	if m.TakeoverErrors != 0 {
		t.Fatalf("takeover errors: %d", m.TakeoverErrors)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	var got []stream.Alert
	got = append(got, victim.wait()...) // channel closed by Kill
	imports := int64(0)
	for i, ti := range instances {
		if i == 1 {
			continue
		}
		if err := ti.inst.Streamer().Close(); err != nil {
			t.Fatal(err)
		}
		got = append(got, ti.wait()...)
		imports += ti.inst.Streamer().SnapshotMetrics().HandoffImports
		ti.srv.Close()
	}
	if imports == 0 {
		t.Fatal("no survivor imported the dead instance's ranges")
	}
	compareMultisets(t, "kill-one-instance cluster", alertMultiset(got), want)
}

// TestEjectReadmitHandoffEquivalence: a temporary outage — the
// instance stays alive but fails health checks — must also be
// lossless. The router ejects it (survivor rebuilds its ranges from
// the shared state directory), serves through the outage, then on
// probation readmission migrates the ranges back via a live journaled
// handoff. The final alert multiset must equal the undisturbed
// baseline.
func TestEjectReadmitHandoffEquivalence(t *testing.T) {
	lines, maxPerNode := equivLines(t, 212)
	depth := maxPerNode + 16
	want := baselineMultiset(t, lines, depth)

	shared := t.TempDir()
	names := []string{"a", "b"}
	instances := make([]*testInstance, len(names))
	peers := make([]Peer, len(names))
	for i, name := range names {
		dir := shared + "/" + name
		instances[i] = newTestInstance(t, name, dir, depth)
		peers[i] = Peer{Name: name, URL: instances[i].srv.URL, Dir: dir}
	}
	r, err := NewRouter(fastRouterConfig(peers, shared+"/spill"))
	if err != nil {
		t.Fatal(err)
	}

	third := len(lines) / 3
	for _, line := range lines[:third] {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	// Drain every in-flight line before the outage: a batch that landed
	// on "a" after the survivor's takeover read of its directory would
	// exist only in "a"'s stale state, which the readmission handoff
	// later replaces.
	flushCtx, flushCancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := r.Flush(flushCtx); err != nil {
		flushCancel()
		t.Fatalf("pre-outage flush: %v", err)
	}
	flushCancel()
	// Outage: instance "a" partitions away. Feeding pauses until the
	// ejection (and its dir takeover) completes so the takeover reads a
	// quiescent WAL.
	instances[0].down.Store(true)
	waitFor(t, 15*time.Second, "ejection", func() bool {
		return r.Metrics().PeerUnhealthy == 1
	})
	if m := r.Metrics(); m.TakeoverErrors != 0 {
		t.Fatalf("takeover errors: %d", m.TakeoverErrors)
	}
	for _, line := range lines[third : 2*third] {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	// Recovery: probation, readmission, live handoff back.
	instances[0].down.Store(false)
	waitFor(t, 15*time.Second, "readmission", func() bool {
		return r.Metrics().Readmits == 1
	})
	if m := r.Metrics(); m.HandoffErrors != 0 {
		t.Fatalf("handoff errors: %d", m.HandoffErrors)
	}
	for _, line := range lines[2*third:] {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	var got []stream.Alert
	handoffs := int64(0)
	for _, ti := range instances {
		snap := ti.inst.Streamer().SnapshotMetrics()
		handoffs += snap.HandoffsCompleted
		if err := ti.inst.Streamer().Close(); err != nil {
			t.Fatal(err)
		}
		got = append(got, ti.wait()...)
		ti.srv.Close()
	}
	if handoffs == 0 {
		t.Fatal("readmission completed no live handoff")
	}
	compareMultisets(t, "eject-readmit cluster", alertMultiset(got), want)
}
