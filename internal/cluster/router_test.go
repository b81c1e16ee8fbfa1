package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desh/internal/logparse"
	"desh/internal/logsim"
	"desh/internal/persist"
)

// fakePeer is a scripted cluster instance: it decodes the record
// batches a router sends, records each delivered event as the line it
// was parsed from, and can play dead (everything 503s) or bounce
// events (rejected indices) on command.
type fakePeer struct {
	down      atomic.Bool
	rejectAll atomic.Bool
	mu        sync.Mutex
	lines     map[string]int
	srv       *httptest.Server
}

func newFakePeer() *fakePeer {
	p := &fakePeer{lines: make(map[string]int)}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != recordContentType {
			http.Error(w, "router sent "+ct, http.StatusUnsupportedMediaType)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var batch []string
		if err := persist.DecodeEventBatch(body, func(ev logparse.Event, _ []byte) {
			batch = append(batch, ev.Time.Format(logparse.TimeLayout)+" "+ev.Node+" "+ev.Message)
		}); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply := ingestReply{}
		if p.rejectAll.Load() {
			for i := range batch {
				reply.Rejected = append(reply.Rejected, i)
			}
		} else {
			p.mu.Lock()
			for _, line := range batch {
				p.lines[line]++
			}
			p.mu.Unlock()
			reply.Accepted = len(batch)
		}
		writeJSON(w, reply)
	})
	mux.HandleFunc("/cluster/ownership", func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, map[string]any{"ok": true})
	})
	p.srv = httptest.NewServer(mux)
	return p
}

func (p *fakePeer) snapshot() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.lines))
	for k, v := range p.lines {
		out[k] = v
	}
	return out
}

// testLines generates parseable log lines cheaply (no training).
func testLines(t testing.TB, nodes int, seed int64) []string {
	t.Helper()
	run, err := logsim.Generate(logsim.Config{
		Profile: logsim.Profiles()[2], Nodes: nodes, Hours: 1, Failures: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(run.Events))
	for i, ge := range run.Events {
		lines[i] = ge.Line()
	}
	return lines
}

func fastRouterConfig(peers []Peer, spill string) RouterConfig {
	return RouterConfig{
		Peers:            peers,
		SpillDir:         spill,
		HealthInterval:   10 * time.Millisecond,
		HealthTimeout:    200 * time.Millisecond,
		FailThreshold:    2,
		ReadmitThreshold: 2,
		DrainInterval:    10 * time.Millisecond,
		BatchMax:         64,
	}
}

// TestRouterSpillAndDrainAcrossOutage: every line sent while the only
// peer is dead must spill to the WAL and deliver — exactly once per
// send — after the peer recovers and is readmitted.
func TestRouterSpillAndDrainAcrossOutage(t *testing.T) {
	peer := newFakePeer()
	defer peer.srv.Close()
	r, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	lines := testLines(t, 6, 201)
	third := len(lines) / 3
	for _, line := range lines[:third] {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}

	// Outage: health probes fail, the peer is ejected, everything spills.
	peer.down.Store(true)
	waitFor(t, 5*time.Second, "peer ejection", func() bool {
		return r.Metrics().PeerUnhealthy == 1
	})
	for _, line := range lines[third : 2*third] {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if r.Metrics().Spilled == 0 {
		t.Fatal("no lines spilled during the outage")
	}

	// Recovery: probation readmission, then the drain delivers the spill.
	peer.down.Store(false)
	waitFor(t, 5*time.Second, "peer readmission", func() bool {
		return r.Metrics().Readmits == 1
	})
	for _, line := range lines[2*third:] {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}

	got := peer.snapshot()
	want := make(map[string]int, len(lines))
	for _, line := range lines {
		want[line]++
	}
	for line, n := range want {
		if got[line] != n {
			t.Fatalf("line delivered %d times, want %d: %q", got[line], n, line)
		}
	}
	for line, n := range got {
		if want[line] != n {
			t.Fatalf("unexpected delivery count %d for %q", n, line)
		}
	}
	m := r.Metrics()
	if m.Rebalances != 2 {
		t.Fatalf("rebalances %d, want 2 (one ejection + one readmission)", m.Rebalances)
	}
}

// TestRouterRespillsRejectedLines: lines an instance bounces must
// respool and redeliver once it accepts them — the not-my-range /
// frozen-mid-handoff path.
func TestRouterRespillsRejectedLines(t *testing.T) {
	peer := newFakePeer()
	defer peer.srv.Close()
	peer.rejectAll.Store(true)
	r, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	lines := testLines(t, 4, 202)
	for _, line := range lines {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "rejected lines counted", func() bool {
		return r.Metrics().RejectedLines > 0
	})
	peer.rejectAll.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got := peer.snapshot()
	for _, line := range lines {
		if got[line] != 1 {
			t.Fatalf("line delivered %d times, want 1: %q", got[line], line)
		}
	}
}

// TestRouterSpillSurvivesRestart: spill records left behind by one
// router incarnation must redeliver from the next one.
func TestRouterSpillSurvivesRestart(t *testing.T) {
	peer := newFakePeer()
	defer peer.srv.Close()
	peer.down.Store(true)
	spill := t.TempDir()
	lines := testLines(t, 4, 203)

	r1, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, spill))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		if err := r1.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "lines spilled", func() bool {
		return r1.Metrics().Spilled >= int64(len(lines))
	})
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	peer.down.Store(false)
	r2, err := NewRouter(fastRouterConfig([]Peer{{Name: "p0", URL: peer.srv.URL}}, spill))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r2.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got := peer.snapshot()
	for _, line := range lines {
		if got[line] != 1 {
			t.Fatalf("line delivered %d times after restart, want 1: %q", got[line], line)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFlushIsExact: Flush returns on the first observation of a router
// holding nothing, and that observation is exact — after every one of
// many small ingest-then-Flush rounds the peer has every line offered so
// far (a batch being built between the queue and the POST is still
// outstanding), and an idle router's Flush does not sleep. Two hundred
// rounds took over 8 s when Flush needed two quiet polls 20 ms apart.
func TestFlushIsExact(t *testing.T) {
	a, b := newFakePeer(), newFakePeer()
	defer a.srv.Close()
	defer b.srv.Close()
	r, err := NewRouter(fastRouterConfig([]Peer{{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL}}, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	lines := testLines(t, 8, 204)
	const rounds = 200
	start := time.Now()
	for i, offered := 0, 0; i < rounds; i++ {
		for k := 0; k < 3; k++ {
			if err := r.IngestLine(lines[offered%len(lines)]); err != nil {
				t.Fatal(err)
			}
			offered++
		}
		if err := r.Flush(ctx); err != nil {
			t.Fatalf("round %d: flush: %v", i, err)
		}
		if m := r.Metrics(); m.Forwarded != int64(offered) || m.Spilled != 0 {
			t.Fatalf("round %d: Flush returned with %d of %d lines forwarded (%d spilled)", i, m.Forwarded, offered, m.Spilled)
		}
	}
	if took := time.Since(start); took > 4*time.Second {
		t.Fatalf("%d ingest+Flush rounds took %v: Flush is sleeping its way to quiescence", rounds, took)
	}
}
