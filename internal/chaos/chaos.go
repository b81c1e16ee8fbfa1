// Package chaos is the fleet layer of the equivalence harness (DESIGN
// §10): in-process cluster members and routers under harness control. It
// composes the kill seams the system already exposes — streamer SIGKILL
// (process death without cleanup), router SIGKILL (a dead coordinator
// mid-protocol), HTTP 503 outages (a live-but-partitioned instance), and
// a per-router fault transport (a router partitioned from a subset of its
// peers) — into reproducible disturbance schedules. The invariant every
// fleet scenario asserts is the repo's north star: the cluster's alert
// multiset under disturbance equals the undisturbed single-process
// baseline (fixture.Multiset, the one alert identity), and the members'
// durable ownership partitions the hash circle.
package chaos

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desh/internal/chaos/fixture"
	"desh/internal/cluster"
	"desh/internal/persist"
	"desh/internal/stream"
)

// FaultTransport is an http.RoundTripper that can cut one router off
// from a chosen subset of hosts — an asymmetric network partition.
// Blocked requests fail immediately (connection refused semantics),
// so health probes and lease polls see the partition at once.
type FaultTransport struct {
	base    http.RoundTripper
	mu      sync.Mutex
	blocked map[string]bool
}

// NewFaultTransport wraps base (nil means http.DefaultTransport).
func NewFaultTransport(base http.RoundTripper) *FaultTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &FaultTransport{base: base, blocked: make(map[string]bool)}
}

func hostOf(rawURL string) string {
	if u, err := url.Parse(rawURL); err == nil && u.Host != "" {
		return u.Host
	}
	return rawURL
}

// Block cuts the partition to the given base URL (or host:port).
func (ft *FaultTransport) Block(rawURL string) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.blocked[hostOf(rawURL)] = true
}

// Unblock heals the partition to the given base URL (or host:port).
func (ft *FaultTransport) Unblock(rawURL string) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	delete(ft.blocked, hostOf(rawURL))
}

// RoundTrip implements http.RoundTripper.
func (ft *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	cut := ft.blocked[req.URL.Host]
	ft.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("chaos: partitioned from %s", req.URL.Host)
	}
	return ft.base.RoundTrip(req)
}

// Member is one in-process cluster instance under harness control:
// a streamer with durable state, its HTTP listener, and the seams to
// partition (503 every endpoint) or SIGKILL it.
type Member struct {
	Name string
	Dir  string
	Inst *cluster.Instance
	Srv  *httptest.Server

	down   atomic.Bool
	alerts func() []stream.Alert
	killed atomic.Bool
}

// SetDown toggles the 503-outage seam: the instance stays alive (its
// state advances on nothing) but every endpoint refuses, so routers
// see a dead peer.
func (m *Member) SetDown(v bool) { m.down.Store(v) }

// Kill SIGKILLs the member: the streamer dies where it stands (no
// drain, no final snapshot — only its WAL and snapshots survive) and
// the listener vanishes.
func (m *Member) Kill() {
	if m.killed.Swap(true) {
		return
	}
	m.Inst.Streamer().Kill()
	m.Srv.Close()
}

// Close shuts the member down gracefully and returns every alert it
// fired. Safe after Kill (the alert channel is already closed).
func (m *Member) Close() ([]stream.Alert, error) {
	if !m.killed.Swap(true) {
		if err := m.Inst.Streamer().Close(); err != nil {
			return nil, err
		}
		m.Srv.Close()
	}
	return m.alerts(), nil
}

// Fleet is a set of members sharing one state-directory root, plus
// the routers fronting them. NewRouter gives every router its own
// FaultTransport so partitions are per-router, matching real networks.
type Fleet struct {
	Dir     string
	Depth   int // every member's reorder depth
	Members []*Member

	mu     sync.Mutex
	faults map[string]*FaultTransport
}

// ServingOptions is the stream configuration every fleet scenario uses:
// order-independent equivalence (lateness window outlasting the run,
// reorder depth holding any one node's events) plus durable state.
func ServingOptions(depth int, dir string) []stream.Option {
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

// NewFleet builds the named members under a fresh test directory, each
// serving its own copy of fixture.Serving from its own state directory
// and HTTP listener.
func NewFleet(t testing.TB, depth int, names ...string) *Fleet {
	t.Helper()
	f := &Fleet{Dir: t.TempDir(), Depth: depth, faults: make(map[string]*FaultTransport)}
	for _, name := range names {
		f.AddMember(t, name)
	}
	return f
}

// AddMember builds one more member. One added after a router booted is
// in no router's peer set: the joining side of a planned "add" rebalance.
func (f *Fleet) AddMember(t testing.TB, name string) *Member {
	t.Helper()
	dir := filepath.Join(f.Dir, name)
	s, err := stream.New(fixture.Model(t, fixture.Serving), ServingOptions(f.Depth, dir)...)
	if err != nil {
		t.Fatal(err)
	}
	m := &Member{Name: name, Dir: dir, Inst: cluster.NewInstance(name, s, nil), alerts: fixture.Collect(s.Alerts())}
	inner := m.Inst.Handler()
	m.Srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if m.down.Load() {
			http.Error(w, "chaos: partitioned", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	f.Members = append(f.Members, m)
	return m
}

// Peers returns the current members as a router peer list.
func (f *Fleet) Peers() []cluster.Peer {
	peers := make([]cluster.Peer, len(f.Members))
	for i, m := range f.Members {
		peers[i] = cluster.Peer{Name: m.Name, URL: m.Srv.URL, Dir: m.Dir}
	}
	return peers
}

// Member returns the named member (nil if unknown).
func (f *Fleet) Member(name string) *Member {
	for _, m := range f.Members {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// SoakRouter is the soak routers' configuration: election on under name
// with the given lease TTL and chaos hook, and probe and drain intervals
// aggressive enough to keep soak runtimes short.
func SoakRouter(name string, ttl time.Duration, hook func(step string)) cluster.RouterConfig {
	return cluster.RouterConfig{
		HealthInterval:    15 * time.Millisecond,
		HealthTimeout:     250 * time.Millisecond,
		FailThreshold:     3,
		ReadmitThreshold:  3,
		DrainInterval:     15 * time.Millisecond,
		BatchMax:          64,
		Name:              name,
		LeaseTTL:          ttl,
		HookRebalanceStep: hook,
	}
}

// NewRouter starts a router on cfg against the fleet's current members,
// with a spill directory and a FaultTransport of its own.
func (f *Fleet) NewRouter(t testing.TB, cfg cluster.RouterConfig) *cluster.Router {
	t.Helper()
	ft := NewFaultTransport(nil)
	cfg.Peers, cfg.SpillDir, cfg.Transport = f.Peers(), filepath.Join(f.Dir, "spill-"+cfg.Name), ft
	r, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	f.faults[cfg.Name] = ft
	f.mu.Unlock()
	return r
}

// Fault returns the named router's fault transport.
func (f *Fleet) Fault(router string) *FaultTransport {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults[router]
}

// Feed sends lines through r in order.
func Feed(t testing.TB, r *cluster.Router, lines []string) {
	t.Helper()
	for _, line := range lines {
		if err := r.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
}

// Drain flushes r (every event delivered, spilled ones redelivered) and
// closes it.
func Drain(t testing.TB, r *cluster.Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// Alerts closes every member gracefully (a killed one is already down)
// and returns every alert the fleet fired.
func (f *Fleet) Alerts(t testing.TB) []stream.Alert {
	t.Helper()
	var all []stream.Alert
	for _, m := range f.Members {
		alerts, err := m.Close()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, alerts...)
	}
	return all
}

// Corpus is a fleet scenario's serving stream for seed (18 nodes over
// 12 hours, no node with two events at one instant), the reorder depth
// that holds any one node whole, and the stream's baseline multiset.
func Corpus(t testing.TB, seed int64) (lines []string, depth int, want map[string]int) {
	t.Helper()
	log := fixture.Corpus(t, fixture.Config(18, 12, 10, seed)).Unique(t)
	depth = log.MaxPerNode + 16
	return log.Lines, depth, Baseline(t, log.Lines, depth)
}

// Baseline runs the undisturbed single-process reference — one
// streamer, every line in order — and returns its alert multiset. A run
// too quiet to pin equivalence fails the test.
func Baseline(t testing.TB, lines []string, depth int) map[string]int {
	t.Helper()
	s, err := stream.New(fixture.Model(t, fixture.Serving), ServingOptions(depth, "")...)
	if err != nil {
		t.Fatal(err)
	}
	wait := fixture.Collect(s.Alerts())
	for _, line := range lines {
		if err := s.IngestLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := fixture.Multiset(wait())
	if len(want) < 3 {
		t.Fatalf("baseline fired only %d distinct alerts; run too quiet to pin equivalence", len(want))
	}
	return want
}

// OwnershipPartition verifies that the live members' durable
// ownership — the journaled control state — at the newest epoch is a
// partition of the hash circle: sampled points each owned by exactly one
// member — never two owners, never zero. Returns the newest epoch
// checked.
func OwnershipPartition(members []*Member) (uint64, error) {
	newest := uint64(0)
	owned := make([]stream.Control, len(members))
	for i, m := range members {
		owned[i] = m.Inst.Streamer().Control()
		if e, _ := owned[i].Owned(); e > newest {
			newest = e
		}
	}
	for probe := 0; probe < 4096; probe++ {
		h := uint32(probe) * 1048573
		owners := 0
		for _, c := range owned {
			e, ranges := c.Owned()
			if e == newest && persist.RangesContain(ranges, h) {
				owners++
			}
		}
		if owners != 1 {
			return newest, fmt.Errorf("chaos: hash %d has %d owners at epoch %d (want exactly 1)", h, owners, newest)
		}
	}
	return newest, nil
}

// WaitPartition polls OwnershipPartition until the members' durable
// ownership settles into a clean partition: a view installs on the
// router before the per-member ownership pushes land, so a one-shot
// check right after a view change can observe the gap.
func WaitPartition(t testing.TB, label string, members []*Member) {
	t.Helper()
	var last error
	defer func() {
		if last != nil {
			t.Logf("%s: %v", label, last)
		}
	}()
	fixture.WaitFor(t, 15*time.Second, label+": ownership to partition the hash circle", func() bool {
		_, last = OwnershipPartition(members)
		return last == nil
	})
}

// WaitConverged blocks until the coordinator's first convergence pass
// has landed ownership on every member: with election enabled no
// ownership is pushed at router boot, so feeding before this point would
// hit standalone (accept-everything) instances.
func (f *Fleet) WaitConverged(t testing.TB) {
	t.Helper()
	fixture.WaitFor(t, 15*time.Second, "fleet ownership convergence", func() bool {
		for _, m := range f.Members {
			if e, _ := m.Inst.Ownership(); e == 0 {
				return false
			}
		}
		return true
	})
}
