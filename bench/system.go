package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"desh/internal/cluster"
	"desh/internal/core"
	"desh/internal/stream"
)

// Serving constants. Everything is pinned here rather than left to
// GOMAXPROCS-derived defaults, so a number means the same thing on any
// host. Anything not named below is the deshd / deshrouter flag default.
const (
	// floodProcs is GOMAXPROCS for everything but a paced phase (see
	// main.go for why one); pacedProcs adds a processor for the pacer's
	// spin loop.
	floodProcs       = 1
	pacedProcs       = 2
	standaloneShards = 2
	instanceShards   = 1
	instances        = 2
	microBatch       = 32
	// alertBuffer is a deliberate departure from deshd's default (256):
	// the subscriber shares a processor with the producer and the
	// shards, and an alert dropped because the subscriber was descheduled
	// would be the benchmark failing, not the program.
	alertBuffer = 16384
	// dedupWindow is the per-node duplicate ring the routed instances
	// run with, absorbing the router's at-least-once redelivery.
	dedupWindow = 512
	// routerWindow caps the lines the flood producer keeps outstanding
	// in the router (offered − forwarded). It stays below the per-peer
	// send queue (4096), so flood never spills: a spilled line
	// redelivers behind later lines of its node, and without a lateness
	// window — which would hold every alert hostage — that reorder
	// changes the chains.
	routerWindow = 3072
	// walSyncNever puts the WAL fsync out of reach on every system with
	// a state dir (appends, their write calls and rotation stay). An
	// fsync's wall time is the disk's, not the program's, and on a
	// shared host the disk has moods: with the default cadence of 64
	// failstorm_durable's flood rate spread 9-14 % in a quiet hour and
	// 18-32 % under the harness, and the two routed instances, sharing
	// one disk as no deployment does, made the routed alert latency
	// read 0.24 to 0.57 ms at p50 on one seed and one binary. The layer
	// harness times WAL.Sync in isolation (persist.wal_sync_us_per_call).
	walSyncNever = 1 << 30
	bootTimeout  = 15 * time.Second
)

// collector drains one streamer's alert channel, stamping arrivals.
type collector struct {
	alerts []stampedAlert
	done   chan struct{}
}

func collect(s *stream.Streamer) *collector {
	c := &collector{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for a := range s.Alerts() {
			c.alerts = append(c.alerts, stampedAlert{Alert: a, arrived: time.Now()})
		}
	}()
	return c
}

// postLog is the timing http.RoundTripper handed to the router on
// traced runs: one entry per /ingest POST.
type postLog struct {
	base http.RoundTripper
	tr   *tracer

	mu    sync.Mutex
	rtts  []float64 // milliseconds
	bytes int64
}

func (p *postLog) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/ingest" {
		return p.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := p.base.RoundTrip(req)
	end := time.Now()
	p.tr.span("cluster.post", start, end)
	p.mu.Lock()
	p.rtts = append(p.rtts, float64(end.Sub(start))/float64(time.Millisecond))
	p.bytes += req.ContentLength
	p.mu.Unlock()
	return resp, err
}

// sut is one booted system under test: a standalone streamer, or a
// router in front of two instances on loopback listeners.
type sut struct {
	w   *workload
	c   *corpus
	dir string

	streamers  []*stream.Streamer
	collectors []*collector

	router    *cluster.Router
	servers   []*httptest.Server
	transport *http.Transport
	posts     *postLog
	election  time.Duration
	flushWait time.Duration // how long Router.Flush took in quiesce

	offered int64
}

func servingOptions(shards int) []stream.Option {
	return []stream.Option{
		stream.WithShards(shards),
		stream.WithQuietPeriod(0),
		stream.WithMicroBatch(microBatch),
		stream.WithPrecision(core.PrecisionF64),
		stream.WithAlertBuffer(alertBuffer),
	}
}

// newStreamer builds a streamer over a private copy of the model: a
// streamer mutates its pipeline's encoder, so no two may share one.
func newStreamer(model []byte, opts ...stream.Option) (*stream.Streamer, error) {
	p, err := core.Load(bytes.NewReader(model))
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	return stream.New(p, opts...)
}

// boot starts the workload's system with its state under dir (unused
// by the in-memory workloads). tr may be nil.
func boot(w *workload, c *corpus, model []byte, dir string, tr *tracer) (*sut, error) {
	s := &sut{w: w, c: c, dir: dir}
	start := time.Now()
	if !w.routed {
		opts := servingOptions(standaloneShards)
		if w.durable {
			// The snapshot period is pushed out so the whole episode is WAL
			// tail at the kill.
			opts = append(opts, stream.WithStateDir(filepath.Join(dir, "state")), stream.WithSnapshotEvery(time.Hour), stream.WithWALSyncEvery(walSyncNever))
		}
		st, err := newStreamer(model, opts...)
		if err != nil {
			return nil, err
		}
		s.streamers = []*stream.Streamer{st}
		s.collectors = []*collector{collect(st)}
		tr.span("stream.New", start, time.Now())
		return s, nil
	}
	peers := make([]cluster.Peer, instances)
	var insts []*cluster.Instance
	for i := range peers {
		name := fmt.Sprintf("i%d", i)
		idir := filepath.Join(dir, name)
		opts := append(servingOptions(instanceShards), stream.WithStateDir(idir), stream.WithDedupWindow(dedupWindow), stream.WithWALSyncEvery(walSyncNever))
		st, err := newStreamer(model, opts...)
		if err != nil {
			s.teardown()
			return nil, err
		}
		inst := cluster.NewInstance(name, st, nil)
		srv := httptest.NewServer(inst.Handler())
		s.streamers = append(s.streamers, st)
		s.collectors = append(s.collectors, collect(st))
		s.servers = append(s.servers, srv)
		insts = append(insts, inst)
		peers[i] = cluster.Peer{Name: name, URL: srv.URL, Dir: idir}
	}
	s.transport = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = s.transport
	if tr != nil {
		s.posts = &postLog{base: s.transport, tr: tr}
		rt = s.posts
	}
	electStart := time.Now()
	r, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:     peers,
		SpillDir:  filepath.Join(dir, "spill"),
		Name:      "r0", // a name turns the coordinator election on, as in a replicated deployment
		Transport: rt,
	})
	if err != nil {
		s.teardown()
		return nil, err
	}
	s.router = r
	// Booted means: this router holds the lease quorum and both
	// instances have journaled the ownership it pushed.
	deadline := time.Now().Add(bootTimeout)
	for {
		ready := r.IsCoordinator()
		for _, inst := range insts {
			if epoch, _ := inst.Ownership(); epoch == 0 {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			s.teardown()
			return nil, fmt.Errorf("router election did not converge in %v", bootTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	s.election = time.Since(electStart)
	tr.span("cluster.boot", start, time.Now())
	return s, nil
}

// offer hands corpus item i to the system's public ingest entry point.
func (s *sut) offer(i int) error {
	s.offered++
	switch {
	case s.w.routed:
		return s.router.IngestLine(s.c.lines[i])
	case s.w.raw:
		return s.streamers[0].IngestLine(s.c.lines[i])
	default:
		return s.streamers[0].IngestEvent(s.c.events[i])
	}
}

// offerSampled is offer with one call in 64 recorded as a span.
func (s *sut) offerSampled(i int, tr *tracer) error {
	if tr == nil || i&63 != 0 {
		return s.offer(i)
	}
	start := time.Now()
	err := s.offer(i)
	tr.span("ingest", start, time.Now())
	return err
}

// throttle is the routed flood's closed loop: it blocks while more
// than routerWindow offered lines are still unforwarded. Standalone
// systems need none — the Block queue policy is their backpressure.
func (s *sut) throttle() error {
	if s.router == nil {
		return nil
	}
	var deadline time.Time
	for s.offered-s.router.Metrics().Forwarded > routerWindow {
		if deadline.IsZero() {
			deadline = time.Now().Add(30 * time.Second)
		} else if time.Now().After(deadline) {
			return fmt.Errorf("router made no progress for 30s: %+v", s.router.Metrics())
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// settled reports whether every offered item has been processed.
func (s *sut) settled() bool {
	if s.router != nil && s.router.Metrics().Forwarded < s.offered {
		return false
	}
	for _, st := range s.streamers {
		m := st.SnapshotMetrics()
		if m.Processed+m.Dropped+m.Quarantined+m.SkewQuarantined+m.Shed != m.Ingested-m.SafeFiltered {
			return false
		}
	}
	return true
}

// settle blocks until the system is settled, without closing anything
// — the state the durable workload is killed in.
func (s *sut) settle() error {
	deadline := time.Now().Add(30 * time.Second)
	for !s.settled() {
		if time.Now().After(deadline) {
			return fmt.Errorf("system did not settle in 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// quiesce drives the system to quiescence the way a graceful shutdown
// does — Router.Flush, then Close on every streamer — and returns once
// every alert has been collected. It is the end of a timed pass.
func (s *sut) quiesce(tr *tracer) error {
	if s.router != nil {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		err := s.router.Flush(ctx)
		cancel()
		s.flushWait = time.Since(start)
		tr.span("cluster.Flush", start, time.Now())
		if err != nil {
			return fmt.Errorf("router flush: %w", err)
		}
	}
	start := time.Now()
	for _, st := range s.streamers {
		if err := st.Close(); err != nil {
			return err
		}
	}
	for _, c := range s.collectors {
		<-c.done
	}
	tr.span("stream.Close", start, time.Now())
	return nil
}

// kill is the SIGKILL seam: shards stop where they stand, nothing is
// flushed, only the WAL survives.
func (s *sut) kill(tr *tracer) {
	start := time.Now()
	for _, st := range s.streamers {
		st.Kill()
	}
	for _, c := range s.collectors {
		<-c.done
	}
	tr.span("stream.Kill", start, time.Now())
}

// teardown releases listeners, the router and idle connections. Safe
// on a partially booted system and after quiesce or kill.
func (s *sut) teardown() {
	if s.router != nil {
		_ = s.router.Close()
	}
	for _, st := range s.streamers {
		_ = st.Close()
	}
	for _, c := range s.collectors {
		<-c.done
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
}

// alerts returns everything the subscribers received; valid once the
// collectors have finished (after quiesce, kill or teardown).
func (s *sut) alerts() []stampedAlert {
	var all []stampedAlert
	for _, c := range s.collectors {
		all = append(all, c.alerts...)
	}
	return all
}

// audit is the failure accounting of one pass at quiescence: every
// counter that means an offered item did not get full service, plus
// any shortfall in the conservation equation.
type audit struct {
	failed int64
	notes  []string
}

func (a *audit) add(n int64, what string) {
	if n != 0 {
		if n < 0 {
			n = -n
		}
		a.failed += n
		a.notes = append(a.notes, fmt.Sprintf("%s=%d", what, n))
	}
}

func (s *sut) audit(ingestErrors int64) audit {
	var a audit
	a.add(ingestErrors, "ingest_errors")
	var ingested int64
	for i, st := range s.streamers {
		m := st.SnapshotMetrics()
		ingested += m.Ingested
		tag := fmt.Sprintf("streamer%d.", i)
		a.add(m.Malformed, tag+"malformed")
		a.add(m.Dropped, tag+"dropped")
		a.add(m.Shed, tag+"shed")
		a.add(m.Quarantined, tag+"quarantined")
		a.add(m.SkewQuarantined, tag+"skew_quarantined")
		a.add(m.WALErrors, tag+"wal_errors")
		a.add(m.SnapshotErrors, tag+"snapshot_errors")
		a.add(m.AlertsDropped, tag+"alerts_dropped")
		a.add(m.Duplicates, tag+"duplicates")
		a.add((m.Ingested-m.SafeFiltered)-(m.Processed+m.Dropped+m.Quarantined+m.SkewQuarantined+m.Shed), tag+"conservation_shortfall")
	}
	a.add(s.offered-ingested, "offered_not_ingested")
	if s.router != nil {
		m := s.router.Metrics()
		a.add(m.Malformed, "router.malformed")
		a.add(m.SpillErrors, "router.spill_errors")
		a.add(m.ForwardErrors, "router.forward_errors")
		a.add(s.offered-m.Forwarded, "router.offered_not_forwarded")
	}
	return a
}
