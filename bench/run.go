package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"desh/internal/cluster"
	"desh/internal/stream"
)

// runConfig is one invocation: a workload, a seed and a run length.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	tr      *tracer // nil = untraced
	tmp     string  // scratch root for state dirs, inside the checkout
	log     io.Writer
	// model, when set, skips training (the -smoke path trains once for
	// all four workloads; its setup_s is indicative anyway).
	model []byte
}

// runner carries one run's inputs, its reference results and its
// running failure account.
type runner struct {
	cfg    runConfig
	model  []byte
	c      *corpus
	floodN int // items one flood pass ingests
	// refFull and refFlood are the reference alert multisets over the
	// whole corpus and over the flood prefix.
	refFull, refFlood map[string]int
	cal               *calibrator

	passes    int
	attempted int64
	failed    int64
	problems  []string
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.log, format+"\n", args...)
}

func (r *runner) problem(format string, args ...any) {
	p := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, p)
	}
	r.logf("WRONG: %s", p)
}

// passDir returns a fresh state directory for one boot.
func (r *runner) passDir() string {
	r.passes++
	return filepath.Join(r.cfg.tmp, fmt.Sprintf("pass%03d", r.passes))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// setUp builds everything a run needs from nothing: the model, the
// corpus, and one booted system warmed by an untimed flood pass (page
// cache, allocator arenas, the router's connection pool) and shut down
// again. Its wall time is setup_s.
func (r *runner) setUp() (time.Duration, error) {
	start := time.Now()
	r.model = r.cfg.model
	if r.model == nil {
		m, err := trainModel()
		if err != nil {
			return 0, err
		}
		r.model = m
	}
	c, err := generateCorpus(r.cfg.w.spec, r.cfg.seed, r.cfg.seconds/runSeconds)
	if err != nil {
		return 0, err
	}
	if !r.cfg.w.raw {
		if err := c.parse(); err != nil {
			return 0, err
		}
	}
	r.c = c
	r.floodN = int(float64(len(c.lines)) * r.cfg.w.floodFrac)
	if _, err := r.floodPass(nil, nil); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(start), nil
}

// reference runs the corpus prefix of n items through a one-shard,
// micro-batch-1, in-memory streamer: the simplest configuration of the
// program, whose alert multiset every other configuration must equal.
func (r *runner) reference(n int) (map[string]int, error) {
	st, err := newStreamer(r.model,
		stream.WithShards(1), stream.WithMicroBatch(1), stream.WithQuietPeriod(0), stream.WithAlertBuffer(alertBuffer))
	if err != nil {
		return nil, err
	}
	col := collect(st)
	for i := 0; i < n; i++ {
		if r.cfg.w.raw {
			err = st.IngestLine(r.c.lines[i])
		} else {
			err = st.IngestEvent(r.c.events[i])
		}
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("reference ingest %d: %w", i, err)
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	<-col.done
	return multiset(col.alerts), nil
}

// depthSampler polls the shard queue depths of a running system — the
// one thing SnapshotMetrics shows that the end-of-pass counters cannot.
// Traced runs only: the poll itself costs.
type depthSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	sum  float64
	n    int
	max  int
}

func sampleDepths(s *sut) *depthSampler {
	d := &depthSampler{stop: make(chan struct{})}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(500 * time.Microsecond)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				depth := 0
				for _, st := range s.streamers {
					for _, q := range st.SnapshotMetrics().QueueDepths {
						depth += q
					}
				}
				d.sum += float64(depth)
				d.n++
				if depth > d.max {
					d.max = depth
				}
			}
		}
	}()
	return d
}

func (d *depthSampler) finish() (mean float64, max int) {
	close(d.stop)
	d.wg.Wait()
	if d.n > 0 {
		mean = d.sum / float64(d.n)
	}
	return mean, d.max
}

// passStats is what one flood pass (boot → ingest → quiescence) yields.
type passStats struct {
	items      int
	wall, cpu  time.Duration
	ingest     time.Duration // producer time inside the ingest loop
	drain      time.Duration // Flush/Close at the end
	live       liveStats
	depthMean  float64
	depthMax   int
	mallocs    uint64
	allocBytes uint64
}

// liveStats are the program's own counters at quiescence, summed over
// the system's streamers.
type liveStats struct {
	wakeups, batchEvents, batchedDetects, chainsClosed int64
	detectP50us, detectP99us                           float64
	election, flushWait                                time.Duration
	router                                             cluster.RouterMetricsSnapshot
	posts                                              int
	postRTTs                                           []float64
	postBytes                                          int64
}

func (s *sut) liveStats() liveStats {
	var l liveStats
	for _, st := range s.streamers {
		m := st.SnapshotMetrics()
		l.wakeups += m.BatchWakeups
		l.batchEvents += int64(m.BatchOccupancy*float64(m.BatchWakeups) + 0.5)
		l.batchedDetects += m.BatchedDetects
		l.chainsClosed += m.ChainsClosed
		if m.Detect.P50Micros > l.detectP50us {
			l.detectP50us = m.Detect.P50Micros
		}
		if m.Detect.P99Micros > l.detectP99us {
			l.detectP99us = m.Detect.P99Micros
		}
	}
	l.election, l.flushWait = s.election, s.flushWait
	if s.router != nil {
		l.router = s.router.Metrics()
	}
	if s.posts != nil {
		s.posts.mu.Lock()
		l.posts = len(s.posts.rtts)
		l.postRTTs = append([]float64(nil), s.posts.rtts...)
		l.postBytes = s.posts.bytes
		s.posts.mu.Unlock()
	}
	return l
}

// floodPass boots a fresh system, offers the flood prefix as fast as
// backpressure allows, drives it to quiescence and checks the result.
// ref == nil skips the alert comparison (the warm-up pass runs before
// the reference exists).
func (r *runner) floodPass(tr *tracer, ref map[string]int) (passStats, error) {
	var ps passStats
	dir := r.passDir()
	s, err := boot(r.cfg.w, r.c, r.model, dir, tr)
	if err != nil {
		return ps, err
	}
	defer os.RemoveAll(dir)
	defer s.teardown()
	var depths *depthSampler
	if tr != nil {
		depths = sampleDepths(s)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var ingestErrs int64
	n := r.floodN
	cpu0, t0 := cpuTime(), time.Now()
	for i := 0; i < n; i++ {
		if err := s.offerSampled(i, tr); err != nil {
			ingestErrs++
		}
		if i&63 == 63 {
			if err := s.throttle(); err != nil {
				return ps, err
			}
		}
	}
	t1 := time.Now()
	if err := s.quiesce(tr); err != nil {
		return ps, err
	}
	t2, cpu1 := time.Now(), cpuTime()
	runtime.ReadMemStats(&ms1)
	if depths != nil {
		ps.depthMean, ps.depthMax = depths.finish()
	}
	ps.items, ps.wall, ps.cpu, ps.ingest, ps.drain = n, t2.Sub(t0), cpu1-cpu0, t1.Sub(t0), t2.Sub(t1)
	ps.mallocs, ps.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	ps.live = s.liveStats()
	r.account(s, ingestErrs, int64(n))
	if ref != nil {
		if d := diffMultiset(ref, multiset(s.alerts())); d != "" {
			r.problem("flood pass %d: %s", r.passes, d)
		}
	}
	return ps, nil
}

// account folds one quiescent system's audit into the run's totals.
func (r *runner) account(s *sut, ingestErrs, attempted int64) {
	a := s.audit(ingestErrs)
	r.attempted += attempted
	r.failed += a.failed
	if a.failed != 0 {
		r.problem("pass %d: %d of %d operations failed: %v", r.passes, a.failed, attempted, a.notes)
	}
}

// timedPass is one timed flood pass with the host's slowness around it:
// the mean of the calibrations right before and right after the pass,
// by the wall clock and in processor time.
type timedPass struct {
	passStats
	traced            bool
	host              reading
	slowWall, slowCPU float64
}

func (p timedPass) eventsPerSec() float64 { return float64(p.items) / p.wall.Seconds() }
func (p timedPass) cpuUsPerEvent() float64 {
	return float64(p.cpu) / float64(time.Microsecond) / float64(p.items)
}

// refEventsPerSec and refCPUUsPerEvent are the same two at reference
// host speed: the pass's wall time divided by the host's slowness by
// the wall clock, its processor time by the slowness in processor time.
func (p timedPass) refEventsPerSec() float64  { return p.eventsPerSec() * p.slowWall }
func (p timedPass) refCPUUsPerEvent() float64 { return p.cpuUsPerEvent() / p.slowCPU }

// floodPhase runs whole flood passes back to back until budget of wall
// time is spent (and at least minFloodPasses of them), the calibration
// kernel between every two, each pass after a forced GC so none
// inherits another's garbage. A traced run (tr != nil) alternates
// untraced and traced passes, so the overhead of tracing is measured
// inside one process.
func (r *runner) floodPhase(budget time.Duration, tr *tracer) ([]timedPass, error) {
	var out []timedPass
	start := time.Now()
	before := r.cal.read()
	for k := 0; k < minFloodPasses || time.Since(start) < budget; k++ {
		passTr := tr
		if k%2 == 0 {
			passTr = nil
		}
		runtime.GC()
		ps, err := r.floodPass(passTr, r.refFlood)
		if err != nil {
			return nil, fmt.Errorf("flood pass %d: %w", k, err)
		}
		after := r.cal.read()
		p := timedPass{passStats: ps, traced: passTr != nil, host: before.mean(after)}
		p.slowWall, p.slowCPU = p.host.slowness()
		r.logf("flood pass %d%s: %d items in %.3fs = %.0f/s, %.3f cpu-us/event; host slowness %.2f by the clock (chain %.2f ms, mix %.2f ms), %.2f in cpu time (chain %.2f ms, mix %.2f ms); at reference speed %.0f/s, %.3f cpu-us/event",
			k, map[bool]string{true: " (traced)"}[p.traced], p.items, p.wall.Seconds(), p.eventsPerSec(), p.cpuUsPerEvent(),
			p.slowWall, p.host.chainWall, p.host.mixWall, p.slowCPU, p.host.chainCPU, p.host.mixCPU, p.refEventsPerSec(), p.refCPUUsPerEvent())
		out = append(out, p)
		before = after
	}
	return out, nil
}

// episodeStats is what one whole-corpus episode yields.
type episodeStats struct {
	alerts []stampedAlert
	live   liveStats
	wall   time.Duration
	// paced episodes only: one latency per failure chain whose closing
	// line raised its alert, in corpus order, with the host gauge's
	// reading; and how late each offer began (ms, sorted).
	samples []latencySample
	late    []float64
	// durable workload only
	recovery time.Duration
	replayed int64
}

// episode boots a fresh system and offers the whole corpus: open loop
// at pacedRate when paced (the traced run's latency phase), as fast as
// backpressure allows otherwise (the untraced run's whole-corpus
// check). The durable workload is then killed and recovered; the others
// shut down gracefully. Either way the alerts of the whole episode must
// equal the reference.
func (r *runner) episode(tr *tracer, paced bool) (episodeStats, error) {
	var es episodeStats
	dir := r.passDir()
	s, err := boot(r.cfg.w, r.c, r.model, dir, tr)
	if err != nil {
		return es, err
	}
	defer os.RemoveAll(dir)
	defer s.teardown()
	runtime.GC()
	n := len(r.c.lines)
	var ingestErrs int64
	offer := func(i int) error {
		if err := s.offerSampled(i, tr); err != nil {
			ingestErrs++
		}
		// The flood's closed loop at the router. In a paced episode the
		// cap is a safety valve, 120 ms of lines deep and never reached
		// by a healthy phase: if the host freezes the process, the pacer
		// catches up in one burst, and without the cap that burst would
		// spill and reorder.
		if i&63 == 63 {
			return s.throttle()
		}
		return nil
	}
	if paced {
		// The pacer spins on the clock, so it gets a processor of its
		// own: sharing one, it would stand between the system and the
		// network poller, and the routed latency would read the
		// scheduler's 10 ms poll interval.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pacedProcs))
	}
	p := newPacer(time.Now().Add(2*time.Millisecond), pacedRate)
	g := newGauge(r.cal, p.start)
	if paced {
		p.idle = func() {
			g.tick()
			runtime.Gosched()
		}
		es.late, err = p.run(n, offer)
	} else {
		for i := 0; i < n && err == nil; i++ {
			err = offer(i)
		}
	}
	if err != nil {
		return es, err
	}
	es.wall = time.Since(p.start)
	if err := s.settle(); err != nil {
		return es, err
	}
	es.live = s.liveStats()
	if r.cfg.w.durable {
		r.account(s, ingestErrs, int64(n))
		s.kill(tr)
		es.alerts = s.alerts()
		var rec []stampedAlert
		if es.recovery, es.replayed, rec, err = r.recover(r.cfg.w, r.c, dir, tr); err != nil {
			return es, err
		}
		es.alerts = append(es.alerts, rec...)
	} else {
		if err := s.quiesce(tr); err != nil {
			return es, err
		}
		r.account(s, ingestErrs, int64(n))
		es.alerts = s.alerts()
	}
	if d := diffMultiset(r.refFull, multiset(es.alerts)); d != "" {
		r.problem("whole-corpus episode: %s", d)
	}
	if !paced {
		return es, nil
	}
	sort.Float64s(es.late)
	// One latency sample, and one root span, per failure chain whose
	// closing line raised its alert: closing line due → alert arrived.
	for _, a := range es.alerts {
		f, ok := r.c.closedBy(a)
		if !ok {
			continue
		}
		due := p.due(r.c.closing[f])
		es.samples = append(es.samples, latencySample{
			ms:   float64(a.arrived.Sub(due)) / float64(time.Millisecond),
			host: g.at(due),
		})
		tr.traced("chain", r.c.failures[f].ChainID, due, a.arrived)
	}
	return es, nil
}

// recover restarts a killed durable streamer on its state directory
// and times the boot — snapshot load plus WAL-tail replay inside
// stream.New, which returns once the streamer accepts events. It then
// shuts the streamer down gracefully and returns the alerts the second
// life delivered.
func (r *runner) recover(w *workload, c *corpus, dir string, tr *tracer) (took time.Duration, replayed int64, alerts []stampedAlert, err error) {
	start := time.Now()
	s, err := boot(w, c, r.model, dir, nil)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("recover: %w", err)
	}
	took = time.Since(start)
	tr.span("stream.New(recover)", start, time.Now())
	defer s.teardown()
	m := s.streamers[0].SnapshotMetrics()
	if err := s.quiesce(tr); err != nil {
		return 0, 0, nil, err
	}
	// The recovered streamer was offered nothing; its audit covers the
	// replayed tail.
	s.offered = m.Ingested
	r.account(s, 0, 0)
	return took, m.ReplayedEvents, s.alerts(), nil
}
