// Package adapt is deshd's continuous-learning loop: it watches the
// streamer's drift signals, retrains candidate models in the
// background on recent WAL data, scores them in shadow mode against
// live traffic, and — when a candidate wins — hot-swaps it in
// atomically through the streamer's barrier protocol.
//
// The loop never touches the serving hot path: drift reads are atomic
// counter snapshots, training runs on its own small worker pool, and
// shadow scoring happens on a dedicated goroutine fed by nonblocking
// sends. Everything the loop decides is visible in /metrics
// (drift_score, retrains, shadow_*, swaps).
package adapt

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/par"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
	"desh/internal/stream"
)

// Policy selects what happens after a candidate model trains.
type Policy int

const (
	// PolicyAuto shadow-evaluates the candidate and swaps it in if it
	// passes the agreement gates. The default.
	PolicyAuto Policy = iota
	// PolicyShadow evaluates and records the verdict but never swaps —
	// an operator dry-run mode.
	PolicyShadow
	// PolicyImmediate swaps without shadow evaluation. For tests and
	// operators who have validated the candidate out of band.
	PolicyImmediate
)

func (p Policy) String() string {
	switch p {
	case PolicyShadow:
		return "shadow"
	case PolicyImmediate:
		return "immediate"
	default:
		return "auto"
	}
}

// ParsePolicy maps the -swap-policy flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "auto", "":
		return PolicyAuto, nil
	case "shadow":
		return PolicyShadow, nil
	case "immediate":
		return PolicyImmediate, nil
	}
	return PolicyAuto, fmt.Errorf("adapt: unknown swap policy %q (want auto, shadow or immediate)", s)
}

// The loop's fixed settings. deshd sets none of them; a test shrinks
// the first two (and the shadow gates) through Config's unexported
// seams to run a cycle in seconds.
const (
	// tick is the drift-sampling interval.
	tick = 5 * time.Second
	// minRetrainGap spaces retrain cycles, so a persistently high score
	// does not retrain back to back; a shorter RetrainEvery wins.
	minRetrainGap = time.Minute
	// trainWindow bounds both the harvest and the WAL the loop pins: a
	// retrain reads the events within trainWindow of the newest, and the
	// retain floor keeps roughly that much history against snapshot
	// truncation.
	trainWindow = 24 * time.Hour
	// shadowTimeout caps how long a shadow evaluation waits for its
	// window to fill on a quiet stream.
	shadowTimeout = 5 * time.Minute
	// minCoverage is the share of the active model's flags the candidate
	// must agree with (when the active model flagged anything).
	minCoverage = 0.8
	// maxCandidateOnly caps candidate-only flags as a share of scored
	// chains: a noisy candidate is rejected.
	maxCandidateOnly = 0.5
)

// Config tunes the continuous-learning manager.
type Config struct {
	// StateDir is the streamer's crash-recovery directory — training
	// data is harvested from its WAL. Required.
	StateDir string
	// RetrainEvery forces a retrain cycle at this interval regardless
	// of drift. Zero disables time-based retraining.
	RetrainEvery time.Duration
	// DriftThreshold triggers a retrain when the drift score reaches
	// it. Zero disables drift-based retraining.
	DriftThreshold float64
	// ShadowWindow is how many closed-chain verdicts the shadow
	// evaluation scores before judging. Default 200.
	ShadowWindow int
	// Policy selects shadow gating vs. immediate swap.
	Policy Policy
	// Diag, when set, receives one line per loop decision.
	Diag io.Writer

	// Test seams, zero meaning the constant above: the sampling tick,
	// the retrain gap and the shadow gates, the candidate's training
	// configuration (nil trains with the active model's) and the drift
	// score's references.
	tick, minRetrainGap           time.Duration
	minCoverage, maxCandidateOnly float64
	trainConfig                   *core.Config
	drift                         driftConfig
}

func (c *Config) setDefaults() {
	if c.tick <= 0 {
		c.tick = tick
	}
	if c.minRetrainGap <= 0 {
		c.minRetrainGap = minRetrainGap
		// An explicit sub-minute cadence must not be silently debounced
		// into the default gap — the shorter of the two wins.
		if c.RetrainEvery > 0 && c.RetrainEvery < c.minRetrainGap {
			c.minRetrainGap = c.RetrainEvery
		}
	}
	if c.ShadowWindow <= 0 {
		c.ShadowWindow = 200
	}
	if c.minCoverage <= 0 {
		c.minCoverage = minCoverage
	}
	if c.maxCandidateOnly <= 0 {
		c.maxCandidateOnly = maxCandidateOnly
	}
}

// Manager runs the continuous-learning loop for one streamer.
type Manager struct {
	s    *stream.Streamer
	base *core.Pipeline // manager-goroutine-owned after Start
	cfg  Config
	pool *par.Pool
	dr   *Drift

	lastCycle time.Time
	marks     []seqMark

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// seqMark remembers where the WAL was at a tick, so the retain floor
// can pin roughly trainWindow of history against snapshot truncation.
type seqMark struct {
	at  time.Time
	seq uint64
}

// New starts a manager watching s, whose serving model is base. The
// loop runs until Close.
func New(s *stream.Streamer, base *core.Pipeline, cfg Config) (*Manager, error) {
	if s == nil || base == nil {
		return nil, fmt.Errorf("adapt: nil streamer or pipeline")
	}
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("adapt: StateDir is required — continuous learning trains from the WAL")
	}
	if cfg.RetrainEvery <= 0 && cfg.DriftThreshold <= 0 {
		return nil, fmt.Errorf("adapt: set RetrainEvery and/or DriftThreshold — neither trigger is armed")
	}
	cfg.setDefaults()
	m := &Manager{
		s:    s,
		base: base,
		cfg:  cfg,
		// Retraining runs at low priority simply by being small.
		pool:      par.NewPool(max(1, runtime.NumCPU()/4)),
		dr:        newDrift(cfg.drift),
		lastCycle: time.Now(),
		done:      make(chan struct{}),
	}
	m.wg.Add(1)
	go m.run()
	return m, nil
}

// Close stops the loop and releases the training pool. Safe to call
// more than once; blocks until the loop (including any in-flight
// retrain cycle) has exited.
func (m *Manager) Close() {
	m.closeOnce.Do(func() { close(m.done) })
	m.wg.Wait()
}

func (m *Manager) run() {
	defer m.wg.Done()
	defer m.pool.Close()
	t := time.NewTicker(m.cfg.tick)
	defer t.Stop()
	var prev counters
	for {
		select {
		case <-m.done:
			return
		case now := <-t.C:
			cur := m.sample()
			m.fold(cur.sub(prev), now)
			prev = cur
			if m.shouldRetrain() {
				m.cycle()
			}
		}
	}
}

// counters is the subset of streamer metrics the drift score consumes.
type counters struct {
	events, unseen, verdicts, mseMicros, leadCount, leadMillis int64
}

func (c counters) sub(p counters) counters {
	return counters{
		events:     c.events - p.events,
		unseen:     c.unseen - p.unseen,
		verdicts:   c.verdicts - p.verdicts,
		mseMicros:  c.mseMicros - p.mseMicros,
		leadCount:  c.leadCount - p.leadCount,
		leadMillis: c.leadMillis - p.leadMillis,
	}
}

func (m *Manager) sample() counters {
	met := m.s.Metrics()
	return counters{
		events:     met.Ingested.Load(),
		unseen:     met.UnseenPhrases.Load(),
		verdicts:   met.Verdicts.Load(),
		mseMicros:  met.VerdictMSEMicros.Load(),
		leadCount:  met.LeadErrCount.Load(),
		leadMillis: met.LeadErrMillis.Load(),
	}
}

// fold feeds one tick's deltas, sampled at now, to the drift tracker,
// publishes the score, and advances the WAL retain floor to keep the
// training window readable.
func (m *Manager) fold(d counters, now time.Time) {
	m.dr.Tick(d.events, d.unseen, d.verdicts,
		float64(d.mseMicros)/1e6, d.leadCount, float64(d.leadMillis)/1e3)
	m.s.Metrics().DriftScoreMilli.Store(int64(m.dr.Score() * 1000))

	m.marks = append(m.marks, seqMark{at: now, seq: m.s.WALNextSeq()})
	// Keep the newest mark older than the window as the floor: it covers
	// the whole window, anything older is surplus.
	cut := now.Add(-trainWindow)
	for len(m.marks) > 1 && m.marks[1].at.Before(cut) {
		m.marks = m.marks[1:]
	}
	m.s.SetWALRetainFloor(m.marks[0].seq)
}

func (m *Manager) shouldRetrain() bool {
	since := time.Since(m.lastCycle)
	if since < m.cfg.minRetrainGap {
		return false
	}
	if m.cfg.RetrainEvery > 0 && since >= m.cfg.RetrainEvery {
		return true
	}
	return m.cfg.DriftThreshold > 0 && m.dr.Score() >= m.cfg.DriftThreshold
}

// cycle runs one retrain → shadow → swap pass. Failures are counted
// and logged, never fatal — the loop tries again next trigger.
func (m *Manager) cycle() {
	m.lastCycle = time.Now()
	met := m.s.Metrics()
	cand, _, err := m.train()
	if err != nil {
		met.RetrainFailures.Add(1)
		m.diagf("retrain failed: %v", err)
		return
	}
	met.Retrains.Add(1)
	m.diagf("retrained candidate on recent WAL data (fingerprint %016x)", cand.Fingerprint())

	if m.cfg.Policy != PolicyImmediate {
		ok, rep, err := m.shadow(cand)
		if err != nil {
			m.diagf("shadow evaluation: %v", err)
			return
		}
		m.diagf("shadow: scored=%d both=%d active-only=%d cand-only=%d dropped=%d lead-delta=%.2fs accept=%v",
			rep.Scored, rep.BothFlagged, rep.ActiveOnly, rep.CandidateOnly, rep.Dropped, rep.LeadAbsDeltaSeconds, ok)
		if ok {
			met.ShadowAccepted.Add(1)
		} else {
			met.ShadowRejected.Add(1)
			return
		}
		if m.cfg.Policy == PolicyShadow {
			return // dry-run: verdict recorded, serving model untouched
		}
	}
	if err := m.s.SwapModel(cand); err != nil {
		m.diagf("swap failed: %v", err)
		return
	}
	m.base = cand
	m.dr.Reset()
	m.s.Metrics().DriftScoreMilli.Store(0)
	m.diagf("hot-swapped model %q", m.s.ActiveModelFile())
}

// train harvests recent events from the WAL and fits a candidate
// seeded with the live vocabulary, on the manager's small pool. The
// candidate skips Phase 1 whatever the base config says: a model file
// carries no Phase-1 classifier, so training one would be thrown away.
func (m *Manager) train() (*core.Pipeline, *core.TrainReport, error) {
	recs, err := persist.ReadEventRange(faultfs.OS(), m.cfg.StateDir, 0, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("harvest: %w", err)
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("harvest: WAL holds no events yet")
	}
	newest := recs[0].TimeNano
	for _, r := range recs {
		newest = max(newest, r.TimeNano)
	}
	from := newest - int64(trainWindow)
	events := make([]logparse.Event, 0, len(recs))
	for _, r := range recs {
		if r.TimeNano < from {
			continue
		}
		events = append(events, logparse.Event{
			Time: time.Unix(0, r.TimeNano).UTC(), Node: r.Node, Message: r.Message, Key: r.Key,
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })

	cfg := m.base.Config()
	if m.cfg.trainConfig != nil {
		cfg = *m.cfg.trainConfig
	}
	cfg.Epochs1 = 0
	cand, err := core.NewSeeded(cfg, m.s.EncoderKeys())
	if err != nil {
		return nil, nil, err
	}
	cand.SetTrainPool(m.pool)
	report, err := cand.Train(events)
	if err != nil {
		return nil, nil, err
	}
	return cand, report, nil
}

// shadow runs one shadow window against live traffic and judges the
// report: the candidate must cover enough of the active model's flags
// and not flood with flags of its own.
func (m *Manager) shadow(cand *core.Pipeline) (bool, stream.ShadowReport, error) {
	ev, err := m.s.StartShadow(cand, m.cfg.ShadowWindow)
	if err != nil {
		return false, stream.ShadowReport{}, err
	}
	timeout := time.NewTimer(shadowTimeout)
	defer timeout.Stop()
	select {
	case <-ev.Done():
	case <-timeout.C:
	case <-m.done:
	}
	rep := ev.Stop()
	if rep.Scored == 0 {
		return false, rep, nil
	}
	if af := rep.BothFlagged + rep.ActiveOnly; af > 0 {
		if float64(rep.BothFlagged)/float64(af) < m.cfg.minCoverage {
			return false, rep, nil
		}
	}
	if float64(rep.CandidateOnly) > m.cfg.maxCandidateOnly*float64(rep.Scored) {
		return false, rep, nil
	}
	return true, rep, nil
}

func (m *Manager) diagf(format string, args ...any) {
	if m.cfg.Diag != nil {
		fmt.Fprintf(m.cfg.Diag, "adapt: "+format+"\n", args...)
	}
}
