// Package stream is Desh's online serving layer: it turns the batch
// Phase-3 pipeline into a continuously running inference engine over an
// unbounded log stream. Raw lines are parsed and encoded as they
// arrive, routed by node id to one of N state shards, incrementally
// segmented into failure-chain candidates (chain.Tracker), and scored
// by each shard's private core.Detector the moment a chain closes —
// or, with early detection enabled, while it is still open. Flagged
// chains become Alerts on a subscriber channel, deduplicated per node
// by a quiet-period state machine.
//
// Shards own their state exclusively (one goroutine each), so inference
// is lock-free across nodes; bounded ingest queues with an explicit
// Block/DropNewest policy keep memory flat under burst load; Close
// drains every queue, flushes open episodes, and closes the alert
// channel, losing no already-ingested event.
package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"desh/internal/catalog"
	"desh/internal/core"
	"desh/internal/label"
	"desh/internal/logparse"
)

// ErrClosed is returned by ingest entry points after Close.
var ErrClosed = errors.New("stream: streamer is closed")

// Alert is one impending-failure warning emitted on the subscriber
// channel.
type Alert struct {
	// Node is the Cray node id the failure is predicted on.
	Node string
	// LeadSeconds is the predicted time remaining until the failure.
	// For alerts from closed chains it is the paper's lead time (ΔT of
	// the observation at the flagging point); for provisional alerts it
	// is the model-predicted ΔT, since the chain has no anchor yet.
	LeadSeconds float64
	// FlaggedAt is the log timestamp at which the failure was flagged.
	FlaggedAt time.Time
	// MSE is the smallest next-sample MSE observed over the chain.
	MSE float64
	// Provisional marks early-detect alerts raised on a still-open
	// chain, ahead of the authoritative closed-chain verdict.
	Provisional bool
}

// Streamer is an online inference engine over a trained pipeline. All
// ingest entry points are safe for concurrent use.
type Streamer struct {
	p    *core.Pipeline
	opts Options
	lab  *label.Labeler

	encMu sync.RWMutex
	enc   *logparse.Encoder
	// refIDs[Event.Ref()-1] is that catalog entry's encoder id plus one,
	// 0 until first asked. Filled from encodeKey and good for the
	// streamer's life: encoder ids are append-only, and a swap refuses a
	// pipeline that disagrees with the live encoder on a shared prefix.
	refIDs []atomic.Int32
	// epoch is the monotonic origin of the enqueue stamps (shardMsg.at).
	epoch time.Time

	shards []*shard
	alerts chan Alert
	met    Metrics

	// et is the event-time layer config (nil when reorder buffering and
	// dedup are both disabled).
	et *eventTime
	// shed is the overload-degradation controller (nil under ShedOff).
	shed *shedController
	// lastSkewDiag rate-limits skew-quarantine diagnostics (unix nanos
	// of the last line).
	lastSkewDiag atomic.Int64

	// pst is the crash-recovery state (nil without WithStateDir).
	pst *persister
	// crashed is the test seam simulating SIGKILL: shards stop
	// mid-queue without draining or flushing.
	crashed atomic.Bool

	// Continuous-learning state. vocabN is the active model's frozen
	// training vocabulary: phrase ids at or beyond it are unseen by the
	// model (the drift tap reads it lock-free on every ingest). shadow,
	// when armed, receives closed-chain verdicts off the hot path.
	// activeFile names the serving model's file inside the state dir
	// ("" = the boot model; guarded by mu), and swapMu serializes
	// SwapModel calls.
	vocabN     atomic.Int64
	shadow     atomic.Pointer[ShadowEval]
	activeFile string
	swapMu     sync.Mutex

	// ctl is the control plane's state (guarded by mu): the one copy,
	// changed only by Control.apply, live and on replay (control.go).
	ctl Control

	mu     sync.RWMutex // guards closed against in-flight ingests
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup // shard goroutines
	bgWG   sync.WaitGroup // idle-flush / snapshot loops
}

// New builds a streamer over a trained pipeline. The pipeline's
// labeler and encoder are shared with the streamer and must not be
// mutated (Override, batch Predict) while it runs.
func New(p *core.Pipeline, options ...Option) (*Streamer, error) {
	if p.Phase2Model() == nil {
		return nil, fmt.Errorf("stream: pipeline is not trained")
	}
	opts := defaultOptions()
	for _, o := range options {
		o(&opts)
	}
	if err := opts.validate(p); err != nil {
		return nil, err
	}
	s := &Streamer{
		p:      p,
		opts:   opts,
		lab:    p.Labeler(),
		enc:    p.Encoder(),
		refIDs: make([]atomic.Int32, len(catalog.Catalog)),
		epoch:  time.Now(),
		alerts: make(chan Alert, opts.AlertBuffer),
		done:   make(chan struct{}),
	}
	s.vocabN.Store(int64(modelVocab(p)))
	if opts.AllowedLateness > 0 || opts.DedupWindow > 0 {
		s.et = &eventTime{
			lateness: opts.AllowedLateness,
			depth:    opts.ReorderDepth,
			dedupN:   opts.DedupWindow,
			policy:   opts.LatePolicy,
		}
		s.et.effLateNs.Store(int64(opts.AllowedLateness))
	}
	if opts.ShedPolicy == ShedDegrade {
		s.shed = &shedController{s: s, tun: opts.shedTun}
	}
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		det, err := s.newDetector(p)
		if err != nil {
			return nil, fmt.Errorf("stream: %s serving model: %w", opts.Precision, err)
		}
		sh := &shard{
			s:     s,
			id:    i,
			ch:    make(chan shardMsg, opts.QueueDepth),
			det:   det,
			nodes: make(map[string]*nodeState),
		}
		if opts.IdleFlush > 0 {
			sh.flushC = make(chan time.Time, 1)
		}
		s.shards[i] = sh
	}
	// Recovery runs before any goroutine starts: shard state is
	// restored and the WAL tail replayed single-threaded, so the
	// supervisor and ingest paths never observe a half-recovered
	// streamer.
	if opts.StateDir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.run()
	}
	if opts.IdleFlush > 0 {
		s.every(max(opts.IdleFlush/4, 10*time.Millisecond), s.idleFlushTick)
	}
	if s.pst != nil {
		s.every(opts.SnapshotEvery, func(time.Time) {
			if err := s.snapshotNow(); err != nil {
				s.met.SnapshotErrors.Add(1)
			}
		})
	}
	if s.shed != nil {
		s.every(opts.shedTun.period, func(time.Time) { s.shed.tick() })
	}
	return s, nil
}

// every starts a background loop that calls fn once per period until
// shutdown; Close and Kill wait for it.
func (s *Streamer) every(period time.Duration, fn func(now time.Time)) {
	s.bgWG.Add(1)
	go func() {
		defer s.bgWG.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case now := <-t.C:
				fn(now)
			}
		}
	}()
}

// newDetector builds a shard detector over p at the configured serving
// precision. Under f32 the first build for a given pipeline performs
// the (cached) weight conversion and counts it in PrecisionConversions
// — one per adopted model, across boot, recovery and hot swaps.
func (s *Streamer) newDetector(p *core.Pipeline) (*core.Detector, error) {
	if s.opts.Precision == core.PrecisionF32 {
		if _, converted, err := p.Convert32(); err != nil {
			return nil, err
		} else if converted {
			s.met.PrecisionConversions.Add(1)
		}
	}
	return p.NewDetectorPrecision(s.opts.Precision)
}

// mustDetector is newDetector on a pipeline whose convertibility was
// already validated (validateSwap); a failure here is a programming
// error, not an operator-visible condition.
func (s *Streamer) mustDetector(p *core.Pipeline) *core.Detector {
	d, err := s.newDetector(p)
	if err != nil {
		panic(fmt.Sprintf("stream: detector build after validation: %v", err))
	}
	return d
}

// Alerts returns the subscriber channel. It is closed by Close after
// every shard has drained, so ranging over it observes every alert.
func (s *Streamer) Alerts() <-chan Alert { return s.alerts }

// Metrics returns the live counter registry.
func (s *Streamer) Metrics() *Metrics { return &s.met }

// Close stops ingest, drains every shard queue, flushes open episodes
// (scoring them as end-of-stream candidates, exactly like the batch
// path's final flush), closes the Alerts channel and returns. It is
// idempotent; concurrent ingest calls return ErrClosed.
func (s *Streamer) Close() error {
	if !s.stop(false) {
		return nil
	}
	// Final snapshot: the drain flushed every open episode, so the
	// snapshot is small (dedup state only) and covers the whole WAL —
	// a restart after a graceful shutdown replays nothing.
	if s.pst != nil {
		if err := s.pst.finalSnapshot(s); err != nil {
			s.met.SnapshotErrors.Add(1)
			return fmt.Errorf("stream: final snapshot: %w", err)
		}
	}
	return nil
}

// stop is the shutdown Close and Kill share: refuse further ingest,
// close the shard queues, wait for every goroutine, close the alert
// channel. crashed tells the shards to stop where they stand instead of
// draining. It reports false when the streamer was already stopped.
func (s *Streamer) stop(crashed bool) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	s.crashed.Store(crashed)
	s.mu.Unlock()
	close(s.done)
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.wg.Wait()
	s.bgWG.Wait()
	close(s.alerts)
	return true
}

// diagf forwards one operational diagnostic line to the Diag sink.
func (s *Streamer) diagf(format string, args ...any) {
	if s.opts.Diag != nil {
		s.opts.Diag(format, args...)
	}
}

// modelVocab is the vocabulary size a pipeline's detectors score
// against: the training-time freeze, or the encoder length for models
// whose saved form predates the freeze field.
func modelVocab(p *core.Pipeline) int {
	if n := p.TrainVocab(); n > 0 {
		return n
	}
	return p.Encoder().Len()
}
