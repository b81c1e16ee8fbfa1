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
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"desh/internal/catalog"
	"desh/internal/chain"
	"desh/internal/core"
	"desh/internal/label"
	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
	"desh/internal/retry"
)

// ErrClosed is returned by ingest entry points after Close.
var ErrClosed = errors.New("stream: streamer is closed")

// maxMicroBatch bounds Options.MicroBatch: past a few dozen rows a
// longer drain only adds head-of-line wait.
const maxMicroBatch = 256

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

// Policy selects what a full shard queue does to an incoming event.
type Policy int

const (
	// Block applies backpressure: the ingest call waits for queue room.
	// Right for file replay and pipes, where the producer can stall.
	Block Policy = iota
	// DropNewest sheds load: the incoming event is counted in
	// Metrics.Dropped and discarded. Right for live listeners that must
	// never stall their peers; memory stays flat under burst.
	DropNewest
)

// Options tunes a Streamer. The zero value is not valid; use New with
// Option setters.
type Options struct {
	// Shards is the number of per-node state shards (default
	// GOMAXPROCS). Nodes hash onto shards, so inference parallelism is
	// min(Shards, active nodes).
	Shards int
	// QueueDepth bounds each shard's ingest queue (default 1024).
	QueueDepth int
	// Policy is the full-queue behavior (default Block).
	Policy Policy
	// AlertBuffer sizes the subscriber channel (default 256). When the
	// subscriber falls this far behind, further alerts are dropped and
	// counted rather than stalling inference.
	AlertBuffer int
	// QuietPeriod suppresses repeat alerts for a node until this much
	// log time has passed since its last alert (default 2m). 0 disables
	// dedup entirely.
	QuietPeriod time.Duration
	// MaxOpenWindow bounds each node's open episode; oldest events are
	// evicted beyond it (default 4096, 0 = unbounded). Bounding keeps a
	// pathologically chatty node from growing state without limit, at
	// the cost of exact batch parity on episodes longer than the bound.
	MaxOpenWindow int
	// EarlyDetect scores the open episode on every appended event and
	// raises a provisional alert the first time it crosses the Phase-3
	// threshold — before the chain closes, which is where the streaming
	// lead time comes from. Off by default (batch-parity mode).
	EarlyDetect bool
	// IdleFlush closes a node's open episode after this much wall-clock
	// silence from that node (default 0 = disabled). A node that dies
	// without a terminal message stops logging; this is how its last
	// episode still gets scored promptly.
	IdleFlush time.Duration
	// StateDir enables crash-safe operation: per-node state snapshots
	// and a write-ahead log of ingested events live here, and New
	// recovers from them — restored open chains, dedup state and a WAL
	// tail replay — before accepting new events. Empty disables
	// persistence entirely.
	StateDir string
	// SnapshotEvery is the wall-clock period between state snapshots
	// (default 30s). Between snapshots, recovery replays the WAL tail.
	SnapshotEvery time.Duration
	// WALSyncEvery is the fsync cadence of the write-ahead log in
	// records (default 64). Every record reaches the OS before its
	// ingest call returns, so a killed process loses nothing; an OS
	// crash loses at most the last WALSyncEvery records.
	WALSyncEvery int
	// MaxEventRetries is how many times a shard retries an event whose
	// processing panicked before quarantining it as poisoned
	// (default 3).
	MaxEventRetries int
	// RestartBackoff is the base delay before a panicked shard
	// restarts; it doubles per consecutive crash (jittered, capped at
	// 1s) and resets on the first successfully processed event
	// (default 10ms).
	RestartBackoff time.Duration
	// MaxConns caps concurrent ServeLines connections; excess accepts
	// are counted and closed immediately (default 256).
	MaxConns int
	// ConnIdleTimeout drops a ServeLines connection that goes this long
	// without delivering a byte (default 5m; 0 disables).
	ConnIdleTimeout time.Duration
	// MaxBodyBytes bounds one HTTP ingest request body (default 8 MiB).
	MaxBodyBytes int64
	// AllowedLateness is the event-time disorder window: events are held
	// in a per-node reorder buffer until the node's watermark (max seen
	// timestamp minus this window) passes them, so arrival order within
	// the window never reaches the chain tracker (default 0 = arrival
	// order, no buffering).
	AllowedLateness time.Duration
	// ReorderDepth bounds each node's reorder buffer; when full, the
	// earliest buffered event is released ahead of the watermark and
	// counted in ReorderOverflow (default 512).
	ReorderDepth int
	// LatePolicy selects what happens to events that arrive after the
	// watermark already passed them (default LateFeed).
	LatePolicy LatePolicy
	// DedupWindow suppresses re-deliveries: each node remembers its last
	// N accepted (timestamp, phrase) keys and drops exact repeats —
	// retried syslog batches fire each alert once (default 0 = off).
	DedupWindow int
	// SkewTolerance quarantines events whose timestamp is further than
	// this ahead of the local clock — a producer clock that absurdly
	// leads ours would otherwise poison the node's watermark and mark
	// every honest event late (default 0 = off; backward jumps are
	// handled by the lateness path, not this guard).
	SkewTolerance time.Duration
	// MicroBatch caps how many queued events one shard wakeup drains and
	// processes together; every chain closed during the drain is scored
	// in one Detector.DetectBatch pass. It caps coalescing only: scoring
	// is the same path at every width. Coalescing never waits on a timer
	// — the batch is whatever backlog exists at wakeup, so an idle shard
	// keeps per-event latency while a backlogged one amortizes the
	// wakeup across the burst. 1 means one event per wakeup. Default 32,
	// max 256. Batch boundaries are unobservable in the alert stream: a
	// chain's verdict does not depend on what it is batched with, and
	// emission order is event order.
	MicroBatch int
	// Precision selects the serving numeric path (default
	// core.PrecisionF64, bit-identical to the offline pipeline).
	// core.PrecisionF32 converts the trained weights once per adopted
	// model — at boot and at every hot swap — and scores through the
	// float32 kernels: half the model-resident bytes, wider SIMD, alert
	// equivalence (not bitwise parity) against the f64 path. Training
	// and model files stay float64 either way.
	Precision core.Precision
	// ShedPolicy enables graceful overload degradation (default ShedOff;
	// see shed.go for the levels).
	ShedPolicy ShedPolicy
	// Diag, when set, receives one-line operational diagnostics
	// (Printf-style): skew quarantines, shed level transitions. Never
	// called on the per-event hot path more than ~1/s.
	Diag func(format string, args ...any)

	// shedTun tunes the shedding controller (test seam; defaults in
	// defaultOptions).
	shedTun shedTuning
	// processDelay stalls every shard event by this much — the overload
	// test's way of forcing queue pressure deterministically.
	processDelay time.Duration

	ctx context.Context
	// fsys overrides the persistence filesystem — the fault-injection
	// seam used by the crash tests (default: the real OS).
	fsys faultfs.FS
	// panicHook, when set, runs before every event a shard processes —
	// the deterministic panic-injection seam used by the supervisor
	// tests.
	panicHook func(shardID int, ev logparse.EncodedEvent)
	// swapHook, when set, runs at the two durability stages inside
	// SwapModel; returning true aborts the swap there — the
	// crash-during-swap tests' kill-point seam.
	swapHook func(stage SwapStage) bool
}

// Option mutates Options.
type Option func(*Options)

// WithShards sets the shard count.
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }

// WithQueueDepth sets the per-shard queue bound.
func WithQueueDepth(n int) Option { return func(o *Options) { o.QueueDepth = n } }

// WithPolicy sets the full-queue policy.
func WithPolicy(p Policy) Option { return func(o *Options) { o.Policy = p } }

// WithAlertBuffer sets the subscriber channel capacity.
func WithAlertBuffer(n int) Option { return func(o *Options) { o.AlertBuffer = n } }

// WithQuietPeriod sets the per-node alert dedup window (0 disables).
func WithQuietPeriod(d time.Duration) Option { return func(o *Options) { o.QuietPeriod = d } }

// WithMaxOpenWindow bounds the per-node open episode (0 = unbounded).
func WithMaxOpenWindow(n int) Option { return func(o *Options) { o.MaxOpenWindow = n } }

// WithEarlyDetect toggles provisional alerts on open chains.
func WithEarlyDetect(on bool) Option { return func(o *Options) { o.EarlyDetect = on } }

// WithIdleFlush closes open episodes after d of wall-clock node
// silence (0 disables).
func WithIdleFlush(d time.Duration) Option { return func(o *Options) { o.IdleFlush = d } }

// WithContext ties the streamer's lifetime to ctx: cancellation
// triggers the same graceful drain as Close.
func WithContext(ctx context.Context) Option { return func(o *Options) { o.ctx = ctx } }

// WithStateDir enables crash-safe snapshots + WAL in dir (empty
// disables persistence).
func WithStateDir(dir string) Option { return func(o *Options) { o.StateDir = dir } }

// WithSnapshotEvery sets the snapshot period (default 30s).
func WithSnapshotEvery(d time.Duration) Option { return func(o *Options) { o.SnapshotEvery = d } }

// WithWALSyncEvery sets the WAL fsync cadence in records (default 64).
func WithWALSyncEvery(n int) Option { return func(o *Options) { o.WALSyncEvery = n } }

// WithMaxEventRetries sets how many panics one event may cause before
// it is quarantined (default 3).
func WithMaxEventRetries(n int) Option { return func(o *Options) { o.MaxEventRetries = n } }

// WithRestartBackoff sets the base shard-restart backoff (default
// 10ms).
func WithRestartBackoff(d time.Duration) Option { return func(o *Options) { o.RestartBackoff = d } }

// WithMaxConns caps concurrent ServeLines connections (default 256).
func WithMaxConns(n int) Option { return func(o *Options) { o.MaxConns = n } }

// WithConnIdleTimeout drops silent ServeLines connections (default 5m,
// 0 disables).
func WithConnIdleTimeout(d time.Duration) Option { return func(o *Options) { o.ConnIdleTimeout = d } }

// WithMaxBodyBytes bounds one HTTP ingest body (default 8 MiB).
func WithMaxBodyBytes(n int64) Option { return func(o *Options) { o.MaxBodyBytes = n } }

// WithAllowedLateness sets the event-time disorder window (0 disables
// reorder buffering).
func WithAllowedLateness(d time.Duration) Option { return func(o *Options) { o.AllowedLateness = d } }

// WithReorderDepth bounds each node's reorder buffer (default 512).
func WithReorderDepth(n int) Option { return func(o *Options) { o.ReorderDepth = n } }

// WithLatePolicy selects the fate of events behind the watermark
// (default LateFeed).
func WithLatePolicy(p LatePolicy) Option { return func(o *Options) { o.LatePolicy = p } }

// WithDedupWindow sets the per-node duplicate-suppression ring size
// (default 0 = off).
func WithDedupWindow(n int) Option { return func(o *Options) { o.DedupWindow = n } }

// WithSkewTolerance quarantines events that lead the local clock by
// more than d (default 0 = off).
func WithSkewTolerance(d time.Duration) Option { return func(o *Options) { o.SkewTolerance = d } }

// WithMicroBatch caps the events one shard wakeup coalesces (1 means
// one event per wakeup; default 32, max 256).
func WithMicroBatch(n int) Option { return func(o *Options) { o.MicroBatch = n } }

// WithPrecision sets the serving numeric path (core.PrecisionF64 or
// core.PrecisionF32).
func WithPrecision(p core.Precision) Option { return func(o *Options) { o.Precision = p } }

// WithShedPolicy enables graceful overload degradation (default
// ShedOff).
func WithShedPolicy(p ShedPolicy) Option { return func(o *Options) { o.ShedPolicy = p } }

// WithDiag installs a Printf-style sink for one-line operational
// diagnostics (nil = silent).
func WithDiag(fn func(format string, args ...any)) Option {
	return func(o *Options) { o.Diag = fn }
}

// withShedTuning overrides the shedding controller's tick/threshold
// parameters (test-only).
func withShedTuning(t shedTuning) Option { return func(o *Options) { o.shedTun = t } }

// withProcessDelay stalls every processed event (test-only: forces
// queue pressure).
func withProcessDelay(d time.Duration) Option { return func(o *Options) { o.processDelay = d } }

// withFS overrides the persistence filesystem (crash-test seam).
func withFS(fsys faultfs.FS) Option { return func(o *Options) { o.fsys = fsys } }

// withPanicHook installs the shard panic-injection seam (test-only).
func withPanicHook(fn func(int, logparse.EncodedEvent)) Option {
	return func(o *Options) { o.panicHook = fn }
}

// withSwapHook installs the SwapModel kill-point seam (test-only).
func withSwapHook(fn func(SwapStage) bool) Option {
	return func(o *Options) { o.swapHook = fn }
}

func defaultOptions() Options {
	return Options{
		Shards:          runtime.GOMAXPROCS(0),
		QueueDepth:      1024,
		Policy:          Block,
		AlertBuffer:     256,
		QuietPeriod:     2 * time.Minute,
		MaxOpenWindow:   4096,
		SnapshotEvery:   30 * time.Second,
		WALSyncEvery:    64,
		MaxEventRetries: 3,
		RestartBackoff:  10 * time.Millisecond,
		MaxConns:        256,
		ConnIdleTimeout: 5 * time.Minute,
		MaxBodyBytes:    8 << 20,
		ReorderDepth:    512,
		MicroBatch:      32,
		shedTun: shedTuning{
			period:        time.Second,
			hold:          5,
			high:          0.75,
			low:           0.25,
			latencyBudget: 50 * time.Millisecond,
		},
	}
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
	// replaying is true only inside New's single-threaded WAL replay;
	// emit consults the alert ledger while it is set.
	replaying bool
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

	// Cluster handoff state (guarded by mu). handoff is the outbound
	// intent between its two commit points; frozen rejects ingest for
	// ranges mid-handoff; recEpoch is the newest ownership record boot
	// replay surfaced.
	handoff  *handoffIntent
	frozen   []persist.HashRange
	recEpoch *persist.EpochRecord

	// Coordinator-election state (guarded by mu). recLease/recView are
	// the newest lease and cluster-view records boot replay surfaced;
	// imports remembers every (epoch, source) handoff this instance has
	// durably imported (RecHandoffIn), so a successor coordinator can
	// resolve a crashed predecessor's pending intent by asking the
	// target "did epoch E from source S commit on you?". Keyed by both
	// because one rebalance hands off from several sources under one
	// epoch — a bare epoch would let one source's commit falsely
	// confirm another's.
	recLease *persist.LeaseRecord
	recView  *persist.ViewRecord
	imports  map[importKey]bool

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
	if opts.Shards < 1 {
		return nil, fmt.Errorf("stream: Shards must be >= 1, got %d", opts.Shards)
	}
	if opts.QueueDepth < 1 {
		return nil, fmt.Errorf("stream: QueueDepth must be >= 1, got %d", opts.QueueDepth)
	}
	if opts.AlertBuffer < 1 {
		return nil, fmt.Errorf("stream: AlertBuffer must be >= 1, got %d", opts.AlertBuffer)
	}
	if opts.QuietPeriod < 0 || opts.IdleFlush < 0 || opts.MaxOpenWindow < 0 {
		return nil, fmt.Errorf("stream: negative duration or window option")
	}
	if opts.SnapshotEvery <= 0 || opts.MaxEventRetries < 1 || opts.RestartBackoff <= 0 ||
		opts.MaxConns < 1 || opts.ConnIdleTimeout < 0 || opts.MaxBodyBytes < 1 {
		return nil, fmt.Errorf("stream: non-positive robustness option")
	}
	if opts.AllowedLateness < 0 || opts.SkewTolerance < 0 || opts.DedupWindow < 0 {
		return nil, fmt.Errorf("stream: negative event-time option")
	}
	if opts.ReorderDepth < 1 {
		return nil, fmt.Errorf("stream: ReorderDepth must be >= 1, got %d", opts.ReorderDepth)
	}
	if opts.MicroBatch < 1 || opts.MicroBatch > maxMicroBatch {
		return nil, fmt.Errorf("stream: MicroBatch must be in [1,%d], got %d", maxMicroBatch, opts.MicroBatch)
	}
	if opts.LatePolicy != LateFeed && opts.LatePolicy != LateDrop {
		return nil, fmt.Errorf("stream: unknown LatePolicy %d", opts.LatePolicy)
	}
	if opts.ShedPolicy != ShedOff && opts.ShedPolicy != ShedDegrade {
		return nil, fmt.Errorf("stream: unknown ShedPolicy %d", opts.ShedPolicy)
	}
	if opts.Precision != core.PrecisionF64 && opts.Precision != core.PrecisionF32 {
		return nil, fmt.Errorf("stream: unknown Precision %d", opts.Precision)
	}
	chainCfg := p.Config().ChainCfg
	if opts.MaxOpenWindow > 0 && opts.MaxOpenWindow < chainCfg.MinLen {
		return nil, fmt.Errorf("stream: MaxOpenWindow %d below chain MinLen %d", opts.MaxOpenWindow, chainCfg.MinLen)
	}
	s := &Streamer{
		p:       p,
		opts:    opts,
		lab:     p.Labeler(),
		enc:     p.Encoder(),
		refIDs:  make([]atomic.Int32, len(catalog.Catalog)),
		epoch:   time.Now(),
		alerts:  make(chan Alert, opts.AlertBuffer),
		done:    make(chan struct{}),
		imports: make(map[importKey]bool),
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
		s.bgWG.Add(1)
		go s.idleFlushLoop()
	}
	if s.pst != nil {
		s.bgWG.Add(1)
		go s.snapshotLoop()
	}
	if s.shed != nil {
		s.bgWG.Add(1)
		go s.shed.run()
	}
	if opts.ctx != nil {
		ctx := opts.ctx
		// Deliberately not in bgWG: this goroutine calls Close, which
		// waits on bgWG — tracking it there would deadlock. It always
		// exits once done closes, whichever path closed it.
		go func() {
			select {
			case <-ctx.Done():
				_ = s.Close()
			case <-s.done:
			}
		}()
	}
	return s, nil
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

// SnapshotMetrics captures the counters plus per-shard queue depths.
func (s *Streamer) SnapshotMetrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		Ingested:             s.met.Ingested.Load(),
		Malformed:            s.met.Malformed.Load(),
		SafeFiltered:         s.met.SafeFiltered.Load(),
		Dropped:              s.met.Dropped.Load(),
		ChainsOpen:           s.met.ChainsOpen.Load(),
		ChainsClosed:         s.met.ChainsClosed.Load(),
		WindowEvicted:        s.met.WindowEvicted.Load(),
		AlertsFired:          s.met.AlertsFired.Load(),
		AlertsSuppressed:     s.met.AlertsSuppressed.Load(),
		AlertsDropped:        s.met.AlertsDropped.Load(),
		Processed:            s.met.Processed.Load(),
		Oversized:            s.met.Oversized.Load(),
		Quarantined:          s.met.Quarantined.Load(),
		ShardRestarts:        s.met.ShardRestarts.Load(),
		Snapshots:            s.met.Snapshots.Load(),
		SnapshotErrors:       s.met.SnapshotErrors.Load(),
		WALErrors:            s.met.WALErrors.Load(),
		WALBatchAppends:      s.met.WALBatchAppends.Load(),
		ReplayedEvents:       s.met.ReplayedEvents.Load(),
		ReplaySuppressed:     s.met.ReplaySuppressed.Load(),
		ConnRejected:         s.met.ConnRejected.Load(),
		UnseenPhrases:        s.met.UnseenPhrases.Load(),
		Verdicts:             s.met.Verdicts.Load(),
		DriftScore:           float64(s.met.DriftScoreMilli.Load()) / 1000,
		Retrains:             s.met.Retrains.Load(),
		RetrainFailures:      s.met.RetrainFailures.Load(),
		ShadowScored:         s.met.ShadowScored.Load(),
		ShadowDropped:        s.met.ShadowDropped.Load(),
		ShadowAccepted:       s.met.ShadowAccepted.Load(),
		ShadowRejected:       s.met.ShadowRejected.Load(),
		Swaps:                s.met.Swaps.Load(),
		SwapErrors:           s.met.SwapErrors.Load(),
		HandoffsStarted:      s.met.HandoffsStarted.Load(),
		HandoffsCompleted:    s.met.HandoffsCompleted.Load(),
		HandoffsAborted:      s.met.HandoffsAborted.Load(),
		HandoffImports:       s.met.HandoffImports.Load(),
		HandoffNodesIn:       s.met.HandoffNodesIn.Load(),
		HandoffNodesOut:      s.met.HandoffNodesOut.Load(),
		Late:                 s.met.Late.Load(),
		LateDropped:          s.met.LateDropped.Load(),
		LateClamped:          s.met.LateClamped.Load(),
		Duplicates:           s.met.Duplicates.Load(),
		SkewQuarantined:      s.met.SkewQuarantined.Load(),
		Shed:                 s.met.Shed.Load(),
		ShedLevel:            s.met.ShedLevel.Load(),
		ShedLevelMax:         s.met.ShedLevelMax.Load(),
		ReorderOverflow:      s.met.ReorderOverflow.Load(),
		BatchWakeups:         s.met.BatchWakeups.Load(),
		BatchedDetects:       s.met.BatchedDetects.Load(),
		ModelPrecision:       s.opts.Precision.String(),
		GateKernel:           s.opts.Precision.GateKernel(),
		ActivationKernel:     s.opts.Precision.ActivationKernel(),
		PrecisionConversions: s.met.PrecisionConversions.Load(),
		Detect:               s.met.Detect.Snapshot(),
	}
	if snap.BatchWakeups > 0 {
		snap.BatchOccupancy = float64(s.met.BatchEvents.Load()) / float64(snap.BatchWakeups)
	}
	if snap.Verdicts > 0 {
		snap.VerdictMSEMean = float64(s.met.VerdictMSEMicros.Load()) / 1e6 / float64(snap.Verdicts)
	}
	if n := s.met.LeadErrCount.Load(); n > 0 {
		snap.LeadErrMeanSeconds = float64(s.met.LeadErrMillis.Load()) / 1e3 / float64(n)
	}
	snap.QueueDepths = make([]int, len(s.shards))
	snap.Watermarks = make([]int64, len(s.shards))
	var eff int64
	if s.et != nil {
		eff = s.et.effLateNs.Load()
	}
	for i, sh := range s.shards {
		snap.QueueDepths[i] = len(sh.ch)
		snap.ReorderPending += sh.pending.Load()
		// The shard's watermark: max seen event time minus the effective
		// allowed lateness (0 until the shard has seen an event).
		if wm := sh.wmNano.Load(); wm > 0 {
			snap.Watermarks[i] = wm - eff
		}
	}
	return snap
}

// IngestLine parses one raw log line and routes it. Malformed lines are
// counted and reported but do not affect streamer state. Blank lines
// are ignored.
func (s *Streamer) IngestLine(line string) error {
	if logparse.IsBlank(line) {
		return nil
	}
	ev, err := logparse.ParseLine(line)
	if err != nil {
		s.met.Malformed.Add(1)
		return err
	}
	return s.IngestEvent(ev)
}

// IngestEvent routes one parsed event to its node's shard: an
// IngestBatch of one.
func (s *Streamer) IngestEvent(ev logparse.Event) error {
	one := [1]Admission{{Event: ev}}
	if err := s.IngestBatch(one[:]); err != nil {
		return err
	}
	if one[0].Refused {
		return ErrFrozen
	}
	return nil
}

// Admission is one event of an IngestBatch. Its detect latency is
// measured from the batch's admission, not from its own turn in the
// batch (see IngestBatch).
type Admission struct {
	Event logparse.Event
	// Record, when set, is the event's persist.EncodeEvent payload as it
	// arrived off the wire: the WAL takes these bytes as they are instead
	// of encoding the event again. It is read only during the call.
	Record []byte
	// Refused withholds the event when the caller sets it (a node the
	// cluster instance does not own), and is set by IngestBatch on an
	// event whose range is frozen mid-handoff. Either way the event was
	// neither counted nor journaled.
	Refused bool
	// admitted marks an event that passed every ingest filter.
	admitted bool
}

// IngestBatch admits a batch of parsed events as one unit: the ingest
// filters run per event, every admitted event is then journaled by a
// single WAL write, and only after that write has reached the OS is the
// first of them queued for its shard. A caller that acknowledges the
// batch after IngestBatch returns therefore never acknowledges an event
// a process kill could lose.
//
// Every event of a batch carries one enqueue stamp, a single monotonic
// reading taken at the batch's admission: the detect-latency histogram
// (detect_latency in /metrics) is anchored there and includes the time
// an event spent behind the batch's WAL write and, under the Block
// policy, behind the events queued ahead of it. The wall clock is read
// only when a skew tolerance is set, once per call, for the skew guard.
func (s *Streamer) IngestBatch(batch []Admission) error {
	// The RLock pins "not closed" for the duration of the call: Close
	// takes the write lock, so it cannot close the shard channels while
	// any send is in flight — which is what makes "every event counted
	// in Ingested is processed" an exact invariant.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	// The skew guard's wall-clock reading, taken when the first non-Safe
	// event of the call needs it.
	var now time.Time
	admitted := 0
	for i := range batch {
		a := &batch[i]
		a.admitted = false
		if a.Refused {
			continue
		}
		// A range frozen mid-handoff rejects before anything is counted or
		// journaled: the router respools the event for the new owner, so
		// accepting it here would double-deliver.
		if fr := s.frozen; len(fr) > 0 && persist.RangesContain(fr, persist.NodeHash(a.Event.Node)) {
			a.Refused = true
			continue
		}
		s.met.Ingested.Add(1)
		// The §3.1 Safe filter runs before the queue so bursts of benign
		// chatter never consume queue slots or shard time.
		if s.lab.LabelOf(a.Event) == catalog.Safe {
			s.met.SafeFiltered.Add(1)
			continue
		}
		// Skew guard: a timestamp leading the local clock beyond tolerance
		// would poison the node's watermark (every honest event after it
		// turns late), so it is quarantined here — before the WAL append, so
		// replay never resurrects it and recovery stays deterministic.
		if tol := s.opts.SkewTolerance; tol > 0 {
			if now.IsZero() {
				now = time.Now()
			}
			if a.Event.Time.After(now.Add(tol)) {
				s.met.SkewQuarantined.Add(1)
				s.skewDiag(a.Event, tol)
				continue
			}
		}
		// Degradation levels >= 2 shed at ingest, also before the WAL append:
		// shed events are never durable, so crash replay sees exactly the
		// admitted stream.
		if s.shed != nil && !s.shed.admit(a.Event) {
			s.met.Shed.Add(1)
			continue
		}
		a.admitted = true
		admitted++
	}
	if admitted == 0 {
		return nil
	}
	// The enqueue stamp anchors the detect-latency histogram: observed at
	// verdict time, it measures queue wait + processing + any batched
	// scoring the event waited on — the latency a subscriber experiences.
	at := time.Since(s.epoch)
	// Write-ahead: the events are durable before any is queued, so a crash
	// between here and processing replays them. A failed append degrades
	// to in-memory operation for this batch (alerting now beats
	// durability later) and is counted.
	if s.pst != nil {
		s.pst.appendEvents(s, batch, admitted)
	}
	for i := range batch {
		if !batch[i].admitted {
			continue
		}
		ev := batch[i].Event
		enc := logparse.EncodedEvent{Event: ev, ID: s.encodeEvent(ev)}
		// Drift tap: a phrase id at or beyond the active model's training
		// vocabulary is a phrase the model has never seen.
		if int64(enc.ID) >= s.vocabN.Load() {
			s.met.UnseenPhrases.Add(1)
		}
		msg := shardMsg{ev: enc, at: at}
		sh := s.shards[s.shardOf(ev.Node)]
		if s.opts.Policy == Block {
			sh.ch <- msg
			continue
		}
		select {
		case sh.ch <- msg:
		default:
			s.met.Dropped.Add(1)
		}
	}
	return nil
}

// Close stops ingest, drains every shard queue, flushes open episodes
// (scoring them as end-of-stream candidates, exactly like the batch
// path's final flush), closes the Alerts channel and returns. It is
// idempotent; concurrent ingest calls return ErrClosed.
func (s *Streamer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.wg.Wait()
	s.bgWG.Wait()
	close(s.alerts)
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

// diagf forwards one operational diagnostic line to the Diag sink.
func (s *Streamer) diagf(format string, args ...any) {
	if s.opts.Diag != nil {
		s.opts.Diag(format, args...)
	}
}

// skewDiag emits at most one quarantine diagnostic per second — a storm
// of skewed events from one broken producer must not flood the sink.
func (s *Streamer) skewDiag(ev logparse.Event, tol time.Duration) {
	now := time.Now().UnixNano()
	last := s.lastSkewDiag.Load()
	if now-last < int64(time.Second) || !s.lastSkewDiag.CompareAndSwap(last, now) {
		return
	}
	s.diagf("stream: quarantined event from %s: timestamp %s leads local clock beyond tolerance %s",
		ev.Node, ev.Time.Format(logparse.TimeLayout), tol)
}

// encodeEvent is encodeKey(ev.Key), hashing the key only the first time
// a catalog entry is seen; an event with no ref always takes the key path.
func (s *Streamer) encodeEvent(ev logparse.Event) int {
	ref := ev.Ref()
	if ref == 0 {
		return s.encodeKey(ev.Key)
	}
	slot := &s.refIDs[ref-1]
	if id := slot.Load(); id != 0 {
		return int(id - 1)
	}
	id := s.encodeKey(ev.Key)
	slot.Store(int32(id + 1))
	return id
}

// encodeKey assigns or looks up the phrase id for key. The encoder is
// shared with the pipeline, so assignment takes a write lock; the hot
// path (known phrase) is a read lock. A freshly assigned key is also
// registered as a catalog runtime extension, so the labeler and the
// continuous-learning loop see the live vocabulary.
func (s *Streamer) encodeKey(key string) int {
	s.encMu.RLock()
	id, ok := s.enc.Lookup(key)
	s.encMu.RUnlock()
	if ok {
		return id
	}
	s.encMu.Lock()
	n := s.enc.Len()
	id = s.enc.Encode(key)
	fresh := id >= n
	s.encMu.Unlock()
	if fresh {
		catalog.Extend(key, catalog.Unknown)
	}
	return id
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

func (s *Streamer) shardOf(node string) int {
	return int(persist.NodeHash(node) % uint32(len(s.shards)))
}

func (s *Streamer) idleFlushLoop() {
	defer s.bgWG.Done()
	period := s.opts.IdleFlush / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case now := <-t.C:
			for _, sh := range s.shards {
				select {
				case sh.flushC <- now:
				default: // shard busy; next tick will retry
				}
			}
		}
	}
}

// shardMsg is one unit of shard work: an event to process, or — when
// snap is non-nil — a snapshot barrier. Barriers ride the same FIFO
// queue as events, which is what makes a captured state consistent
// with a WAL boundary: every event appended before the boundary is
// ahead of the barrier in the queue, every later one behind it.
type shardMsg struct {
	ev logparse.EncodedEvent
	// at is the enqueue stamp, monotonic time since the streamer's epoch,
	// observed into the Detect histogram once the event's verdicts are out.
	at   time.Duration
	snap chan<- map[string]persistedNode
	// swap is a model-swap barrier: the shard rebuilds its detector
	// from the new pipeline at this exact queue position, so every
	// event ahead of the barrier scores on the old model and every one
	// behind it on the new — the same FIFO argument snapshots use.
	swap *swapBarrier
	// drop and imp are handoff barriers: drop deletes an outbound
	// range's state at its queue position (CompleteHandoff), imp
	// installs an inbound range and replays its pending tail
	// (ImportState). Same FIFO discipline as snap and swap.
	drop *dropBarrier
	imp  *importBarrier
}

// isCtl reports whether m is a control barrier rather than an event.
func isCtl(m shardMsg) bool {
	return m.snap != nil || m.swap != nil || m.drop != nil || m.imp != nil
}

// shard owns a partition of the node space: its goroutine is the only
// one touching its trackers, detector and per-node alert state, so the
// hot path takes no locks.
type shard struct {
	s      *Streamer
	id     int
	ch     chan shardMsg
	flushC chan time.Time // nil unless IdleFlush is enabled
	det    *core.Detector
	nodes  map[string]*nodeState

	// pending gauges this shard's total reorder-buffered events and
	// wmNano its max seen event timestamp — atomics because
	// SnapshotMetrics reads them from outside the shard goroutine.
	pending atomic.Int64
	wmNano  atomic.Int64

	// Supervisor state, touched only by the shard goroutine and its
	// restart bookkeeping.
	inflight    logparse.EncodedEvent
	hasInflight bool
	retry       bool // reprocess inflight on restart
	restarts    int  // consecutive restarts, resets on progress
	poisonKey   string
	poisonCount int
	rng         *rand.Rand

	// Micro-batch state, shard-goroutine only. buf holds the messages
	// drained by the current wakeup and bufNext the next unprocessed
	// index, so a mid-batch panic restart resumes the tail instead of
	// dropping drained events; pend holds the chains those events closed,
	// awaiting one batched scoring pass; pendTries counts consecutive
	// restarts whose panic came from scoring pend itself. chbuf and verd
	// are the grow-only DetectBatch scratch.
	buf       []shardMsg
	bufNext   int
	pend      []pendChain
	pendTries int
	chbuf     []chain.Chain
	verd      []core.Verdict

	// rel is the event-time release scratch, lent to a node's reorder
	// buffer for one add and drained by handleEventTime before the next.
	rel []logparse.EncodedEvent

	// imp is non-nil only while this shard replays an imported range's
	// pending tail inside an import barrier: emit consults its shared
	// ledger to suppress alerts the handoff source already delivered.
	imp *importBarrier
}

// pendChain is one closed chain awaiting batched scoring, paired with
// the node state its alert (if any) must run through.
type pendChain struct {
	ns *nodeState
	c  chain.Chain
}

// run is the shard supervisor: it re-enters the processing loop after
// every recovered panic with exponential backoff + jitter, retries the
// in-flight event up to MaxEventRetries before quarantining it, and
// only drains (flushes open episodes) on a graceful close.
func (sh *shard) run() {
	defer sh.s.wg.Done()
	for sh.runLoop() {
		sh.backoff()
	}
	if !sh.s.crashed.Load() {
		sh.drain()
	}
}

// runLoop processes messages until the queue closes (returns false) or
// a panic escapes an event (returns true: restart wanted). The panic
// is recovered here — one poisoned event never takes down the daemon —
// and attributed to the in-flight event for quarantine accounting.
func (sh *shard) runLoop() (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			sh.s.met.ShardRestarts.Add(1)
			sh.restarts++
			sh.notePanic()
		}
	}()
	if sh.retry {
		sh.retry = false
		sh.process(sh.inflight, time.Now())
	}
	// Finish any micro-batch a panic interrupted before taking new work:
	// its drained events and deferred chains precede everything still in
	// the queue.
	sh.resumeBatch()
	if sh.flushC == nil {
		for m := range sh.ch {
			if sh.s.crashed.Load() {
				return false
			}
			sh.dispatch(m)
		}
		return false
	}
	for {
		select {
		case m, ok := <-sh.ch:
			if !ok || sh.s.crashed.Load() {
				return false
			}
			sh.dispatch(m)
		case now := <-sh.flushC:
			sh.idleFlush(now)
		}
	}
}

// dispatch handles one shard wakeup. A snapshot barrier is answered
// immediately. An event opens a micro-batch: up to MicroBatch-1 more
// already-queued events are drained without ever waiting — the batch is
// whatever backlog exists, so an idle shard keeps per-event latency —
// then every drained event runs through the tracker with closed-chain
// judging deferred, and the deferred chains score as one batched pass.
func (sh *shard) dispatch(m shardMsg) {
	if isCtl(m) {
		sh.applyCtl(m)
		return
	}
	sh.buf = append(sh.buf[:0], m)
	sh.bufNext = 0
	var ctl shardMsg
	var hasCtl bool
drain:
	for len(sh.buf) < sh.s.opts.MicroBatch {
		select {
		case m2, ok := <-sh.ch:
			if !ok {
				break drain
			}
			if sh.s.crashed.Load() {
				// Simulated SIGKILL: abandon the batch mid-queue, exactly
				// like the per-event loop abandons its current message.
				// The WAL holds every abandoned event.
				sh.buf = sh.buf[:0]
				return
			}
			if isCtl(m2) {
				// A barrier must observe every event ahead of it in the
				// queue, so it is answered after the batch flushes.
				ctl, hasCtl = m2, true
				break drain
			}
			sh.buf = append(sh.buf, m2)
		default:
			break drain
		}
	}
	sh.processBatch()
	if hasCtl {
		sh.applyCtl(ctl)
	}
}

// applyCtl answers one control barrier on the shard goroutine.
func (sh *shard) applyCtl(m shardMsg) {
	switch {
	case m.snap != nil:
		m.snap <- sh.capture()
	case m.swap != nil:
		sh.applySwap(m.swap)
	case m.drop != nil:
		sh.applyDrop(m.drop)
	case m.imp != nil:
		sh.applyImport(m.imp)
	}
}

// processBatch runs the unprocessed tail of the drained micro-batch,
// then scores the deferred chains and stamps the batch's metrics. The
// wall clock is read once per wakeup: it only feeds the idle-flush
// clock, whose granularity is seconds.
func (sh *shard) processBatch() {
	now := time.Now()
	for sh.bufNext < len(sh.buf) {
		ev := sh.buf[sh.bufNext].ev
		sh.bufNext++
		sh.process(ev, now)
	}
	sh.flushPending()
	sh.observeBatch()
}

// resumeBatch finishes a micro-batch a panic interrupted. When the
// panic came from scoring the deferred chains themselves (every drained
// event already processed), the batch is dropped after MaxEventRetries
// attempts and counted as quarantined — a poisoned chain must not
// crash-loop the shard forever.
func (sh *shard) resumeBatch() {
	if sh.bufNext >= len(sh.buf) && len(sh.pend) > 0 {
		sh.pendTries++
		if sh.pendTries > sh.s.opts.MaxEventRetries {
			sh.s.met.Quarantined.Add(int64(len(sh.pend)))
			sh.pend = sh.pend[:0]
		}
	}
	sh.processBatch()
	sh.pendTries = 0
}

// process runs one event through the shard with crash attribution; now
// is the arrival time handle stamps on the event's node.
func (sh *shard) process(ev logparse.EncodedEvent, now time.Time) {
	sh.inflight = ev
	sh.hasInflight = true
	if hook := sh.s.opts.panicHook; hook != nil {
		hook(sh.id, ev)
	}
	if d := sh.s.opts.processDelay; d > 0 {
		time.Sleep(d)
	}
	sh.handle(ev, now)
	sh.hasInflight = false
	sh.restarts = 0
	sh.s.met.Processed.Add(1)
}

// notePanic attributes a recovered panic to the in-flight event and
// decides between retry and quarantine.
func (sh *shard) notePanic() {
	if !sh.hasInflight {
		// Panic outside event processing (barrier/flush); nothing to
		// retry.
		return
	}
	sh.hasInflight = false
	key := quarantineKeyOf(sh.inflight)
	if key == sh.poisonKey {
		sh.poisonCount++
	} else {
		sh.poisonKey, sh.poisonCount = key, 1
	}
	if sh.poisonCount >= sh.s.opts.MaxEventRetries {
		sh.s.met.Quarantined.Add(1)
		if sh.s.pst != nil {
			sh.s.pst.appendQuarantine(sh.s, sh.inflight)
		}
		sh.poisonKey, sh.poisonCount = "", 0
		return
	}
	sh.retry = true
}

// backoff sleeps before a restart — capped exponential backoff with
// full jitter via the shared retry policy, cut short by shutdown. The
// shard keeps its own seeded source so restart timing stays
// deterministic per shard under test.
func (sh *shard) backoff() {
	if sh.rng == nil {
		sh.rng = rand.New(rand.NewSource(int64(sh.id)*7919 + 1))
	}
	p := retry.Policy{
		Base: sh.s.opts.RestartBackoff,
		Max:  time.Second,
		Rand: sh.rng.Int63n,
	}
	p.Wait(sh.s.done, sh.restarts-1)
}

// nodeState is one node's streaming state: its incremental chain
// tracker plus the alert-dedup state machine.
type nodeState struct {
	tracker *chain.Tracker
	// lastArrival is the wall-clock time the node's latest event was
	// processed — the idle-flush trigger.
	lastArrival time.Time
	// alerted/lastAlertAt implement the quiet-period dedup: after an
	// alert fires, further alerts are suppressed until the node's log
	// time advances past lastAlertAt+QuietPeriod (re-arming).
	alerted     bool
	lastAlertAt time.Time
	// openAlerted pins "exactly once per incident" for provisional
	// alerts: set when the open episode raises one, cleared when the
	// episode closes.
	openAlerted bool
	wasOpen     bool
	evicted     int64 // tracker.Dropped at last sync
	lateClamped int64 // tracker.LateClamped at last sync
	// et is the node's event-time state (nil when the layer is off).
	et *nodeEventTime
}

// state returns (building on demand) the node's streaming state.
func (sh *shard) state(node string) *nodeState {
	ns, ok := sh.nodes[node]
	if !ok {
		tr, err := chain.NewTracker(node, sh.s.lab, sh.s.p.Config().ChainCfg, sh.s.opts.MaxOpenWindow)
		if err != nil {
			// Config was validated in New; this cannot happen.
			panic(fmt.Sprintf("stream: tracker for %s: %v", node, err))
		}
		ns = &nodeState{tracker: tr}
		sh.nodes[node] = ns
	}
	return ns
}

// handle routes one dequeued event: straight to the tracker, or — with
// the event-time layer on — through dedup, the late check and the
// reorder buffer first. now is the wall-clock arrival time recorded as
// the node's proof of life (nodeState.lastArrival); a caller inside a
// shard wakeup passes the wakeup's one clock read.
func (sh *shard) handle(ev logparse.EncodedEvent, now time.Time) {
	ns := sh.state(ev.Node)
	if sh.s.et != nil {
		sh.handleEventTime(ns, ev, now)
		return
	}
	sh.feed(ns, ev, now)
}

// handleEventTime is the disorder-tolerant path. Order matters: dedup
// first (a re-delivered event must not re-enter the buffer), then the
// late check against the release cursor, then buffering + watermark
// release. The wall clock (now) only stamps lastArrival, so WAL replay
// of the same event sequence reconstructs identical buffer and cursor
// state.
func (sh *shard) handleEventTime(ns *nodeState, ev logparse.EncodedEvent, now time.Time) {
	et := sh.s.et
	if ns.et == nil {
		ns.et = &nodeEventTime{}
	}
	if ns.et.dup(ev, et.dedupN) {
		sh.s.met.Duplicates.Add(1)
		return
	}
	if ev.Time.Before(ns.et.released) {
		sh.s.met.Late.Add(1)
		if et.policy == LateDrop {
			sh.s.met.LateDropped.Add(1)
			return
		}
		sh.feed(ns, ev, now) // the tracker clamps the stale timestamp forward
		return
	}
	ns.et.rel = sh.rel
	out, overflow := ns.et.add(ev, et.effective(), et.depth)
	sh.rel, ns.et.rel = out, nil // keep what add grew; every feed below is done before the next add
	if overflow > 0 {
		sh.s.met.ReorderOverflow.Add(int64(overflow))
	}
	sh.pending.Add(1 - int64(len(out)))
	if ts := ns.et.maxSeen.UnixNano(); ts > sh.wmNano.Load() {
		sh.wmNano.Store(ts)
	}
	for _, rel := range out {
		sh.feed(ns, rel, now)
	}
	if len(out) == 0 {
		// The event only parked in the buffer; still proof of life for
		// the idle-flush clock.
		ns.lastArrival = now
	}
}

// feed runs one release-ordered event through the chain tracker and the
// detection path — the pre-event-time handle body.
func (sh *shard) feed(ns *nodeState, ev logparse.EncodedEvent, now time.Time) {
	closed, err := ns.tracker.Feed(ev)
	if err != nil {
		// Unreachable: events are routed to trackers by node.
		sh.s.met.Malformed.Add(1)
		return
	}
	for _, c := range closed {
		ns.openAlerted = false
		// Closed chains are judged at the end of the micro-batch, all in
		// one batched scoring pass. Safe to defer: the tracker copied the
		// chain's entries out of its mutable window.
		sh.pend = append(sh.pend, pendChain{ns: ns, c: c})
	}
	if d := ns.tracker.Dropped(); d != ns.evicted {
		sh.s.met.WindowEvicted.Add(d - ns.evicted)
		ns.evicted = d
	}
	if l := ns.tracker.LateClamped(); l != ns.lateClamped {
		sh.s.met.LateClamped.Add(l - ns.lateClamped)
		ns.lateClamped = l
	}
	sh.syncOpenGauge(ns)
	if sh.s.opts.EarlyDetect {
		// Provisional scoring feeds the same order-sensitive dedup machine
		// as closed-chain alerts, so the deferred chains must judge first —
		// early detection trades cross-event coalescing for immediacy.
		sh.flushPending()
	}
	if sh.s.opts.EarlyDetect && !ns.openAlerted {
		if c, ok := ns.tracker.OpenChain(); ok {
			if v := sh.det.Detect(c); v.Flagged {
				ns.openAlerted = true
				sh.emit(ns, Alert{
					Node:        c.Node,
					LeadSeconds: v.PredLeadSeconds,
					FlaggedAt:   ev.Time,
					MSE:         v.MinMSE,
					Provisional: true,
				})
			}
		}
	}
	ns.lastArrival = now
}

// emitVerdict converts a flagged closed-chain verdict into an alert.
func (sh *shard) emitVerdict(ns *nodeState, v core.Verdict) {
	if !v.Flagged {
		return
	}
	sh.emit(ns, Alert{
		Node:        v.Node,
		LeadSeconds: v.LeadSeconds,
		FlaggedAt:   v.AnchorTime,
		MSE:         v.MinMSE,
	})
}

// flushPending scores every chain the current micro-batch closed in one
// DetectBatch pass. A chain's verdict does not depend on what it is
// batched with, and emission order is append (= event) order, so batch
// boundaries are unobservable in the alert stream. The counters move
// only once the pass returns: a pass that panics is retried whole by
// resumeBatch and must not count its chains twice.
func (sh *shard) flushPending() {
	n := len(sh.pend)
	if n == 0 {
		return
	}
	sh.chbuf = sh.chbuf[:0]
	for _, pc := range sh.pend {
		sh.chbuf = append(sh.chbuf, pc.c)
	}
	if cap(sh.verd) < n {
		sh.verd = make([]core.Verdict, n)
	}
	vs := sh.verd[:n]
	sh.det.DetectBatch(sh.chbuf, vs)
	sh.s.met.ChainsClosed.Add(int64(n))
	if n > 1 {
		sh.s.met.BatchedDetects.Add(int64(n))
	}
	for i, pc := range sh.pend {
		sh.tapVerdict(vs[i])
		sh.emitVerdict(pc.ns, vs[i])
	}
	sh.pend = sh.pend[:0]
	sh.chbuf = sh.chbuf[:0]
}

// observeBatch stamps the wakeup's coalescing counters and the
// enqueue→verdict latency of every drained event — queue wait plus
// processing plus the batched scoring the event waited on, which is the
// latency a subscriber experiences and the signal the shed controller
// budgets against.
func (sh *shard) observeBatch() {
	if len(sh.buf) == 0 {
		return
	}
	sh.s.met.BatchWakeups.Add(1)
	sh.s.met.BatchEvents.Add(int64(len(sh.buf)))
	now := time.Since(sh.s.epoch)
	for i := range sh.buf {
		sh.s.met.Detect.Observe(now - sh.buf[i].at)
	}
	sh.buf = sh.buf[:0]
	sh.bufNext = 0
}

// emit runs the dedup state machine and delivers the alert without ever
// blocking the shard: a full subscriber channel drops the alert and
// counts it. During boot-time WAL replay, alerts the pre-crash process
// already delivered (per the WAL's alert ledger) update dedup state
// but are not re-delivered — that is what makes crash + recover emit
// each alert exactly once.
func (sh *shard) emit(ns *nodeState, a Alert) {
	q := sh.s.opts.QuietPeriod
	if q > 0 && ns.alerted && a.FlaggedAt.Sub(ns.lastAlertAt) < q {
		sh.s.met.AlertsSuppressed.Add(1)
		return
	}
	ns.alerted = true
	ns.lastAlertAt = a.FlaggedAt
	if sh.s.replaying && sh.s.pst != nil && sh.s.pst.ledgerTake(a) {
		sh.s.met.ReplaySuppressed.Add(1)
		return
	}
	// Inside an import barrier the shipped ledger plays the same role:
	// alerts the handoff source already delivered for the imported
	// range's pending tail are consumed, not re-fired.
	if sh.imp != nil && sh.imp.led.take(a) {
		sh.s.met.ReplaySuppressed.Add(1)
		return
	}
	sh.s.met.AlertsFired.Add(1)
	// The alert becomes durable before it is delivered: a crash between
	// the two loses it (at-most-once per alert), while the reverse
	// order would duplicate it on replay. Lost-on-that-exact-instant is
	// recoverable by the operator (the WAL holds the chain); a
	// duplicated page is not.
	if sh.s.pst != nil {
		sh.s.pst.appendAlert(sh.s, a)
	}
	select {
	case sh.s.alerts <- a:
	default:
		sh.s.met.AlertsDropped.Add(1)
	}
}

// capture snapshots every node this shard owns — called at a barrier,
// so the state is exactly the effect of all events before the
// snapshot's WAL boundary.
func (sh *shard) capture() map[string]persistedNode {
	out := make(map[string]persistedNode, len(sh.nodes))
	for node, ns := range sh.nodes {
		pn := persistedNode{
			Tracker:     ns.tracker.Snapshot(),
			Alerted:     ns.alerted,
			LastAlertAt: ns.lastAlertAt,
			OpenAlerted: ns.openAlerted,
		}
		if ns.et != nil {
			pn.Reorder = ns.et.sortedPending()
			pn.ETMaxSeen = ns.et.maxSeen
			pn.ETReleased = ns.et.released
			pn.Dedup = append([]dedupEntry(nil), ns.et.dedup...)
			pn.DedupPos = ns.et.dedupPos
		}
		out[node] = pn
	}
	return out
}

func (sh *shard) syncOpenGauge(ns *nodeState) {
	open := ns.tracker.OpenLen() > 0
	if open != ns.wasOpen {
		if open {
			sh.s.met.ChainsOpen.Add(1)
		} else {
			sh.s.met.ChainsOpen.Add(-1)
		}
		ns.wasOpen = open
	}
}

// idleFlush closes episodes on nodes that have been silent (in wall
// time) longer than IdleFlush — the path by which a node that dies
// without a terminal message still gets its final episode scored.
func (sh *shard) idleFlush(now time.Time) {
	for _, ns := range sh.nodes {
		if now.Sub(ns.lastArrival) < sh.s.opts.IdleFlush {
			continue
		}
		// A silent node's reorder buffer will never see a watermark
		// advance again; drain it into the tracker before flushing, so
		// the final episode includes its buffered tail. This is the one
		// wall-clock-driven release path, and it only exists when
		// IdleFlush is enabled — with it off, release is purely
		// event-driven and WAL replay is exact.
		sh.flushReorder(ns, now)
		// Feeding the buffered tail may have closed chains; they judge
		// ahead of the final episode, in append order.
		if ns.tracker.OpenLen() > 0 {
			ns.openAlerted = false
			if c, ok := ns.tracker.Flush(); ok {
				sh.pend = append(sh.pend, pendChain{ns: ns, c: c})
			}
			sh.syncOpenGauge(ns)
		}
		sh.flushPending()
	}
}

// flushReorder drains ns's reorder buffer (if any) into the tracker in
// release order.
func (sh *shard) flushReorder(ns *nodeState, now time.Time) {
	if ns.et == nil || ns.et.heap.len() == 0 {
		return
	}
	out := ns.et.flushAll()
	sh.pending.Add(-int64(len(out)))
	for _, ev := range out {
		sh.feed(ns, ev, now)
	}
}

// drain is the graceful-shutdown tail: the queue is already empty, so
// flush every open episode and score it, exactly like the batch path's
// end-of-input flush.
func (sh *shard) drain() {
	now := time.Now()
	for _, ns := range sh.nodes {
		sh.flushReorder(ns, now)
		// Chains closed by the buffered tail judge before the node's
		// final open episode: pend scores in append order.
		ns.openAlerted = false
		if c, ok := ns.tracker.Flush(); ok {
			sh.pend = append(sh.pend, pendChain{ns: ns, c: c})
		}
		sh.syncOpenGauge(ns)
		sh.flushPending()
	}
}
