package stream

import (
	"fmt"
	"runtime"
	"time"

	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/persist/faultfs"
)

// maxMicroBatch bounds Options.MicroBatch: past a few dozen rows a
// longer drain only adds head-of-line wait.
const maxMicroBatch = 256

// maxEventRetries is how many times a shard retries an event whose
// processing panicked before quarantining it as poisoned.
const maxEventRetries = 3

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
	// records (default 64). Every record reaches the OS before the
	// IngestLine, IngestEvent or IngestBatch call that admitted it
	// returns, and before IngestReader (stdin, TCP, the /ingest body)
	// asks its source for more, so a killed process loses nothing it was
	// done reading; an OS crash loses at most the last WALSyncEvery
	// records, rounded up to a whole write.
	WALSyncEvery int
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
	// MicroBatch caps how many queued events one shard wakeup takes
	// under one lock. Coalescing never waits on a timer — the batch is
	// whatever backlog exists at wakeup, so an idle shard keeps per-event
	// latency while a backlogged one amortizes the wakeup across the
	// burst. 1 means one event per wakeup. Default 32, max 256. Each
	// chain is scored as it closes, so batch boundaries are unobservable
	// in the alert stream.
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

	// Fixed values, fields only so that tests can shrink them (an Option
	// literal sets one): the base delay before a panicked shard restarts
	// (10ms; doubles per consecutive crash, jittered, capped at 1s, reset
	// by the first processed event), the ServeLines connection cap (256)
	// and silence limit (5m), the HTTP ingest body bound (8 MiB).
	restartBackoff  time.Duration
	maxConns        int
	connIdleTimeout time.Duration
	maxBodyBytes    int64
	// shedTun tunes the shedding controller (test seam; defaults in
	// defaultOptions).
	shedTun shedTuning
	// processDelay stalls every shard event by this much — the overload
	// test's way of forcing queue pressure deterministically.
	processDelay time.Duration
	// stampEvery is the enqueue stamp's sample rate: the stampEvery
	// constant (a test sets 1 to stamp every event).
	stampEvery int

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

// WithStateDir enables crash-safe snapshots + WAL in dir (empty
// disables persistence).
func WithStateDir(dir string) Option { return func(o *Options) { o.StateDir = dir } }

// WithSnapshotEvery sets the snapshot period (default 30s).
func WithSnapshotEvery(d time.Duration) Option { return func(o *Options) { o.SnapshotEvery = d } }

// WithWALSyncEvery sets the WAL fsync cadence in records (default 64).
func WithWALSyncEvery(n int) Option { return func(o *Options) { o.WALSyncEvery = n } }

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
		restartBackoff:  10 * time.Millisecond,
		maxConns:        256,
		connIdleTimeout: 5 * time.Minute,
		maxBodyBytes:    8 << 20,
		ReorderDepth:    512,
		MicroBatch:      32,
		stampEvery:      stampEvery,
		shedTun: shedTuning{
			period:        time.Second,
			hold:          5,
			high:          0.75,
			low:           0.25,
			latencyBudget: 50 * time.Millisecond,
		},
	}
}

// validate rejects option values New cannot serve under; p supplies the
// chain config MaxOpenWindow is checked against.
func (o *Options) validate(p *core.Pipeline) error {
	if o.Shards < 1 {
		return fmt.Errorf("stream: Shards must be >= 1, got %d", o.Shards)
	}
	if o.QueueDepth < 1 {
		return fmt.Errorf("stream: QueueDepth must be >= 1, got %d", o.QueueDepth)
	}
	if o.AlertBuffer < 1 {
		return fmt.Errorf("stream: AlertBuffer must be >= 1, got %d", o.AlertBuffer)
	}
	if o.QuietPeriod < 0 || o.IdleFlush < 0 || o.MaxOpenWindow < 0 {
		return fmt.Errorf("stream: negative duration or window option")
	}
	if o.SnapshotEvery <= 0 {
		return fmt.Errorf("stream: SnapshotEvery must be positive, got %s", o.SnapshotEvery)
	}
	if o.AllowedLateness < 0 || o.SkewTolerance < 0 || o.DedupWindow < 0 {
		return fmt.Errorf("stream: negative event-time option")
	}
	if o.ReorderDepth < 1 {
		return fmt.Errorf("stream: ReorderDepth must be >= 1, got %d", o.ReorderDepth)
	}
	if o.MicroBatch < 1 || o.MicroBatch > maxMicroBatch {
		return fmt.Errorf("stream: MicroBatch must be in [1,%d], got %d", maxMicroBatch, o.MicroBatch)
	}
	if o.LatePolicy != LateFeed && o.LatePolicy != LateDrop {
		return fmt.Errorf("stream: unknown LatePolicy %d", o.LatePolicy)
	}
	if o.ShedPolicy != ShedOff && o.ShedPolicy != ShedDegrade {
		return fmt.Errorf("stream: unknown ShedPolicy %d", o.ShedPolicy)
	}
	if o.Precision != core.PrecisionF64 && o.Precision != core.PrecisionF32 {
		return fmt.Errorf("stream: unknown Precision %d", o.Precision)
	}
	if minLen := p.Config().ChainCfg.MinLen; o.MaxOpenWindow > 0 && o.MaxOpenWindow < minLen {
		return fmt.Errorf("stream: MaxOpenWindow %d below chain MinLen %d", o.MaxOpenWindow, minLen)
	}
	return nil
}
