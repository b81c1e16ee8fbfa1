package desh

import (
	"time"

	"desh/internal/core"
	"desh/internal/logsim"
	"desh/internal/stream"
)

// ErrStreamClosed is returned by a Streamer's ingest entry points after
// Close (or after its context is canceled).
var ErrStreamClosed = stream.ErrClosed

// NodeLocation decodes a Cray node id (cA-BcCsSnN) into its spelled-out
// cabinet/chassis/blade/node location, or "unknown location" when the
// id does not parse — the streaming counterpart of Prediction.Location.
func NodeLocation(node string) string {
	loc, err := logsim.Location(node)
	if err != nil {
		return "unknown location"
	}
	return loc
}

// Streamer is the online inference engine: it ingests raw log lines
// incrementally, maintains per-node failure-chain state across a shard
// pool, and emits Alerts on a subscriber channel — the serving-layer
// counterpart of the batch PredictFromReader. See NewStreamer.
type Streamer = stream.Streamer

// Alert is one live impending-failure warning from a Streamer.
type Alert = stream.Alert

// StreamOption tunes a Streamer (see the With* constructors).
type StreamOption = stream.Option

// StreamMetrics is a point-in-time view of a Streamer's counters.
type StreamMetrics = stream.MetricsSnapshot

// Queue-full policies for WithDropPolicy.
const (
	// StreamBlock applies backpressure on a full shard queue.
	StreamBlock = stream.Block
	// StreamDropNewest sheds the incoming event on a full shard queue.
	StreamDropNewest = stream.DropNewest
)

// Late-event policies for WithLatePolicy.
const (
	// StreamLateFeed feeds late events to the chain tracker anyway; the
	// tracker clamps their timestamp forward so ΔT never goes negative.
	StreamLateFeed = stream.LateFeed
	// StreamLateDrop discards events that miss their reorder window.
	StreamLateDrop = stream.LateDrop
)

// Overload policies for WithShedPolicy.
const (
	// StreamShedOff disables graceful degradation (default).
	StreamShedOff = stream.ShedOff
	// StreamShedDegrade enables the level-walking overload controller.
	StreamShedDegrade = stream.ShedDegrade
)

// NewStreamer turns a trained predictor into an online inference
// engine. Feed it lines (IngestLine, IngestReader, ServeLines or the
// HTTP ingest handler) and range over Alerts():
//
//	s, _ := desh.NewStreamer(p, desh.WithEarlyDetect(true))
//	go s.IngestReader(tail)
//	for a := range s.Alerts() {
//	    fmt.Printf("node %s predicted to fail in %.1f min\n", a.Node, a.LeadSeconds/60)
//	}
//
// The predictor's labeler and encoder are shared with the streamer and
// must not be mutated (Override, batch Predict/Train) while it runs.
// Close drains all ingested events and then closes the alert channel.
func NewStreamer(p *Predictor, opts ...StreamOption) (*Streamer, error) {
	return stream.New(p.pipeline, opts...)
}

// WithShards sets how many per-node state shards run inference
// concurrently (default GOMAXPROCS).
func WithShards(n int) StreamOption { return stream.WithShards(n) }

// WithQueueDepth bounds each shard's ingest queue (default 1024).
func WithQueueDepth(n int) StreamOption { return stream.WithQueueDepth(n) }

// WithDropPolicy selects the full-queue behavior: StreamBlock
// (backpressure, default) or StreamDropNewest (shed load, memory flat).
func WithDropPolicy(p stream.Policy) StreamOption { return stream.WithPolicy(p) }

// WithAlertBuffer sizes the alert subscriber channel (default 256).
func WithAlertBuffer(n int) StreamOption { return stream.WithAlertBuffer(n) }

// WithQuietPeriod suppresses repeat alerts per node until this much log
// time has passed (default 2m; 0 disables dedup).
func WithQuietPeriod(d time.Duration) StreamOption { return stream.WithQuietPeriod(d) }

// WithMaxOpenWindow bounds each node's open chain window (default 4096;
// 0 = unbounded, exact batch parity).
func WithMaxOpenWindow(n int) StreamOption { return stream.WithMaxOpenWindow(n) }

// WithEarlyDetect raises provisional alerts while a chain is still
// open — ahead of the node's terminal message — using the model's
// predicted lead time.
func WithEarlyDetect(on bool) StreamOption { return stream.WithEarlyDetect(on) }

// WithIdleFlush closes a node's open episode after d of wall-clock
// silence so a node that dies mid-chain still gets scored (0 disables).
func WithIdleFlush(d time.Duration) StreamOption { return stream.WithIdleFlush(d) }

// WithStateDir enables crash-safe operation: per-node state snapshots
// and a write-ahead log of ingested events live in dir, and NewStreamer
// recovers from them — restored open chains, alert-dedup state and a
// WAL tail replay — before accepting new events. Empty (the default)
// disables persistence.
func WithStateDir(dir string) StreamOption { return stream.WithStateDir(dir) }

// WithSnapshotEvery sets the period between state snapshots (default
// 30s). Between snapshots, recovery replays the WAL tail.
func WithSnapshotEvery(d time.Duration) StreamOption { return stream.WithSnapshotEvery(d) }

// WithWALSyncEvery sets the write-ahead log's fsync cadence in records
// (default 64): a killed process loses nothing, an OS crash loses at
// most this many events.
func WithWALSyncEvery(n int) StreamOption { return stream.WithWALSyncEvery(n) }

// WithAllowedLateness enables per-node event-time reordering: events
// buffer until the node's watermark (max seen timestamp minus d) passes
// them, so bounded arrival disorder is invisible to the ΔT math. 0 (the
// default) disables the reorder buffer.
func WithAllowedLateness(d time.Duration) StreamOption { return stream.WithAllowedLateness(d) }

// WithReorderDepth bounds each node's reorder buffer (default 512);
// when full, the earliest buffered event releases ahead of the
// watermark (counted in reorder_overflow).
func WithReorderDepth(n int) StreamOption { return stream.WithReorderDepth(n) }

// WithLatePolicy selects what happens to events that miss their reorder
// window: StreamLateFeed (default — fed with a clamped timestamp) or
// StreamLateDrop.
func WithLatePolicy(p stream.LatePolicy) StreamOption { return stream.WithLatePolicy(p) }

// WithDedupWindow suppresses re-delivered duplicates: each node
// remembers its last n accepted (timestamp, phrase) pairs and drops
// repeats — retried TCP batches fire each alert once. 0 (the default)
// disables dedup.
func WithDedupWindow(n int) StreamOption { return stream.WithDedupWindow(n) }

// WithSkewTolerance quarantines events whose timestamp leads the local
// clock by more than d — a node with a broken clock is counted and
// diagnosed, never crashed on or allowed to poison watermarks. 0 (the
// default) disables the guard.
func WithSkewTolerance(d time.Duration) StreamOption { return stream.WithSkewTolerance(d) }

// WithMicroBatch caps how many queued events one shard wakeup drains
// and scores together: chains closed during the drain are scored as
// one DetectBatch pass. There is no
// batching timer — the batch is whatever backlog exists at wakeup, so
// an idle shard keeps per-event latency. Per chain, batched verdicts
// are bit-identical to serial ones. 1 disables coalescing (default 32,
// max 256).
func WithMicroBatch(n int) StreamOption { return stream.WithMicroBatch(n) }

// Precision selects the serving numeric path of a Streamer. Training
// and model files are float64 regardless; PrecisionF32 converts the
// trained weights once per adopted model and scores through the float32
// kernels — half the model-resident bytes and wider SIMD, gated by
// alert equivalence rather than bitwise parity with the f64 path.
type Precision = core.Precision

const (
	// PrecisionF64 (default) serves bit-identically to the batch
	// pipeline.
	PrecisionF64 = core.PrecisionF64
	// PrecisionF32 serves through the float32 inference stack.
	PrecisionF32 = core.PrecisionF32
)

// ParsePrecision parses a -precision flag value ("f64" or "f32").
func ParsePrecision(s string) (Precision, error) { return core.ParsePrecision(s) }

// WithPrecision sets the Streamer's serving numeric path (default
// PrecisionF64).
func WithPrecision(p Precision) StreamOption { return stream.WithPrecision(p) }

// WithShedPolicy selects the overload behavior: StreamShedOff (default)
// or StreamShedDegrade, which walks through explicit degradation levels
// (shrink lateness, shed Unknown-labeled events, per-node fair random
// shedding) as queue depth or detect latency climbs, and walks back
// when the overload passes.
func WithShedPolicy(p stream.ShedPolicy) StreamOption { return stream.WithShedPolicy(p) }

// WithStreamDiag routes one-line operational diagnostics (clock-skew
// quarantines, shed level transitions) to fn; nil (the default)
// discards them.
func WithStreamDiag(fn func(format string, args ...any)) StreamOption {
	return stream.WithDiag(fn)
}
