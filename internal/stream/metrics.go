package stream

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of latency buckets: bucket i counts
// observations with ceil(log2(µs)) == i, i.e. exponentially wider
// buckets from 1µs up to ~2s, with the last bucket as overflow.
const histBuckets = 22

// Histogram is a lock-free fixed-bucket latency histogram. All methods
// are safe for concurrent use; the zero value is ready.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sumNs  atomic.Int64
	n      atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	i, ns := bucketOf(d)
	h.counts[i].Add(1)
	h.sumNs.Add(ns)
	h.n.Add(1)
}

// bucketOf is d's bucket and its nanoseconds, clamped at 0.
func bucketOf(d time.Duration) (int, int64) {
	ns := max(d.Nanoseconds(), 0)
	return min(bits.Len64(uint64(ns/1000)), histBuckets-1), ns
}

// histBatch counts samples locally for one merge into a Histogram: a
// shard wakeup's events cost one atomic add per bucket they touch plus
// one each for the sum and the count, and leave the same totals as one
// Observe per event.
type histBatch struct {
	counts [histBuckets]int64
	sumNs  int64
	n      int64
}

func (b *histBatch) add(d time.Duration) {
	i, ns := bucketOf(d)
	b.counts[i]++
	b.sumNs += ns
	b.n++
}

// merge adds b's samples to h, buckets before the count as Observe does.
func (h *Histogram) merge(b *histBatch) {
	for i, c := range b.counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sumNs.Add(b.sumNs)
	h.n.Add(b.n)
}

// setLastMax stores d in a last-value gauge and raises its max gauge.
func setLastMax(last, peak *atomic.Int64, d time.Duration) {
	last.Store(int64(d))
	for {
		m := peak.Load()
		if int64(d) <= m || peak.CompareAndSwap(m, int64(d)) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Mean returns the mean sample duration (0 with no samples).
func (h *Histogram) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// Quantile returns an upper bound on the q-quantile sample: the upper
// edge of the bucket holding the nearest-rank sample, the ⌈q·n⌉-th
// smallest. q is clamped to [0,1]; q = 0 is the smallest sample.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	// The epsilon keeps a product that is an integer in exact arithmetic
	// (0.07·100) from rounding up past it in float64.
	target := max(int64(math.Ceil(q*float64(n)-1e-9)), 1)
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// bucketUpper returns the upper edge of bucket i in duration units:
// bucket 0 is <= 1µs, bucket i is <= 2^i µs.
func bucketUpper(i int) time.Duration {
	return time.Duration(int64(1)<<uint(i)) * time.Microsecond
}

// HistogramSnapshot is the JSON view of a Histogram.
type HistogramSnapshot struct {
	Count      int64   `json:"count"`
	MeanMicros float64 `json:"mean_us"`
	P50Micros  float64 `json:"p50_us"`
	P90Micros  float64 `json:"p90_us"`
	P99Micros  float64 `json:"p99_us"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count:      h.Count(),
		MeanMicros: float64(h.Mean()) / float64(time.Microsecond),
		P50Micros:  float64(h.Quantile(0.50)) / float64(time.Microsecond),
		P90Micros:  float64(h.Quantile(0.90)) / float64(time.Microsecond),
		P99Micros:  float64(h.Quantile(0.99)) / float64(time.Microsecond),
	}
}

// Metrics is the streamer's counter registry. Counters are atomic and
// safe to read while the streamer runs; they only ever increase (except
// ChainsOpen, a gauge).
type Metrics struct {
	// Ingested counts successfully parsed events accepted by the ingest
	// entry points (before Safe filtering).
	Ingested atomic.Int64
	// Malformed counts lines ParseLine rejected and events refused at
	// admission for a time UnixNano cannot represent.
	Malformed atomic.Int64
	// SafeFiltered counts events discarded as Safe-labeled at ingest.
	SafeFiltered atomic.Int64
	// Dropped counts events the DropNewest policy refused because their
	// shard's queue was full.
	Dropped atomic.Int64
	// ChainsOpen is a gauge: nodes currently holding an open episode.
	ChainsOpen atomic.Int64
	// ChainsClosed counts episodes closed and scored.
	ChainsClosed atomic.Int64
	// ChainsQuarantined counts closed episodes dropped because scoring
	// them panicked. Their events are in Processed already, so the
	// conservation invariant does not read it.
	ChainsQuarantined atomic.Int64
	// WindowEvicted counts events evicted by the per-node open-window
	// bound (MaxOpenWindow).
	WindowEvicted atomic.Int64
	// AlertsFired counts alerts emitted (including ones the subscriber
	// channel had to drop).
	AlertsFired atomic.Int64
	// AlertsSuppressed counts alerts withheld by the quiet-period dedup.
	AlertsSuppressed atomic.Int64
	// AlertsDropped counts fired alerts discarded because the subscriber
	// channel was full.
	AlertsDropped atomic.Int64
	// Processed counts events a shard ran to completion (including
	// duplicates, late events and buffered-then-released events). The
	// conservation invariant Processed + Dropped + Quarantined +
	// SkewQuarantined + Shed == Ingested - SafeFiltered holds whenever
	// the streamer is quiescent (queues empty).
	Processed atomic.Int64
	// Late counts events that arrived after their node's release cursor
	// had already passed their timestamp (event-time layer only).
	Late atomic.Int64
	// LateDropped counts late events discarded under LateDrop (a subset
	// of Late; LateFeed feeds them instead).
	LateDropped atomic.Int64
	// LateClamped counts events the chain tracker clamped forward to
	// keep the per-node time axis non-decreasing (fed late events plus
	// any residual disorder when the event-time layer is off).
	LateClamped atomic.Int64
	// Duplicates counts events suppressed by the per-node dedup ring.
	Duplicates atomic.Int64
	// SkewQuarantined counts events dropped at ingest because their
	// timestamp led the local clock beyond SkewTolerance.
	SkewQuarantined atomic.Int64
	// Shed counts events dropped at ingest by the overload-degradation
	// controller (levels >= 2).
	Shed atomic.Int64
	// ShedLevel is a gauge: the controller's current degradation level
	// (0 = normal .. 3 = max shedding).
	ShedLevel atomic.Int64
	// ShedLevelMax is the highest degradation level reached.
	ShedLevelMax atomic.Int64
	// ReorderOverflow counts events released ahead of the watermark
	// because a node's reorder buffer hit ReorderDepth.
	ReorderOverflow atomic.Int64
	// Oversized counts ingest lines discarded for exceeding the line
	// length cap.
	Oversized atomic.Int64
	// Quarantined counts poisoned events abandoned after three
	// consecutive panics.
	Quarantined atomic.Int64
	// ShardRestarts counts shard supervisor restarts after a recovered
	// panic.
	ShardRestarts atomic.Int64
	// Snapshots counts state snapshots successfully persisted.
	Snapshots atomic.Int64
	// SnapshotErrors counts snapshot attempts that failed.
	SnapshotErrors atomic.Int64
	// WALErrors counts write-ahead-log appends that failed (the event was
	// still processed in memory).
	WALErrors atomic.Int64
	// WALBatchAppends counts the event appends the WAL committed, one
	// per admitted ingest batch (a refused or failed one is in WALErrors
	// only): journaled events / WALBatchAppends is the records a commit
	// carries.
	WALBatchAppends atomic.Int64
	// ReplayedEvents counts events re-fed from the WAL tail during boot
	// recovery (also counted in Ingested).
	ReplayedEvents atomic.Int64
	// ReplaySuppressed counts alerts withheld during recovery because the
	// WAL ledger shows the pre-crash process already delivered them.
	ReplaySuppressed atomic.Int64
	// ConnRejected counts ServeLines connections refused by the connection
	// cap or dropped by the idle timeout.
	ConnRejected atomic.Int64
	// BatchWakeups counts shard wakeups that drained at least one event —
	// the denominator of batch occupancy.
	BatchWakeups atomic.Int64
	// BatchEvents counts events drained across all wakeups; BatchEvents /
	// BatchWakeups is the mean micro-batch occupancy.
	BatchEvents atomic.Int64
	// PrecisionConversions counts f64→f32 weight conversions performed
	// for the serving path — one per adopted model (boot, recovery,
	// hot swap) when serving at f32; always 0 at f64.
	PrecisionConversions atomic.Int64

	// Continuous-learning drift taps and loop counters.

	// UnseenPhrases counts accepted events whose phrase id is at or
	// beyond the active model's training vocabulary — phrases the model
	// has never seen, the primary vocabulary-drift signal.
	UnseenPhrases atomic.Int64
	// Verdicts counts closed-chain verdicts scored (flagged or not) —
	// the denominator of the rolling MSE drift signal.
	Verdicts atomic.Int64
	// VerdictMSEMicros accumulates closed-chain MinMSE in micro-units
	// (clamped per verdict), so VerdictMSEMicros/1e6/Verdicts is the
	// rolling mean minimum MSE.
	VerdictMSEMicros atomic.Int64
	// LeadErrCount / LeadErrMillis accumulate, over flagged closed-chain
	// verdicts, the absolute error between the model-predicted lead time
	// and the chain's ground-truth lead time (milli-seconds, clamped) —
	// the lead-time-error drift signal.
	LeadErrCount  atomic.Int64
	LeadErrMillis atomic.Int64
	// DriftScoreMilli is a gauge: the continuous-learning manager's
	// current drift score ×1000 (1000 = at the retrain threshold).
	DriftScoreMilli atomic.Int64
	// Retrains / RetrainFailures count background retrain attempts.
	Retrains        atomic.Int64
	RetrainFailures atomic.Int64
	// ShadowScored counts closed chains a shadow candidate scored;
	// ShadowDropped counts chains the shadow queue had to shed (shadow
	// work never blocks the shard hot path).
	ShadowScored  atomic.Int64
	ShadowDropped atomic.Int64
	// ShadowAccepted / ShadowRejected count shadow-window verdicts on
	// candidate models.
	ShadowAccepted atomic.Int64
	ShadowRejected atomic.Int64
	// Swaps counts hot model swaps applied; SwapErrors counts swap
	// attempts that failed validation, persistence or journaling.
	Swaps      atomic.Int64
	SwapErrors atomic.Int64

	// Cluster handoff counters.

	// HandoffsStarted counts outbound handoffs that journaled their
	// Begin intent and captured state; HandoffsCompleted and
	// HandoffsAborted count their resolutions.
	HandoffsStarted   atomic.Int64
	HandoffsCompleted atomic.Int64
	HandoffsAborted   atomic.Int64
	// HandoffImports counts inbound handoffs committed via RecHandoffIn.
	HandoffImports atomic.Int64
	// HandoffNodesIn / HandoffNodesOut count node states installed by
	// imports and dropped by completed outbound handoffs.
	HandoffNodesIn  atomic.Int64
	HandoffNodesOut atomic.Int64

	// Control-plane durations, in nanoseconds: each a last-value gauge
	// and its max. SwapBarrier runs from SwapModel's journal write to
	// every shard's ack of the swap barrier; HandoffFreeze from
	// BeginHandoff's freeze of its ranges to the Out or Abort record
	// that thaws them (a freeze recovered from the WAL is not timed).
	SwapBarrierNs      atomic.Int64
	SwapBarrierMaxNs   atomic.Int64
	HandoffFreezeNs    atomic.Int64
	HandoffFreezeMaxNs atomic.Int64

	// Detect is the end-to-end per-event detect latency, measured
	// enqueue→verdict: queue wait + chain tracking + (possibly batched)
	// scoring. Sampled: one observation per stamped event a shard
	// dequeues or replays, where the stamped events are the batches
	// whose admission carries the admitted-event count across a multiple
	// of stampEvery (64) — one admitted event in 64 on a stream of single
	// events. Processed, not Count, counts every event.
	Detect Histogram

	// stages is the sampled per-stage ledger (stages in /metrics).
	stages stageSums
}

// MetricsSnapshot is a point-in-time JSON view of the registry plus
// per-shard queue depths.
type MetricsSnapshot struct {
	Ingested     int64 `json:"ingested"`
	Malformed    int64 `json:"malformed"`
	SafeFiltered int64 `json:"safe_filtered"`
	Dropped      int64 `json:"dropped"`
	ChainsOpen   int64 `json:"chains_open"`
	ChainsClosed int64 `json:"chains_closed"`
	// ChainsQuarantined counts closed chains dropped because scoring
	// them panicked; not an event counter.
	ChainsQuarantined int64 `json:"chains_quarantined"`
	WindowEvicted     int64 `json:"window_evicted"`
	AlertsFired       int64 `json:"alerts_fired"`
	AlertsSuppressed  int64 `json:"alerts_suppressed"`
	AlertsDropped     int64 `json:"alerts_dropped"`
	Processed         int64 `json:"processed"`
	Oversized         int64 `json:"oversized"`
	Quarantined       int64 `json:"quarantined"`
	ShardRestarts     int64 `json:"shard_restarts"`
	Snapshots         int64 `json:"snapshots"`
	SnapshotErrors    int64 `json:"snapshot_errors"`
	WALErrors         int64 `json:"wal_errors"`
	WALBatchAppends   int64 `json:"wal_batch_appends"`
	ReplayedEvents    int64 `json:"replayed_events"`
	ReplaySuppressed  int64 `json:"replay_suppressed"`
	ConnRejected      int64 `json:"conn_rejected"`
	Late              int64 `json:"late"`
	LateDropped       int64 `json:"late_dropped"`
	LateClamped       int64 `json:"late_clamped"`
	Duplicates        int64 `json:"duplicates"`
	SkewQuarantined   int64 `json:"skew_quarantined"`
	Shed              int64 `json:"shed"`
	ShedLevel         int64 `json:"shed_level"`
	ShedLevelMax      int64 `json:"shed_level_max"`
	ReorderOverflow   int64 `json:"reorder_overflow"`
	ReorderPending    int64 `json:"reorder_pending"`
	BatchWakeups      int64 `json:"batch_wakeups"`
	// BatchOccupancy is the mean number of events drained per shard
	// wakeup (0 before the first wakeup; 1.0 means no coalescing).
	BatchOccupancy float64 `json:"batch_occupancy"`
	// BatchedDetects is always 0: a shard scores each chain as it
	// closes. The field stays while the benchmark reads it.
	BatchedDetects int64 `json:"batched_detects"`
	// ModelPrecision is the serving numeric path ("f64" or "f32");
	// GateKernel is the LSTM gate kernel that path runs on this host
	// ("avx512", "avx2" or "generic") and ActivationKernel the kernel
	// behind the cell's sigmoid/tanh and state update ("avx512-fma",
	// "avx2-fma" or "generic");
	// PrecisionConversions counts f64→f32 weight conversions (one per
	// adopted model at f32).
	ModelPrecision       string `json:"model_precision"`
	GateKernel           string `json:"gate_kernel"`
	ActivationKernel     string `json:"activation_kernel"`
	PrecisionConversions int64  `json:"precision_conversions"`
	// Continuous-learning gauges and counters.
	UnseenPhrases int64 `json:"unseen_phrases"`
	Verdicts      int64 `json:"verdicts"`
	// VerdictMSEMean is the rolling mean minimum MSE over closed-chain
	// verdicts (0 before the first verdict).
	VerdictMSEMean float64 `json:"verdict_mse_mean"`
	// LeadErrMeanSeconds is the mean |predicted − actual| lead time over
	// flagged closed-chain verdicts.
	LeadErrMeanSeconds float64 `json:"lead_err_mean_s"`
	// DriftScore is the continuous-learning drift score (1.0 = at the
	// retrain threshold; 0 when no manager is attached).
	DriftScore      float64 `json:"drift_score"`
	Retrains        int64   `json:"retrains"`
	RetrainFailures int64   `json:"retrain_failures"`
	ShadowScored    int64   `json:"shadow_scored"`
	ShadowDropped   int64   `json:"shadow_dropped"`
	ShadowAccepted  int64   `json:"shadow_accepted"`
	ShadowRejected  int64   `json:"shadow_rejected"`
	Swaps           int64   `json:"swaps"`
	SwapErrors      int64   `json:"swap_errors"`
	// Cluster handoff counters.
	HandoffsStarted   int64 `json:"handoffs_started"`
	HandoffsCompleted int64 `json:"handoffs_completed"`
	HandoffsAborted   int64 `json:"handoffs_aborted"`
	HandoffImports    int64 `json:"handoff_imports"`
	HandoffNodesIn    int64 `json:"handoff_nodes_in"`
	HandoffNodesOut   int64 `json:"handoff_nodes_out"`
	// Control-plane durations in milliseconds: the latest and the
	// longest swap barrier and handoff freeze (0 until one completes).
	SwapBarrierMs      float64 `json:"swap_barrier_ms"`
	SwapBarrierMaxMs   float64 `json:"swap_barrier_max_ms"`
	HandoffFreezeMs    float64 `json:"handoff_freeze_ms"`
	HandoffFreezeMaxMs float64 `json:"handoff_freeze_max_ms"`
	QueueDepths        []int   `json:"queue_depths"`
	// Watermarks is each shard's event-time watermark in unix
	// nanoseconds (0 until the shard has seen an event).
	Watermarks []int64           `json:"watermarks"`
	Detect     HistogramSnapshot `json:"detect_latency"`
	// StampEvery is the enqueue stamp's sample rate: detect_latency and
	// the stages ledger see one admitted event in StampEvery.
	StampEvery int            `json:"stamp_every"`
	Stages     StagesSnapshot `json:"stages"`
}

func nsToMs(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

// SnapshotMetrics captures the counters plus per-shard queue depths.
func (s *Streamer) SnapshotMetrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		Ingested:             s.met.Ingested.Load(),
		Malformed:            s.met.Malformed.Load(),
		SafeFiltered:         s.met.SafeFiltered.Load(),
		Dropped:              s.met.Dropped.Load(),
		ChainsOpen:           s.met.ChainsOpen.Load(),
		ChainsClosed:         s.met.ChainsClosed.Load(),
		ChainsQuarantined:    s.met.ChainsQuarantined.Load(),
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
		SwapBarrierMs:        nsToMs(s.met.SwapBarrierNs.Load()),
		SwapBarrierMaxMs:     nsToMs(s.met.SwapBarrierMaxNs.Load()),
		HandoffFreezeMs:      nsToMs(s.met.HandoffFreezeNs.Load()),
		HandoffFreezeMaxMs:   nsToMs(s.met.HandoffFreezeMaxNs.Load()),
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
		ModelPrecision:       s.opts.Precision.String(),
		GateKernel:           s.opts.Precision.GateKernel(),
		ActivationKernel:     s.opts.Precision.ActivationKernel(),
		PrecisionConversions: s.met.PrecisionConversions.Load(),
		Detect:               s.met.Detect.Snapshot(),
		StampEvery:           s.opts.stampEvery,
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
	snap.Stages = s.met.stages.snapshot(snap.Ingested, snap.Processed, snap.ChainsClosed)
	snap.QueueDepths = make([]int, len(s.shards))
	snap.Watermarks = make([]int64, len(s.shards))
	var eff int64
	if s.et != nil {
		eff = s.et.effLateNs.Load()
	}
	for i, sh := range s.shards {
		snap.QueueDepths[i] = sh.q.Len()
		snap.ReorderPending += sh.pending.Load()
		// The shard's watermark: max seen event time minus the effective
		// allowed lateness (0 until the shard has seen an event).
		if wm := sh.wmNano.Load(); wm > 0 {
			snap.Watermarks[i] = wm - eff
		}
	}
	return snap
}
