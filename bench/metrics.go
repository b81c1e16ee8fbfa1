package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef is one named metric: what the command prints and what
// BENCHMARK.json declares (metrics_test.go holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see; every
// workload reports every one. Four of the issue's ten are not here.
// The harness contract wants every end-to-end metric on every workload
// and never zero, so recovery_s (one workload only) is the per-layer
// stream.recovery_ms and failed_share is the result line's
// failed/attempted. The two alert latencies are per-layer metrics
// (stream.alert_latency_p50_ms, stream.alert_latency_p90_ms) by the
// issue's own rule that a timing which cannot be made to repeat is
// demoted: the median repeats within 2-7 % on the three standalone
// workloads but only within 8-30 % through the router, and a bound
// holds for a metric on every workload or on none; the 90th percentile
// sits where the fsync stalls of failstorm_durable begin and flips
// between 0.1 and 1 ms with the disk's mood.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "recall", Unit: "share", Better: "higher"},
	{Name: "precision", Unit: "share", Better: "higher"},
	{Name: "lead_time_mean_s", Unit: "s", Better: "higher"},
}

// perLayer are the traced run's metrics, one layer (package) per
// prefix. Unit costs come from the isolation harness (layers.go), the
// rest from the traced live phases.
var perLayer = []metricDef{
	{Name: "logparse.parse_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "logparse.parse_allocs_per_line", Unit: "count", Better: "lower"},
	{Name: "logparse.encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "label.label_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "label.safe_share", Unit: "share", Better: "higher"},
	{Name: "persist.encode_event_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "persist.wal_append_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "persist.wal_sync_us_per_call", Unit: "us", Better: "lower"},
	{Name: "persist.wal_bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "persist.wal_replay_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "persist.decode_event_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "persist.snapshot_save_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.snapshot_load_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "chain.feed_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "chain.chains_closed", Unit: "count", Better: "higher"},
	{Name: "chain.events_per_chain", Unit: "count", Better: "lower"},
	{Name: "core.detect_ns_per_chain", Unit: "ns", Better: "lower"},
	{Name: "core.detect_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "core.detect_batch32_ns_per_chain", Unit: "ns", Better: "lower"},
	{Name: "core.detect_f32_ns_per_chain", Unit: "ns", Better: "lower"},
	{Name: "core.flagged_share", Unit: "share", Better: "higher"},
	{Name: "nn.stream_step_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.streambatch_step_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "nn.stream32_step_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.weight_bytes_f64", Unit: "bytes", Better: "lower"},
	{Name: "nn.weight_bytes_f32", Unit: "bytes", Better: "lower"},
	{Name: "tensor.gate_matvec_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.gate_matmul_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "tensor.gate_matvec32_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.gate_flops_per_call", Unit: "count", Better: "lower"},
	{Name: "tensor.gate_bytes_per_call", Unit: "bytes", Better: "lower"},
	{Name: "stream.ingest_call_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "stream.batch_occupancy", Unit: "count", Better: "higher"},
	{Name: "stream.paced_batch_occupancy", Unit: "count", Better: "lower"},
	{Name: "stream.batched_detect_share", Unit: "share", Better: "higher"},
	{Name: "stream.detect_hist_p50_us", Unit: "us", Better: "lower"},
	{Name: "stream.detect_hist_p99_us", Unit: "us", Better: "lower"},
	{Name: "stream.queue_depth_mean", Unit: "count", Better: "lower"},
	{Name: "stream.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "stream.close_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.alert_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.alert_latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.recover_replayed_events", Unit: "count", Better: "lower"},
	{Name: "stream.recover_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cluster.ring_owner_ns_per_lookup", Unit: "ns", Better: "lower"},
	{Name: "cluster.router_ingest_call_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "cluster.instance_ingest_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "cluster.http_overhead_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "cluster.posts", Unit: "count", Better: "lower"},
	{Name: "cluster.lines_per_post", Unit: "count", Better: "higher"},
	{Name: "cluster.post_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.post_rtt_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "cluster.wire_bytes_per_line", Unit: "bytes", Better: "lower"},
	{Name: "cluster.spilled_share", Unit: "share", Better: "lower"},
	{Name: "cluster.rejected_lines", Unit: "count", Better: "lower"},
	{Name: "cluster.flush_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.boot_election_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_event", Unit: "bytes", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "ledger.attributed_us_per_event", Unit: "us", Better: "lower"},
	{Name: "ledger.residual_us_per_event", Unit: "us", Better: "lower"},
	{Name: "ledger.coverage_share", Unit: "share", Better: "higher"},
	{Name: "ledger.logparse_share", Unit: "share", Better: "lower"},
	{Name: "ledger.label_share", Unit: "share", Better: "lower"},
	{Name: "ledger.persist_share", Unit: "share", Better: "lower"},
	{Name: "ledger.chain_share", Unit: "share", Better: "lower"},
	{Name: "ledger.core_share", Unit: "share", Better: "lower"},
	{Name: "ledger.cluster_share", Unit: "share", Better: "lower"},
	{Name: "bench.gen_late_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
}

// result is one run's outcome; line() renders the harness's last line.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	values    map[string]float64
	defs      []metricDef
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check reports a definition the run produced no usable value for — a
// bug in the benchmark, never a property of the program.
func (r *result) check() error {
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s = %v", d.Name, v)
		}
	}
	return nil
}

// table prints every metric by name with its unit.
func (r *result) table(w io.Writer) {
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-42s %16.6g %s\n", d.Name, r.values[d.Name], d.Unit)
	}
}

func (r *result) line() string {
	metrics := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		metrics[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b)
}
