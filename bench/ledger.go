package main

// The cost ledger, outside-in edition: each row is a layer's unit cost
// measured in isolation (layers.go) times how often an offered event
// reaches that layer on this workload. The rows add up to
// attributed_us_per_event; what is left of the measured
// cpu_us_per_event is the residual — shard hop, scheduling, GC, alert
// emit — which only spans inside the program can split further.

type ledgerRow struct {
	name     string  // per-layer metric the unit cost comes from
	layer    string  // package the row is charged to
	unitNs   float64 // cost of one unit of work
	perEvent float64 // units of that work per offered event
}

func (r ledgerRow) us() float64 { return r.unitNs * r.perEvent / 1000 }

type ledger struct{ rows []ledgerRow }

func (l ledger) attributedUs() float64 {
	sum := 0.0
	for _, r := range l.rows {
		sum += r.us()
	}
	return sum
}

// shares is each layer's part of the attributed cost; every layer is
// present, so a bypassed layer reads 0.
func (l ledger) shares() map[string]float64 {
	s := map[string]float64{"logparse": 0, "label": 0, "persist": 0, "chain": 0, "core": 0, "cluster": 0}
	total := l.attributedUs()
	if total == 0 {
		return s
	}
	for _, r := range l.rows {
		s[r.layer] += r.us() / total
	}
	return s
}

// buildLedger weights the isolated unit costs in v (the run's per-layer
// values) by the workload's shape.
func buildLedger(w *workload, v map[string]float64, lc *layerCosts) ledger {
	nonSafe := 1 - v["label.safe_share"]
	parses := 0.0 // ParseLine calls per offered line
	if w.raw {
		parses = 1
	}
	if w.routed {
		parses = 2 // once at the router, once more at the instance
	}
	// A WAL is appended to on both workloads with state dirs; neither
	// fsyncs it (system.go: walSyncNever).
	durable := 0.0
	if w.durable || w.routed {
		durable = 1
	}
	routed := 0.0
	if w.routed {
		routed = 1
	}
	// Chains score through DetectBatch or Detect in the live proportion.
	batched := v["stream.batched_detect_share"]
	detectNs := batched*v["core.detect_batch32_ns_per_chain"] + (1-batched)*v["core.detect_ns_per_chain"]
	// The hop's cost is per POST; the harness measured it at full
	// batches, the live router sends whatever has queued up.
	postNs, postsPerLine := v["cluster.http_overhead_ns_per_line"]*postBatch, 0.0
	if w.routed && v["cluster.lines_per_post"] > 0 {
		postsPerLine = 1 / v["cluster.lines_per_post"]
	}
	return ledger{rows: []ledgerRow{
		{"logparse.parse_ns_per_line", "logparse", v["logparse.parse_ns_per_line"], parses},
		{"logparse.encode_ns_per_event", "logparse", v["logparse.encode_ns_per_event"], nonSafe},
		{"label.label_ns_per_event", "label", v["label.label_ns_per_event"], 1},
		{"persist.encode_event_ns_per_record", "persist", v["persist.encode_event_ns_per_record"], durable * nonSafe},
		{"persist.wal_append_ns_per_record", "persist", v["persist.wal_append_ns_per_record"], durable * nonSafe},
		{"chain.feed_ns_per_event", "chain", v["chain.feed_ns_per_event"], nonSafe},
		{"core.detect_ns_per_chain", "core", detectNs, lc.chainsPerEvent},
		{"cluster.ring_owner_ns_per_lookup", "cluster", v["cluster.ring_owner_ns_per_lookup"], routed},
		{"cluster.http_overhead (per POST)", "cluster", postNs, postsPerLine},
	}}
}
