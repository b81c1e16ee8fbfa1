package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"desh/internal/logsim"
	"desh/internal/stream"
)

// testModel trains once for every end-to-end test in the package.
var testModel = sync.OnceValues(trainModel)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(seq(99), 0.90); err == nil {
		t.Error("p90 of 99 samples was accepted; it leaves only 9 beyond")
	}
	got, err := percentile(seq(100), 0.90)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(seq(19), 0.50); err == nil {
		t.Error("p50 of 19 samples was accepted")
	}
	if got, err := percentile(seq(20), 0.50); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was accepted")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestGaugeAndCalmest: the gauge files its slivers under the bucket
// they ran in, reads +Inf where none ran, and calmest keeps the share
// of samples with the lowest readings.
func TestGaugeAndCalmest(t *testing.T) {
	start := time.Now().Add(-time.Second)
	g := newGauge(newCalibrator(), start)
	for i := 0; i < 100; i++ {
		g.tick()
	}
	now := time.Now()
	if v := g.at(now); !(v > 0) || math.IsInf(v, 0) {
		t.Errorf("gauge reads %v where 100 slivers just ran", v)
	}
	if v := g.at(start.Add(500 * time.Millisecond)); !math.IsInf(v, 1) {
		t.Errorf("gauge reads %v where no sliver ran, want +Inf", v)
	}
	if g.n[len(g.n)-1] == 0 || len(g.n) < 100 {
		t.Errorf("slivers filed under %d buckets, the last holding %d", len(g.n), g.n[len(g.n)-1])
	}
	// Nine samples: three taken on a calm host, six on a disturbed one
	// whose latencies are ten times as long.
	var samples []latencySample
	for i := 0; i < 9; i++ {
		s := latencySample{ms: float64(10 + i), host: 2000 + float64(i)}
		if i%3 == 0 {
			s = latencySample{ms: 1 + float64(i)/10, host: 700 + float64(i)}
		}
		samples = append(samples, s)
	}
	ms, host := calmest(samples, 1.0/3)
	if len(ms) != 3 || ms[0] != 1 || ms[1] != 1.3 || ms[2] != 1.6 || math.Abs(host-703) > 1e-9 {
		t.Errorf("calmest third = %v at a mean reading of %v, want [1 1.3 1.6] at 703", ms, host)
	}
	if ms, _ := calmest(samples[:4], 1.0/3); len(ms) != 2 {
		t.Errorf("a third of 4 samples kept %d, want 2 (rounded up)", len(ms))
	}
	if ms, _ := calmest(nil, 1.0/3); len(ms) != 0 {
		t.Errorf("calmest of nothing = %v", ms)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got := side([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}).Spread; math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

// handCorpus is six lines on two nodes: node A fails twice, node B once.
func handCorpus() (*corpus, time.Time) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	failures := []logsim.FailureRecord{
		{ChainID: 1, Node: "cA", Start: at(100), FailTime: at(200)},
		{ChainID: 2, Node: "cB", Start: at(150), FailTime: at(260)},
		{ChainID: 3, Node: "cA", Start: at(1000), FailTime: at(1100)},
	}
	c := newCorpus(corpusSpec{name: "hand"}, make([]string, 6), failures)
	c.closing = []int{1, 3, 5}
	return c, t0
}

func TestMatcherAndScore(t *testing.T) {
	c, t0 := handCorpus()
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	alert := func(node string, s int, lead float64, arrived time.Time) stampedAlert {
		return stampedAlert{Alert: stream.Alert{Node: node, FlaggedAt: at(s), LeadSeconds: lead}, arrived: arrived}
	}
	for _, tc := range []struct {
		node string
		s    int
		want int
		ok   bool
	}{
		{"cA", 200, 0, true},   // closing instant of the first chain
		{"cA", 100, 0, true},   // its first instant
		{"cA", 99, 0, false},   // just before it
		{"cA", 201, 0, false},  // just after it
		{"cA", 1050, 2, true},  // second chain on the same node
		{"cA", 600, 0, false},  // between the two chains
		{"cB", 200, 1, true},   // other node, overlapping in time with A's
		{"cC", 200, 0, false},  // a node that never fails
		{"cB", 1050, 0, false}, // right time, wrong node
	} {
		got, ok := c.match(tc.node, at(tc.s))
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("match(%s, +%ds) = %d, %v; want %d, %v", tc.node, tc.s, got, ok, tc.want, tc.ok)
		}
	}

	// The pacer owes line i at base + i ms.
	base := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	due := func(line int) time.Time { return base.Add(time.Duration(line) * time.Millisecond) }
	alerts := []stampedAlert{
		alert("cA", 200, 60, due(1).Add(250*time.Microsecond)),  // TP, raised by the closing line
		alert("cA", 180, 40, due(1).Add(900*time.Microsecond)),  // TP on the same failure, not raised by its closing line
		alert("cA", 1100, 90, due(5).Add(500*time.Microsecond)), // TP on the second chain of the node
		alert("cA", 600, 10, due(2)),                            // false positive: between chains
		alert("cC", 200, 10, due(2)),                            // false positive: healthy node
	}
	s := scoreAlerts(c, alerts)
	if s.alerts != 5 || s.matched != 3 || s.recalled != 2 {
		t.Fatalf("score counts = %+v", s)
	}
	if math.Abs(s.recall-2.0/3) > 1e-12 || math.Abs(s.precision-0.6) > 1e-12 || math.Abs(s.leadMean-190.0/3) > 1e-12 {
		t.Errorf("recall %v precision %v lead %v; want 2/3, 0.6, 63.33", s.recall, s.precision, s.leadMean)
	}
	// Only an alert raised by its chain's closing line times anything.
	var lat []time.Duration
	for _, a := range alerts {
		if f, ok := c.closedBy(a); ok {
			lat = append(lat, a.arrived.Sub(due(c.closing[f])))
		}
	}
	if len(lat) != 2 || lat[0] != 250*time.Microsecond || lat[1] != 500*time.Microsecond {
		t.Errorf("latencies = %v, want [250µs 500µs]", lat)
	}
}

func TestMultisetDiff(t *testing.T) {
	_, t0 := handCorpus()
	a := stampedAlert{Alert: stream.Alert{Node: "cA", FlaggedAt: t0, LeadSeconds: 1}}
	b := stampedAlert{Alert: stream.Alert{Node: "cB", FlaggedAt: t0, LeadSeconds: 1}}
	want := multiset([]stampedAlert{a, a, b})
	if d := diffMultiset(want, multiset([]stampedAlert{b, a, a})); d != "" {
		t.Errorf("equal multisets differ: %s", d)
	}
	if d := diffMultiset(want, multiset([]stampedAlert{a, b})); d == "" {
		t.Error("a lost duplicate went unnoticed")
	}
	if d := diffMultiset(multiset([]stampedAlert{a}), want); d == "" {
		t.Error("an extra key went unnoticed")
	}
}

// TestPacerStampsDueTimes drives the pacer on a fake clock: a stall in
// one offer must not move any due time, and must show as lateness on
// the stalled item's successors.
func TestPacerStampsDueTimes(t *testing.T) {
	start := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	now := start
	p := &pacer{start: start, every: time.Millisecond}
	p.now = func() time.Time { return now }
	p.idle = func() { now = now.Add(100 * time.Microsecond) }
	var sentAt []time.Time
	late, err := p.run(10, func(i int) error {
		sentAt = append(sentAt, now)
		if i == 3 {
			now = now.Add(5 * time.Millisecond) // the system stalls inside this offer
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if want := start.Add(time.Duration(i) * time.Millisecond); !p.due(i).Equal(want) {
			t.Errorf("due(%d) = %v, want %v", i, p.due(i), want)
		}
		if sentAt[i].Before(p.due(i)) {
			t.Errorf("item %d offered %v before it was due", i, p.due(i).Sub(sentAt[i]))
		}
	}
	// Item 3 stalls 5 ms from t=3: item 4 (due t=4) goes at t=8, 4 ms
	// late; 5, 6, 7 go back to back, 3, 2, 1 ms late; 8 is on time again.
	want := []float64{0, 0, 0, 0, 4, 3, 2, 1, 0, 0}
	for i, w := range want {
		if math.Abs(late[i]-w) > 1e-9 {
			t.Errorf("late[%d] = %v ms, want %v", i, late[i], w)
		}
	}
	// A latency is taken from the due time: item 5 finishing at t=8.2
	// has waited 3.2 ms, though it was sent only 0.2 ms before.
	done := sentAt[5].Add(200 * time.Microsecond)
	if got := done.Sub(p.due(5)); got != 3200*time.Microsecond {
		t.Errorf("latency from due time = %v, want 3.2ms", got)
	}
}

func TestLedgerRowsSumToAttributed(t *testing.T) {
	v := map[string]float64{
		"label.safe_share":                   0.25,
		"logparse.parse_ns_per_line":         700,
		"logparse.encode_ns_per_event":       40,
		"label.label_ns_per_event":           30,
		"persist.encode_event_ns_per_record": 100,
		"persist.wal_append_ns_per_record":   650,
		"chain.feed_ns_per_event":            160,
		"core.detect_ns_per_chain":           46000,
		"core.detect_batch32_ns_per_chain":   44000,
		"cluster.ring_owner_ns_per_lookup":   45,
		"cluster.http_overhead_ns_per_line":  500,
		"cluster.lines_per_post":             128,
		"stream.batched_detect_share":        0.5,
	}
	lc := &layerCosts{chainsPerEvent: 0.02}
	for _, w := range workloads {
		led := buildLedger(w, v, lc)
		sum, shares := 0.0, 0.0
		for _, row := range led.rows {
			sum += row.us()
		}
		for _, s := range led.shares() {
			shares += s
		}
		if math.Abs(sum-led.attributedUs()) > 1e-12 || math.Abs(shares-1) > 1e-12 {
			t.Errorf("%s: rows sum to %v, attributed %v, shares sum to %v", w.name, sum, led.attributedUs(), shares)
		}
		s := led.shares()
		switch w.name {
		case "failstorm_event":
			// Bypasses the parser, the WAL and the cluster.
			if s["persist"] != 0 || s["cluster"] != 0 {
				t.Errorf("failstorm_event charges persist %v cluster %v", s["persist"], s["cluster"])
			}
			// 0.75 events x 40 ns of encode is all logparse may charge.
			if want := 0.75 * 40 / 1000 / led.attributedUs(); math.Abs(s["logparse"]-want) > 1e-12 {
				t.Errorf("failstorm_event logparse share %v, want %v (encode only)", s["logparse"], want)
			}
		case "chatter_raw":
			if s["persist"] != 0 || s["cluster"] != 0 || s["logparse"] == 0 {
				t.Errorf("chatter_raw shares %v", s)
			}
		case "failstorm_durable":
			if s["persist"] == 0 || s["cluster"] != 0 {
				t.Errorf("failstorm_durable shares %v", s)
			}
		case "routed_raw":
			// Two parses per line, and the hop at the live batch size:
			// 500 ns x 256 per POST, one POST per 128 lines.
			if s["cluster"] == 0 || s["persist"] == 0 {
				t.Errorf("routed_raw shares %v", s)
			}
			if got := led.rows[0].us(); got != 1.4 {
				t.Errorf("routed_raw parse row = %v us, want 1.4", got)
			}
			if got := led.rows[len(led.rows)-1].us(); math.Abs(got-1.0) > 1e-12 {
				t.Errorf("routed_raw hop row = %v us, want 1.0", got)
			}
		}
	}
}

// TestDurableEndToEnd runs the whole measurement on failstorm_durable at
// 1/40 scale — flood passes, the whole-corpus episode, kill, recovery —
// and holds it to the correctness check. Timings at this scale mean
// nothing.
func TestDurableEndToEnd(t *testing.T) {
	t.Parallel() // with the traced run: the timings of neither matter
	w, _ := workloadByName("failstorm_durable")
	var log bytes.Buffer
	model, err := testModel()
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure(runConfig{w: w, seed: 5, seconds: runSeconds / 40.0, log: &log, tmp: t.TempDir(), model: model}, true)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, log.String())
	}
	if !strings.Contains(log.String(), "recovery: stream.New on the killed state dir") {
		t.Errorf("no recovery drill in the log:\n%s", log.String())
	}
	for _, d := range endToEnd {
		if v := res.values[d.Name]; !(v > 0) {
			t.Errorf("%s = %v, want a positive value", d.Name, v)
		}
	}
}

// TestTracedEndToEnd runs a traced failstorm_event at 1/40 scale: every
// per-layer metric must come out, the ledger must show the bypass
// (nothing charged to persist or cluster, chain+core on top), and the
// spans must reach the file.
func TestTracedEndToEnd(t *testing.T) {
	t.Parallel()
	w, _ := workloadByName("failstorm_event")
	var log bytes.Buffer
	tr := newTracer()
	model, err := testModel()
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure(runConfig{w: w, seed: 5, seconds: runSeconds / 40.0, log: &log, tmp: t.TempDir(), tr: tr, model: model}, true)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !res.Correct || len(res.defs) != len(perLayer) {
		t.Fatalf("correct %v, %d metrics\n%s", res.Correct, len(res.defs), log.String())
	}
	v := res.values
	if v["ledger.persist_share"] != 0 || v["ledger.cluster_share"] != 0 {
		t.Errorf("failstorm_event charges persist %v, cluster %v", v["ledger.persist_share"], v["ledger.cluster_share"])
	}
	if top := v["ledger.chain_share"] + v["ledger.core_share"]; top < 0.5 {
		t.Errorf("chain+core share %v, want the largest", top)
	}
	if v["cluster.posts"] == 0 || v["stream.recover_replayed_events"] == 0 || v["chain.chains_closed"] == 0 {
		t.Errorf("harness rows empty: posts %v, replayed %v, chains %v", v["cluster.posts"], v["stream.recover_replayed_events"], v["chain.chains_closed"])
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path, map[string]any{"workload": w.name}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range file.Spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, want := range []string{"ingest", "chain", "stream.New", "stream.Close", "cluster.post", "cluster.Flush", "stream.Kill", "stream.New(recover)", "logparse.ParseLine", "core.Detect", "tensor.GateMatVec"} {
		if names[want] == 0 {
			t.Errorf("no %q span among %v", want, names)
		}
	}
}
