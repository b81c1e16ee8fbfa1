package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// lateLimitMs voids a paced phase: if the generator itself ran this
// late at p90, the latencies measured the benchmark, not the program.
const lateLimitMs = 1.0

// measure runs one workload end to end: set-up, reference, flood
// passes, the whole-corpus episode (paced when traced), and, traced,
// the layer harness and ledger.
// indicative marks a run too short to carry its timing metrics
// (-smoke): sample-count rules are relaxed and say so.
func measure(cfg runConfig, indicative bool) (*result, error) {
	r := &runner{cfg: cfg}
	traced := cfg.tr != nil
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.tmp)

	// Set-up, from nothing, several times; the median, read at reference
	// host speed like the flood metrics, is setup_s. A traced run reports
	// no setup_s and sets up once.
	repeats := setupRepeats
	if traced || indicative {
		repeats = 1
	}
	r.cal = newCalibrator()
	var setups, rawSetups []float64
	before := r.cal.read()
	for k := 0; k < repeats; k++ {
		d, err := r.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		after := r.cal.read()
		slow, _ := before.mean(after).slowness()
		rawSetups = append(rawSetups, d.Seconds())
		setups = append(setups, d.Seconds()/slow)
		before = after
	}
	c := r.c
	r.logf("%s seed %d: corpus %s %d lines, %d failure chains, %d masked, Safe share %.3f; set-ups %.3v s as measured, %.3v s at reference host speed",
		cfg.w.name, cfg.seed, c.spec.name, len(c.lines), len(c.failures), c.masked, c.safeShare, rawSetups, setups)

	var err error
	if r.refFull, err = r.reference(len(c.lines)); err != nil {
		return nil, err
	}
	r.refFlood = r.refFull
	if r.floodN != len(c.lines) {
		if r.refFlood, err = r.reference(r.floodN); err != nil {
			return nil, err
		}
	}

	// Flood: closed loop, throughput and CPU cost, never latency. An
	// untraced run floods for the whole of --seconds; a traced one
	// shares it with the paced phase and alternates untraced and traced
	// passes.
	budget := cfg.seconds
	if traced {
		budget *= tracedFloodShare
	}
	passes, err := r.floodPhase(time.Duration(budget*float64(time.Second)), cfg.tr)
	if err != nil {
		return nil, err
	}
	var plain, withTrace []timedPass
	for _, p := range passes {
		if p.traced {
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, p)
		}
	}
	// A flood metric is the median pass at reference host speed; the
	// median pass as measured goes to the log beside it.
	refEPS := func(ps []timedPass) float64 {
		var v []float64
		for _, p := range ps {
			v = append(v, p.refEventsPerSec())
		}
		return median(v)
	}
	var refCPUs, rawEPSs, rawCPUs []float64
	for _, p := range plain {
		refCPUs = append(refCPUs, p.refCPUUsPerEvent())
		rawEPSs, rawCPUs = append(rawEPSs, p.eventsPerSec()), append(rawCPUs, p.cpuUsPerEvent())
	}
	rawCPU := median(rawCPUs)
	r.logf("flood: %.0f events/s, %.3f cpu-us/event at reference host speed (median of %d passes); as measured %.0f events/s, %.3f cpu-us/event",
		refEPS(plain), median(refCPUs), len(plain), median(rawEPSs), rawCPU)

	// The whole corpus, once. Untraced: as fast as it goes, for the
	// correctness check across a kill and for the paper's scores. Traced:
	// paced — open loop, latency, never throughput.
	var es episodeStats
	for attempt := 1; ; attempt++ {
		// A void phase is discarded whole, its failure account included:
		// the generator did not generate the load the phase is about.
		attempted, failed, problems := r.attempted, r.failed, len(r.problems)
		if es, err = r.episode(cfg.tr, traced); err != nil {
			return nil, fmt.Errorf("whole-corpus episode: %w", err)
		}
		if !traced {
			break
		}
		lateP90, _ := percentile(es.late, 0.90)
		if lateP90 <= lateLimitMs {
			break
		}
		if attempt == 2 {
			r.logf("WARNING: the pacer ran %.3f ms late at p90 twice; this host is too loaded for the latencies to mean much", lateP90)
			break
		}
		r.logf("paced phase void: pacer %.3f ms late at p90 (limit %.1f ms); running it again", lateP90, lateLimitMs)
		r.attempted, r.failed, r.problems = attempted, failed, r.problems[:problems]
	}
	score := scoreAlerts(c, es.alerts)
	r.logf("whole corpus: %d lines in %.2fs; %d alerts, %d matched to a failure; recall %.4f, precision %.4f, mean lead time %.2f s",
		len(c.lines), es.wall.Seconds(), score.alerts, score.matched, score.recall, score.precision, score.leadMean)
	if cfg.w.durable {
		r.logf("recovery: stream.New on the killed state dir took %.4f s, replayed %d events",
			es.recovery.Seconds(), es.replayed)
	}

	res := &result{values: map[string]float64{}}
	// finish stamps the run's account on the result; the traced path
	// calls it after the layer harness, which can add to the account.
	finish := func() (*result, error) {
		res.Correct, res.Attempted, res.Failed = len(r.problems) == 0, r.attempted, r.failed
		return res, res.check()
	}
	if !traced {
		res.defs = endToEnd
		res.values["setup_s"] = median(setups)
		res.values["events_per_s"] = refEPS(plain)
		res.values["cpu_us_per_event"] = median(refCPUs)
		res.values["recall"] = score.recall
		res.values["precision"] = score.precision
		res.values["lead_time_mean_s"] = score.leadMean
		return finish()
	}

	// Latency: the median over the calm share of the samples, at
	// reference host speed, and the 90th percentile over all of them as
	// measured.
	lateP90, _ := percentile(es.late, 0.90)
	all := make([]float64, len(es.samples))
	for i, s := range es.samples {
		all[i] = s.ms
	}
	sort.Float64s(all)
	calm, calmHost := calmest(es.samples, calmShare)
	sort.Float64s(calm)
	calmSlow := calmHost / gaugeRefNs
	r.logf("paced phase: %d latency samples (highest supported percentile p%g); pacer late p90 %.4f ms",
		len(all), 100*highestPercentile(len(all)), lateP90)
	p50, err50 := percentile(calm, 0.50)
	p90, err90 := percentile(all, 0.90)
	if err50 != nil || err90 != nil || len(all) < int(minLatencySamples*cfg.seconds/runSeconds) {
		if !indicative {
			return nil, fmt.Errorf("paced phase yielded %d latency samples, %d of them calm: %v %v", len(all), len(calm), err50, err90)
		}
		// Too few alerts for the percentile rule at smoke scale: plain
		// order statistics.
		if len(all) > 0 {
			p50, p90 = calm[len(calm)/2], all[len(all)*9/10]
		}
	}
	if len(all) > 0 {
		r.logf("alert latency: p50 %.4f ms over the %d samples taken while the host was calmest (slowness %.2f by the gauge), %.4f ms at reference host speed; over all samples as measured p50 %.4f ms, p90 %.4f ms",
			p50, len(calm), calmSlow, p50/calmSlow, all[len(all)/2], p90)
	}

	// Traced: per-layer unit costs in isolation, then the ledger.
	res.defs = perLayer
	lc, err := r.layerCosts()
	if err != nil {
		return nil, fmt.Errorf("layer harness: %w", err)
	}
	for k, v := range lc.values {
		res.values[k] = v
	}
	var ingestNs, drainMs, occ, batched, h50, h99, allocs, allocBytes []float64
	for _, p := range passes {
		ingestNs = append(ingestNs, float64(p.ingest.Nanoseconds())/float64(p.items))
		l := p.live
		drainMs = append(drainMs, float64(p.drain)/float64(time.Millisecond))
		if l.wakeups > 0 {
			occ = append(occ, float64(l.batchEvents)/float64(l.wakeups))
		}
		if l.chainsClosed > 0 {
			batched = append(batched, float64(l.batchedDetects)/float64(l.chainsClosed))
		}
		h50 = append(h50, l.detectP50us)
		h99 = append(h99, l.detectP99us)
		allocs = append(allocs, float64(p.mallocs)/float64(p.items))
		allocBytes = append(allocBytes, float64(p.allocBytes)/float64(p.items))
	}
	var depthMean []float64
	depthMax := 0
	for _, p := range withTrace {
		depthMean = append(depthMean, p.depthMean)
		if p.depthMax > depthMax {
			depthMax = p.depthMax
		}
	}
	res.values["stream.ingest_call_ns_per_event"] = median(ingestNs)
	res.values["stream.batch_occupancy"] = median(occ)
	if es.live.wakeups > 0 {
		res.values["stream.paced_batch_occupancy"] = float64(es.live.batchEvents) / float64(es.live.wakeups)
	}
	res.values["stream.batched_detect_share"] = median(batched)
	res.values["stream.detect_hist_p50_us"] = median(h50)
	res.values["stream.detect_hist_p99_us"] = median(h99)
	res.values["stream.queue_depth_mean"] = median(depthMean)
	res.values["stream.queue_depth_max"] = float64(depthMax)
	res.values["stream.close_drain_ms"] = median(drainMs)
	res.values["stream.alert_latency_p50_ms"] = p50 / calmSlow
	res.values["stream.alert_latency_p90_ms"] = p90
	res.values["runtime.allocs_per_event"] = median(allocs)
	res.values["runtime.alloc_bytes_per_event"] = median(allocBytes)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.values["runtime.gc_pause_total_ms"] = float64(ms.PauseTotalNs) / 1e6
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.values["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	// The routed trip rows: the workload's own last traced flood pass
	// when it is routed, the harness's routed trip over the sample
	// otherwise.
	trip := lc.trip
	if cfg.w.routed && len(withTrace) > 0 {
		trip = withTrace[len(withTrace)-1].passStats
	}
	tripRows(res.values, trip)

	led := buildLedger(cfg.w, res.values, lc)
	res.values["ledger.attributed_us_per_event"] = led.attributedUs()
	// The harness's unit costs are as measured, so the ledger closes
	// against the flood CPU cost as measured too.
	res.values["ledger.residual_us_per_event"] = rawCPU - led.attributedUs()
	res.values["ledger.coverage_share"] = led.attributedUs() / rawCPU
	for layer, share := range led.shares() {
		res.values["ledger."+layer+"_share"] = share
	}
	res.values["bench.gen_late_p90_ms"] = lateP90
	res.values["bench.trace_overhead_share"] = 1 - refEPS(withTrace)/refEPS(plain)
	r.logf("ledger for %s (%.3f cpu-us/event in the median untraced flood pass, as measured):", cfg.w.name, rawCPU)
	for _, row := range led.rows {
		r.logf("  %-28s %9.1f ns x %.4f per event = %.4f us", row.name, row.unitNs, row.perEvent, row.us())
	}
	return finish()
}

// tripRows fills the cluster rows that need a live router: one routed
// flood pass with the timing transport on.
func tripRows(v map[string]float64, p passStats) {
	l := p.live
	n := float64(p.items)
	v["cluster.router_ingest_call_ns_per_line"] = float64(p.ingest.Nanoseconds()) / n
	v["cluster.posts"] = float64(l.posts)
	if l.posts > 0 {
		v["cluster.lines_per_post"] = n / float64(l.posts)
	} else {
		v["cluster.lines_per_post"] = 0
	}
	rtts := sortedCopy(l.postRTTs)
	v["cluster.post_rtt_ms_p50"], _ = percentile(rtts, 0.50)
	v["cluster.post_rtt_ms_p90"], _ = percentile(rtts, 0.90)
	v["cluster.wire_bytes_per_line"] = float64(l.postBytes) / n
	v["cluster.spilled_share"] = float64(l.router.Spilled) / n
	v["cluster.rejected_lines"] = float64(l.router.RejectedLines)
	v["cluster.flush_wait_ms"] = float64(l.flushWait) / float64(time.Millisecond)
	v["cluster.boot_election_ms"] = float64(l.election) / float64(time.Millisecond)
}
