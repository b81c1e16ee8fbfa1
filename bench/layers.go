package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"desh/internal/catalog"
	"desh/internal/chain"
	"desh/internal/cluster"
	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
	"desh/internal/stream"
)

// The layer harness: after the traced live phases, the same corpus is
// replayed through each package's public functions in isolation, one
// span per layerBlock events, on one goroutine. What comes out is a
// unit cost per layer that does not depend on the workload's shape;
// the ledger (ledger.go) supplies the shape.
const (
	// layerSample caps the corpus prefix the harness replays.
	layerSample = 65536
	layerBlock  = 4096
	// walSyncEvery is the streamer's default fsync cadence: the harness
	// times WAL.Sync after every so many appends, which the live
	// workloads leave out (system.go: walSyncNever).
	walSyncEvery = 64
	// minDetects is how many chain scorings a detect timing rests on; a
	// chatter sample closes only a few hundred chains, so they repeat.
	minDetects = 4096
	postBatch  = 256 // the router's default lines per POST
)

// layerCosts is the harness's output.
type layerCosts struct {
	values map[string]float64
	// chainsPerEvent is closed chains per offered event on this corpus.
	chainsPerEvent float64
	// trip is one routed flood pass over the sample (cluster rows).
	trip passStats
}

// blocks runs fn over [0,n) in layerBlock pieces, one span each, and
// returns the time spent inside fn.
func (r *runner) blocks(name string, n int, fn func(lo, hi int)) time.Duration {
	var total time.Duration
	for lo := 0; lo < n; lo += layerBlock {
		hi := lo + layerBlock
		if hi > n {
			hi = n
		}
		start := time.Now()
		fn(lo, hi)
		end := time.Now()
		r.cfg.tr.span(name, start, end)
		total += end.Sub(start)
	}
	return total
}

func per(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func dirBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}

func (r *runner) layerCosts() (*layerCosts, error) {
	lc := &layerCosts{values: map[string]float64{}}
	v := lc.values
	n := len(r.c.lines)
	if n > layerSample {
		n = layerSample
	}
	lines := r.c.lines[:n]
	dir := r.passDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p, err := core.Load(bytes.NewReader(r.model))
	if err != nil {
		return nil, err
	}
	fsys := faultfs.OS()

	// logparse: ParseLine over every line, Encoder.Encode over the keys
	// that survive the Safe filter.
	events := make([]logparse.Event, n)
	var perr error
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d := r.blocks("logparse.ParseLine", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if events[i], err = logparse.ParseLine(lines[i]); err != nil {
				perr = err
			}
		}
	})
	runtime.ReadMemStats(&ms1)
	if perr != nil {
		return nil, perr
	}
	v["logparse.parse_ns_per_line"] = per(d, n)
	v["logparse.parse_allocs_per_line"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)

	// label: Labeler.Label, the Safe filter in front of the queue.
	lab := p.Labeler()
	safe := make([]bool, n)
	nSafe := 0
	d = r.blocks("label.Label", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			safe[i] = lab.Label(events[i].Key) == catalog.Safe
		}
	})
	var kept []logparse.Event
	for i, s := range safe {
		if s {
			nSafe++
		} else {
			kept = append(kept, events[i])
		}
	}
	v["label.label_ns_per_event"] = per(d, n)
	v["label.safe_share"] = float64(nSafe) / float64(n)
	m := len(kept)

	enc := logparse.NewEncoderFromKeys(p.Encoder().Keys())
	encoded := make([]logparse.EncodedEvent, m)
	d = r.blocks("logparse.Encode", m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			encoded[i] = logparse.EncodedEvent{Event: kept[i], ID: enc.Encode(kept[i].Key)}
		}
	})
	v["logparse.encode_ns_per_event"] = per(d, m)

	// persist, write side: EncodeEvent, WAL.Append, WAL.Sync every 64.
	payloads := make([][]byte, m)
	d = r.blocks("persist.EncodeEvent", m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := kept[i]
			payloads[i] = persist.EncodeEvent(persist.EventRecord{TimeNano: e.Time.UnixNano(), Node: e.Node, Message: e.Message, Key: e.Key})
		}
	})
	v["persist.encode_event_ns_per_record"] = per(d, m)
	walDir := filepath.Join(dir, "wal")
	wal, err := persist.OpenWAL(fsys, walDir, 0, 1<<30, 0) // cadence driven by hand below
	if err != nil {
		return nil, err
	}
	var appendT, syncT time.Duration
	syncs := 0
	var werr error
	r.blocks("persist.WAL", m, func(lo, hi int) {
		for g := lo; g < hi; g += walSyncEvery {
			ge := g + walSyncEvery
			if ge > hi {
				ge = hi
			}
			t0 := time.Now()
			for i := g; i < ge; i++ {
				if _, err := wal.Append(payloads[i]); err != nil {
					werr = err
				}
			}
			t1 := time.Now()
			if err := wal.Sync(); err != nil {
				werr = err
			}
			syncT += time.Since(t1)
			appendT += t1.Sub(t0)
			syncs++
		}
	})
	if err := wal.Close(); err != nil {
		werr = err
	}
	if werr != nil {
		return nil, fmt.Errorf("wal: %w", werr)
	}
	v["persist.wal_append_ns_per_record"] = per(appendT, m)
	v["persist.wal_sync_us_per_call"] = per(syncT, syncs) / 1000
	v["persist.wal_bytes_per_record"] = float64(dirBytes(walDir)) / float64(m)

	// persist, read side: ReplayWAL, DecodeEvent, SnapshotStore.
	var replayed [][]byte
	start := time.Now()
	if _, err := persist.ReplayWAL(fsys, walDir, 0, func(_ uint64, payload []byte) error {
		replayed = append(replayed, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		return nil, err
	}
	d = time.Since(start)
	r.cfg.tr.span("persist.ReplayWAL", start, time.Now())
	v["persist.wal_replay_ns_per_record"] = per(d, len(replayed))
	d = r.blocks("persist.DecodeEvent", len(replayed), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// The first byte is the record type the caller dispatches on.
			if _, err := persist.DecodeEvent(replayed[i][1:]); err != nil {
				perr = err
			}
		}
	})
	if perr != nil {
		return nil, perr
	}
	v["persist.decode_event_ns_per_record"] = per(d, len(replayed))

	// chain: Tracker.Feed per node, in arrival order.
	chainCfg := p.Config().ChainCfg
	trackers := map[string]*chain.Tracker{}
	var chains []chain.Chain
	d = r.blocks("chain.Feed", m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ev := encoded[i]
			t := trackers[ev.Node]
			if t == nil {
				if t, err = chain.NewTracker(ev.Node, lab, chainCfg, 4096); err != nil {
					perr = err
					return
				}
				trackers[ev.Node] = t
			}
			closed, err := t.Feed(ev)
			if err != nil {
				perr = err
			}
			chains = append(chains, closed...)
		}
	})
	if perr != nil {
		return nil, perr
	}
	v["chain.feed_ns_per_event"] = per(d, m)
	v["chain.chains_closed"] = float64(len(chains))
	if len(chains) == 0 {
		return nil, fmt.Errorf("the %d-line sample closed no chain", n)
	}
	v["chain.events_per_chain"] = float64(m) / float64(len(chains))
	lc.chainsPerEvent = float64(len(chains)) / float64(n)

	// The snapshot payload is what a streamer snapshot mostly is: every
	// node's tracker state at this point of the stream.
	states := make(map[string]chain.TrackerState, len(trackers))
	for node, t := range trackers {
		states[node] = t.Snapshot()
	}
	snapDir := filepath.Join(dir, "snap")
	store, err := persist.NewSnapshotStore(fsys, snapDir)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := store.Save(uint64(m), states); err != nil {
		return nil, err
	}
	mid := time.Now()
	var loaded map[string]chain.TrackerState
	if _, ok, err := store.LoadLatest(&loaded); err != nil || !ok {
		return nil, fmt.Errorf("snapshot load: ok=%v err=%v", ok, err)
	}
	end := time.Now()
	r.cfg.tr.span("persist.SnapshotSave", start, mid)
	r.cfg.tr.span("persist.SnapshotLoad", mid, end)
	v["persist.snapshot_save_ms"] = float64(mid.Sub(start)) / float64(time.Millisecond)
	v["persist.snapshot_load_ms"] = float64(end.Sub(mid)) / float64(time.Millisecond)
	v["persist.snapshot_bytes"] = float64(dirBytes(snapDir))

	// core: Detector.Detect, DetectBatch at width 32, and the f32 twin.
	reps := (minDetects + len(chains) - 1) / len(chains)
	work := make([]chain.Chain, 0, reps*len(chains))
	for k := 0; k < reps; k++ {
		work = append(work, chains...)
	}
	steps, flagged := 0, 0
	det := p.NewDetector()
	d = r.blocks("core.Detect", len(work), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vd := det.Detect(work[i])
			if vd.Flagged {
				flagged++
			}
			if s := len(work[i].Entries) - 1; s > 0 {
				steps += s
			}
		}
	})
	v["core.detect_ns_per_chain"] = per(d, len(work))
	v["core.detect_ns_per_step"] = per(d, steps)
	v["core.flagged_share"] = float64(flagged) / float64(len(work))
	verdicts := make([]core.Verdict, microBatch)
	d = r.blocks("core.DetectBatch", len(work), func(lo, hi int) {
		for g := lo; g < hi; g += microBatch {
			ge := g + microBatch
			if ge > hi {
				ge = hi
			}
			det.DetectBatch(work[g:ge], verdicts[:ge-g])
		}
	})
	v["core.detect_batch32_ns_per_chain"] = per(d, len(work))
	det32, err := p.NewDetectorPrecision(core.PrecisionF32)
	if err != nil {
		return nil, err
	}
	d = r.blocks("core.Detect(f32)", len(work), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			det32.Detect(work[i])
		}
	})
	v["core.detect_f32_ns_per_chain"] = per(d, len(work))

	if err := r.kernelCosts(p, work, v); err != nil {
		return nil, err
	}
	if err := r.recoveryCost(lines, filepath.Join(dir, "recover"), v); err != nil {
		return nil, err
	}
	if err := r.clusterCosts(lines, events, dir, lc); err != nil {
		return nil, err
	}
	return lc, nil
}

// recoveryCost is the kill-and-recover drill in isolation: a durable
// streamer configured as failstorm_durable's ingests the sample, is
// killed once settled, and the boot on its state dir is timed.
func (r *runner) recoveryCost(lines []string, dir string, v map[string]float64) error {
	w, _ := workloadByName("failstorm_durable")
	c := &corpus{lines: lines}
	s, err := boot(w, c, r.model, dir, nil)
	if err != nil {
		return err
	}
	defer s.teardown()
	for i := range lines {
		if err := s.offer(i); err != nil {
			return err
		}
	}
	if err := s.settle(); err != nil {
		return err
	}
	s.kill(r.cfg.tr)
	took, replayed, _, err := r.recover(w, c, dir, r.cfg.tr)
	if err != nil {
		return err
	}
	v["stream.recovery_ms"] = float64(took) / float64(time.Millisecond)
	v["stream.recover_replayed_events"] = float64(replayed)
	v["stream.recover_ns_per_event"] = per(took, int(replayed))
	return nil
}

// clusterCosts measures the routed path's pieces: ring lookup, an
// instance's batch ingest called directly and over loopback HTTP (the
// difference is what the hop costs), and one routed flood pass.
func (r *runner) clusterCosts(lines []string, events []logparse.Event, dir string, lc *layerCosts) error {
	v := lc.values
	n := len(lines)
	names := make([]string, instances)
	for i := range names {
		names[i] = fmt.Sprintf("i%d", i)
	}
	ring := cluster.NewRing(names, 0)
	owned := 0
	d := r.blocks("cluster.Ring.Owner", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if ring.Owner(persist.NodeHash(events[i].Node)) == names[0] {
				owned++
			}
		}
	})
	v["cluster.ring_owner_ns_per_lookup"] = per(d, n)

	// One in-memory instance fed 256-line batches, first by direct call,
	// then a twin over loopback HTTP. No state dir: the WAL's cost has
	// its own rows, and fsync jitter would swamp the difference between
	// the two, which is the point of measuring both.
	newInstance := func(name string) (*cluster.Instance, *stream.Streamer, *collector, error) {
		st, err := newStreamer(r.model, append(servingOptions(instanceShards), stream.WithDedupWindow(dedupWindow))...)
		if err != nil {
			return nil, nil, nil, err
		}
		return cluster.NewInstance(name, st, nil), st, collect(st), nil
	}
	// Both are process CPU time from the first batch to the drained
	// streamer, not wall time: the shard, not the caller, is the slow
	// side of a one-shard instance, so the wall time of the two is the
	// same and only the CPU shows what the hop adds.
	batches := func(name string, send func(*cluster.Instance, *httptest.Server, []string) error) (float64, error) {
		inst, st, col, err := newInstance(name)
		if err != nil {
			return 0, err
		}
		srv := httptest.NewServer(inst.Handler())
		defer srv.Close()
		var ierr error
		cpu0 := cpuTime()
		r.blocks(name, n, func(lo, hi int) {
			for g := lo; g < hi; g += postBatch {
				if err := send(inst, srv, lines[g:min(g+postBatch, hi)]); err != nil {
					ierr = err
				}
			}
		})
		cerr := st.Close()
		<-col.done
		cpu := cpuTime() - cpu0
		if ierr != nil || cerr != nil {
			return 0, fmt.Errorf("%s: %v %v", name, ierr, cerr)
		}
		return per(cpu, n), nil
	}
	direct, err := batches("cluster.Instance.IngestLines", func(inst *cluster.Instance, _ *httptest.Server, batch []string) error {
		if rej, err := inst.IngestLines(batch); err != nil || len(rej) != 0 {
			return fmt.Errorf("%d rejected, err %v", len(rej), err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	posted, err := batches("cluster.POST /ingest", func(_ *cluster.Instance, srv *httptest.Server, batch []string) error {
		resp, err := srv.Client().Post(srv.URL+"/ingest", "text/plain", strings.NewReader(strings.Join(batch, "\n")))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /ingest: %s", resp.Status)
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["cluster.instance_ingest_ns_per_line"] = direct
	v["cluster.http_overhead_ns_per_line"] = posted - direct

	// The routed trip: router + two instances, one flood pass over the
	// sample with the timing transport on. The routed workload's own
	// traced passes supersede it (measure.go).
	w, _ := workloadByName("routed_raw")
	sub := &runner{cfg: r.cfg, model: r.model, c: &corpus{lines: lines}, floodN: n}
	sub.cfg.w = w
	sub.cfg.tmp = filepath.Join(dir, "trip")
	tr := r.cfg.tr
	if tr == nil {
		tr = newTracer() // the trip needs the timing transport either way
	}
	lc.trip, err = sub.floodPass(tr, nil)
	if err != nil {
		return fmt.Errorf("routed trip: %w", err)
	}
	for _, p := range sub.problems {
		r.problem("routed trip: %s", p)
	}
	return nil
}
