// Command deshd is Desh's online inference daemon: the streaming
// counterpart of deshpredict. It loads a model trained by deshtrain,
// then continuously ingests raw log lines — from stdin or a file
// (-in), a line-oriented TCP listener (-listen), and/or an HTTP ingest
// endpoint (-http) — and prints one warning line per predicted node
// failure as the events arrive, instead of replaying a finished log
// after the fact.
//
// Usage:
//
//	deshgen -machine M2 | deshd -model desh.model -http :8080
//	deshd -model desh.model -listen :4224 -early -idle-flush 5m
//
// Warnings go to stdout; operational chatter to stderr. With -http,
// GET /metrics returns the counter registry as JSON (events ingested
// and dropped, open chains, alerts fired, per-shard queue depths, and
// the detect-latency histogram), POST /ingest accepts log lines,
// GET /healthz reports liveness, and /debug/vars exposes the same
// counters over expvar. SIGINT/SIGTERM drain every ingested event
// before exit; -once exits as soon as -in is fully drained (replay
// mode, used by the Makefile smoke test).
//
// Aggregated feeds deliver events out of order, duplicated, and
// occasionally from nodes with broken clocks: -allowed-lateness buffers
// and reorders per node, -dedup-window suppresses re-delivered lines,
// -skew-tolerance quarantines far-future timestamps, and
// -shed-policy degrade trades the least valuable events for liveness
// under overload (see the exit summary's "disorder:" line and the
// matching /metrics counters).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"desh"
	"desh/internal/buildinfo"
	"desh/internal/cluster"
	"desh/internal/retry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deshd:", err)
		os.Exit(1)
	}
}

func run() error {
	model := flag.String("model", "desh.model", "trained model file (from deshtrain)")
	in := flag.String("in", "-", `log input: "-" for stdin, a file path, or "" to disable`)
	listen := flag.String("listen", "", "line-oriented TCP ingest address (e.g. :4224); empty disables")
	tcpDial := flag.String("tcp", "", "dial a line-oriented TCP log source (host:port) and ingest from it, reconnecting with backoff; empty disables")
	clusterName := flag.String("cluster-name", "", "join a deshrouter cluster as this member name (requires -http; adds /cluster/* control plane)")
	httpAddr := flag.String("http", "", "HTTP address for /metrics, /ingest, /healthz, /debug/vars; empty disables")
	shards := flag.Int("shards", 0, "per-node state shards (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 1024, "per-shard ingest queue depth")
	drop := flag.Bool("drop", false, "shed load when a shard queue fills instead of blocking ingest")
	quiet := flag.Duration("quiet", 2*time.Minute, "per-node alert dedup window in log time (0 disables)")
	early := flag.Bool("early", false, "raise provisional alerts while a chain is still open")
	idle := flag.Duration("idle-flush", 0, "score a node's open chain after this much wall-clock silence (0 disables)")
	window := flag.Int("window", 4096, "per-node open-chain window bound (0 = unbounded)")
	once := flag.Bool("once", false, "exit after -in reaches EOF and all events drain (replay mode)")
	stateDir := flag.String("state-dir", "", "crash-recovery state directory (snapshots + WAL); empty disables persistence")
	snapEvery := flag.Duration("snapshot-every", 30*time.Second, "period between state snapshots (with -state-dir)")
	lateness := flag.Duration("allowed-lateness", 0, "per-node event-time reorder window (0 disables reordering)")
	late := flag.String("late", "feed", `late-event policy: "feed" (clamped timestamp) or "drop"`)
	dedup := flag.Int("dedup-window", 0, "per-node duplicate-suppression ring size (0 disables)")
	skew := flag.Duration("skew-tolerance", 0, "quarantine events this far ahead of the local clock (0 disables)")
	shed := flag.String("shed-policy", "off", `overload degradation: "off" or "degrade" (walk shed levels under pressure)`)
	microBatch := flag.Int("micro-batch", 32, "cap on the queued events one shard wakeup takes (1 = one event per wakeup); chains are scored as they close, so the width changes no alert")
	precision := flag.String("precision", "f64", `serving precision: "f64" (bit-identical to batch) or "f32" (float32 kernels, alert-equivalent)`)
	retrainEvery := flag.Duration("retrain-every", 0, "retrain a candidate model from the WAL at this interval (0 disables; requires -state-dir)")
	driftThreshold := flag.Float64("drift-threshold", 0, "retrain when the drift score reaches this (0 disables; requires -state-dir)")
	shadowWindow := flag.Int("shadow-window", 200, "closed-chain verdicts a candidate is shadow-scored on before swapping")
	swapPolicy := flag.String("swap-policy", "auto", `candidate promotion: "auto" (shadow-gate then swap), "shadow" (evaluate only), "immediate"`)
	showVersion := flag.Bool("version", false, "print version information and exit")
	flag.Parse()
	if *showVersion {
		buildinfo.Fprint(os.Stdout, "deshd")
		return nil
	}

	mf, err := os.Open(*model)
	if err != nil {
		return err
	}
	p, err := desh.LoadPredictor(mf)
	mf.Close()
	if err != nil {
		return err
	}

	prec, err := desh.ParsePrecision(*precision)
	if err != nil {
		return err
	}

	opts := []desh.StreamOption{
		desh.WithQueueDepth(*queue),
		desh.WithQuietPeriod(*quiet),
		desh.WithEarlyDetect(*early),
		desh.WithIdleFlush(*idle),
		desh.WithMaxOpenWindow(*window),
		desh.WithMicroBatch(*microBatch),
		desh.WithPrecision(prec),
	}
	if *shards > 0 {
		opts = append(opts, desh.WithShards(*shards))
	}
	if *drop {
		opts = append(opts, desh.WithDropPolicy(desh.StreamDropNewest))
	}
	if *stateDir != "" {
		opts = append(opts, desh.WithStateDir(*stateDir), desh.WithSnapshotEvery(*snapEvery))
		fmt.Fprintf(os.Stderr, "deshd: crash recovery enabled, state in %s\n", *stateDir)
	}
	if *lateness > 0 {
		opts = append(opts, desh.WithAllowedLateness(*lateness))
	}
	switch *late {
	case "feed":
		opts = append(opts, desh.WithLatePolicy(desh.StreamLateFeed))
	case "drop":
		opts = append(opts, desh.WithLatePolicy(desh.StreamLateDrop))
	default:
		return fmt.Errorf("-late must be feed or drop, got %q", *late)
	}
	if *dedup > 0 {
		opts = append(opts, desh.WithDedupWindow(*dedup))
	}
	if *skew > 0 {
		opts = append(opts, desh.WithSkewTolerance(*skew))
	}
	switch *shed {
	case "off":
	case "degrade":
		opts = append(opts, desh.WithShedPolicy(desh.StreamShedDegrade))
	default:
		return fmt.Errorf("-shed-policy must be off or degrade, got %q", *shed)
	}
	opts = append(opts, desh.WithStreamDiag(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "deshd: "+format+"\n", args...)
	}))
	if *clusterName != "" && *httpAddr == "" {
		return fmt.Errorf("-cluster-name requires -http: the router drives this instance over its control plane")
	}
	s, err := desh.NewStreamer(p, opts...)
	if err != nil {
		return err
	}
	var inst *cluster.Instance
	if *clusterName != "" {
		inst = cluster.NewInstance(*clusterName, s, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "deshd: "+format+"\n", args...)
		})
		c := s.Control()
		if epoch, ranges := c.Owned(); epoch > 0 {
			fmt.Fprintf(os.Stderr, "deshd: recovered cluster ownership: epoch %d, %d range(s)\n", epoch, len(ranges))
		}
		if c.Lease != nil && c.Lease.Holder != "" {
			fmt.Fprintf(os.Stderr, "deshd: recovered coordinator lease: holder %q, fencing gen %d\n", c.Lease.Holder, c.Lease.Gen)
		}
		if c.View != nil {
			fmt.Fprintf(os.Stderr, "deshd: recovered membership view: epoch %d, %d member(s)\n", c.View.Epoch, len(c.View.Members))
		}
	}
	if replayed := s.SnapshotMetrics().ReplayedEvents; replayed > 0 {
		fmt.Fprintf(os.Stderr, "deshd: recovered %d events from the WAL tail\n", replayed)
	}
	if file := s.ActiveModelFile(); file != "" {
		fmt.Fprintf(os.Stderr, "deshd: serving hot-swapped model %s from the state dir\n", file)
	}
	boot := s.SnapshotMetrics()
	fmt.Fprintf(os.Stderr, "deshd: serving precision %s on the %s gate kernel and the %s activation kernel (weight conversions %d)\n",
		boot.ModelPrecision, boot.GateKernel, boot.ActivationKernel, boot.PrecisionConversions)

	var learner *desh.Learner
	if *retrainEvery > 0 || *driftThreshold > 0 {
		if *stateDir == "" {
			return fmt.Errorf("-retrain-every/-drift-threshold require -state-dir: the WAL is the retraining corpus")
		}
		policy, err := desh.ParseSwapPolicy(*swapPolicy)
		if err != nil {
			return err
		}
		learner, err = desh.NewLearner(s, p, desh.LearnerConfig{
			StateDir:       *stateDir,
			RetrainEvery:   *retrainEvery,
			DriftThreshold: *driftThreshold,
			ShadowWindow:   *shadowWindow,
			Policy:         policy,
			Diag:           os.Stderr, // lines arrive prefixed "adapt: "
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "deshd: continuous learning armed (policy %s, shadow window %d)\n", policy, *shadowWindow)
	}

	// Warning printer: runs until Close closes the alert channel, so
	// every alert from the final drain is still printed before exit.
	alertsDone := make(chan struct{})
	go func() {
		defer close(alertsDone)
		for a := range s.Alerts() {
			tag := ""
			if a.Provisional {
				tag = " [provisional]"
			}
			fmt.Printf("%s%s  in %.1f minutes, node %s located in %s is expected to fail (mse %.3f)\n",
				a.FlaggedAt.Format("2006-01-02T15:04:05"), tag,
				a.LeadSeconds/60, a.Node, desh.NodeLocation(a.Node), a.MSE)
		}
	}()

	var ln net.Listener
	if *listen != "" {
		ln, err = net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "deshd: TCP ingest on %s\n", ln.Addr())
		go func() {
			if err := s.ServeLines(ln); err != nil {
				fmt.Fprintln(os.Stderr, "deshd: tcp:", err)
			}
		}()
	}

	// Dial-out ingest: connect to a remote line source and reconnect
	// with capped exponential backoff — a source that is down at boot
	// (ECONNREFUSED) or drops mid-stream is retried, never fatal.
	dialStop := make(chan struct{})
	if *tcpDial != "" {
		go func() {
			pol := retry.Policy{Base: 100 * time.Millisecond, Max: 5 * time.Second}
			attempt := 0
			for {
				conn, err := net.Dial("tcp", *tcpDial)
				if err != nil {
					attempt++
					fmt.Fprintf(os.Stderr, "deshd: tcp dial %s: %v (attempt %d, retrying)\n", *tcpDial, err, attempt)
					if !pol.Wait(dialStop, attempt) {
						return
					}
					continue
				}
				attempt = 0
				fmt.Fprintf(os.Stderr, "deshd: tcp ingest from %s\n", conn.RemoteAddr())
				ierr := s.IngestReader(conn)
				conn.Close()
				if errors.Is(ierr, desh.ErrStreamClosed) {
					return
				}
				select {
				case <-dialStop:
					return
				default:
				}
				fmt.Fprintf(os.Stderr, "deshd: tcp source %s dropped, reconnecting\n", *tcpDial)
				if !pol.Wait(dialStop, attempt) {
					return
				}
			}
		}()
	}

	var srv *http.Server
	if *httpAddr != "" {
		start := time.Now()
		expvar.Publish("deshd", expvar.Func(func() any { return s.SnapshotMetrics() }))
		mux := http.NewServeMux()
		if inst != nil {
			// Cluster mode: the instance handler serves /ingest (ownership
			// gated), /metrics (with cluster epoch and owned ranges), and
			// the /cluster/* control plane the router drives.
			mux.Handle("/", inst.Handler())
		} else {
			mux.Handle("/metrics", s.MetricsHandler())
			mux.Handle("/ingest", s.IngestHandler())
			mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_s\":%.0f}\n", time.Since(start).Seconds())
			})
		}
		mux.Handle("/debug/vars", expvar.Handler())
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "deshd: HTTP on %s\n", hln.Addr())
		// ReadHeaderTimeout keeps a peer that opens a connection and never
		// finishes its headers from pinning a handler goroutine forever.
		srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := srv.Serve(hln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "deshd: http:", err)
			}
		}()
	}

	inDone := make(chan error, 1)
	if *in != "" {
		var r io.Reader
		if *in == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		go func() { inDone <- s.IngestReader(r) }()
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case sig := <-sigC:
			fmt.Fprintf(os.Stderr, "deshd: %v, draining\n", sig)
		case err := <-inDone:
			if err != nil && !errors.Is(err, desh.ErrStreamClosed) {
				fmt.Fprintln(os.Stderr, "deshd: ingest:", err)
			}
			if !*once {
				// Input exhausted but listeners stay up; keep serving.
				inDone = nil
				continue
			}
			fmt.Fprintln(os.Stderr, "deshd: input drained, shutting down")
		}
		break
	}

	close(dialStop)
	if ln != nil {
		ln.Close()
	}
	if learner != nil {
		learner.Close()
	}
	if err := s.Close(); err != nil {
		return err
	}
	<-alertsDone
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
	}
	snap := s.SnapshotMetrics()
	fmt.Fprintf(os.Stderr,
		"deshd: ingested %d (safe %d, malformed %d, oversized %d, dropped %d, quarantined %d), chains closed %d (quarantined %d), alerts fired %d (suppressed %d, undelivered %d), shard panics %d, batch occupancy %.2f, precision %s (conversions %d), gate kernel %s, activation kernel %s, detect p50 %.0fµs p99 %.0fµs (%d stamped, 1 admitted event in %d)\n",
		snap.Ingested, snap.SafeFiltered, snap.Malformed, snap.Oversized, snap.Dropped, snap.Quarantined,
		snap.ChainsClosed, snap.ChainsQuarantined, snap.AlertsFired, snap.AlertsSuppressed, snap.AlertsDropped,
		snap.ShardPanics, snap.BatchOccupancy,
		snap.ModelPrecision, snap.PrecisionConversions, snap.GateKernel, snap.ActivationKernel,
		snap.Detect.P50Micros, snap.Detect.P99Micros, snap.Detect.Count, snap.StampEvery)
	fmt.Fprintf(os.Stderr,
		"deshd: disorder: late %d (dropped %d, clamped %d), duplicates %d, skew-quarantined %d, reorder overflow %d, window evicted %d, shed %d (max level %d)\n",
		snap.Late, snap.LateDropped, snap.LateClamped, snap.Duplicates, snap.SkewQuarantined,
		snap.ReorderOverflow, snap.WindowEvicted, snap.Shed, snap.ShedLevelMax)
	if *stateDir != "" {
		fmt.Fprintf(os.Stderr, "deshd: durability: journaled %d events in %d wal writes (errors %d), snapshots %d, replayed at boot %d\n",
			snap.Ingested-snap.ReplayedEvents-snap.SafeFiltered-snap.SkewQuarantined-snap.Shed, snap.WALBatchAppends, snap.WALErrors, snap.Snapshots, snap.ReplayedEvents)
	}
	fmt.Fprintf(os.Stderr,
		"deshd: learning: drift %.2f, unseen phrases %d, retrains %d (failed %d), shadow scored %d (accepted %d, rejected %d, dropped %d), swaps %d (errors %d)\n",
		snap.DriftScore, snap.UnseenPhrases, snap.Retrains, snap.RetrainFailures,
		snap.ShadowScored, snap.ShadowAccepted, snap.ShadowRejected, snap.ShadowDropped,
		snap.Swaps, snap.SwapErrors)
	return nil
}
