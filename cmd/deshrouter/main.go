// Command deshrouter is the ingest tier for a deshd cluster: it owns
// the consistent-hash ring over N deshd instances, forwards each raw
// log line to the instance owning its node, and keeps the cluster
// converged through failures — per-peer health probing with ejection
// and probation readmission, dead-peer takeover from a shared state
// directory, live range handoffs on readmission, and a local spill WAL
// so lines bound for an unreachable owner are delivered late instead
// of lost.
//
// Usage:
//
//	deshrouter -peers a=http://host1:8080=/shared/a,b=http://host2:8080=/shared/b \
//	           -spill-dir /var/lib/deshrouter -http :9090
//	deshgen -machine M2 | nc host 9090   # or POST lines to :9090/ingest
//
// Each -peers entry is name=url[=dir]; dir is the instance's state
// directory on a shared filesystem and enables takeover when that
// instance dies. GET /metrics returns the aggregated fleet view (router
// counters, per-instance snapshots, cross-fleet totals), GET
// /cluster/status the ring and per-peer health, GET /healthz liveness.
// SIGINT/SIGTERM flush the spill WAL and in-flight batches before exit;
// a second signal forces immediate exit without flushing.
//
// Passing -name enables replicated operation: several deshrouters with
// distinct names may front the same fleet. They elect one coordinator
// by quorum lease over the instances (lowest name wins, -lease-ttl
// bounds failover time); only the coordinator runs ejection, readmission
// and takeover orchestration, and only it accepts POST
// /cluster/rebalance (add/drain/remove of members at runtime). The
// others keep forwarding and spilling and stand by to take over.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"desh/internal/buildinfo"
	"desh/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deshrouter:", err)
		os.Exit(1)
	}
}

func parsePeers(spec string) ([]cluster.Peer, error) {
	var peers []cluster.Peer
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.SplitN(entry, "=", 3)
		if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=url[=dir])", entry)
		}
		p := cluster.Peer{Name: parts[0], URL: strings.TrimSuffix(parts[1], "/")}
		if len(parts) == 3 {
			p.Dir = parts[2]
		}
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is required (name=url[=dir],...)")
	}
	return peers, nil
}

func run() error {
	peersSpec := flag.String("peers", "", "cluster members: name=url[=dir],... (dir enables dead-peer takeover)")
	spillDir := flag.String("spill-dir", "", "local WAL for undeliverable lines (required)")
	httpAddr := flag.String("http", ":9090", "HTTP address for /ingest, /metrics, /cluster/status, /healthz")
	healthEvery := flag.Duration("health-interval", 250*time.Millisecond, "per-peer health probe period")
	healthTimeout := flag.Duration("health-timeout", time.Second, "single health probe timeout")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive probe failures before a peer is ejected")
	readmitThreshold := flag.Int("readmit-threshold", 3, "consecutive probe successes before an ejected peer rejoins")
	drainEvery := flag.Duration("drain-interval", 250*time.Millisecond, "spill WAL redelivery period")
	batchMax := flag.Int("batch-max", 0, "max events per forwarded POST (0 = default 1024; a sender never waits to fill one)")
	sendQueue := flag.Int("send-queue", 4096, "per-peer in-memory send queue; overflow spills")
	name := flag.String("name", "", "router name; enables coordinator election for replicated routers")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Second, "coordinator lease TTL (with -name); bounds failover time")
	flushTimeout := flag.Duration("flush-timeout", 10*time.Second, "shutdown bound on delivering queued and spilled lines")
	showVersion := flag.Bool("version", false, "print version information and exit")
	flag.Parse()
	if *showVersion {
		buildinfo.Fprint(os.Stdout, "deshrouter")
		return nil
	}

	peers, err := parsePeers(*peersSpec)
	if err != nil {
		return err
	}
	if *spillDir == "" {
		return fmt.Errorf("-spill-dir is required")
	}
	r, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:            peers,
		SpillDir:         *spillDir,
		HealthInterval:   *healthEvery,
		HealthTimeout:    *healthTimeout,
		FailThreshold:    *failThreshold,
		ReadmitThreshold: *readmitThreshold,
		DrainInterval:    *drainEvery,
		BatchMax:         *batchMax,
		SendQueue:        *sendQueue,
		Name:             *name,
		LeaseTTL:         *leaseTTL,
		Diag: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "deshrouter: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if *name != "" {
		fmt.Fprintf(os.Stderr, "deshrouter: %q routing for %d peer(s), spill in %s, lease TTL %v\n",
			*name, len(peers), *spillDir, *leaseTTL)
	} else {
		fmt.Fprintf(os.Stderr, "deshrouter: routing for %d peer(s), spill in %s\n", len(peers), *spillDir)
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		r.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "deshrouter: HTTP on %s\n", ln.Addr())
	srv := &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "deshrouter: http:", err)
		}
	}()

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	sig := <-sigC
	fmt.Fprintf(os.Stderr, "deshrouter: %v, flushing (signal again to force exit)\n", sig)
	go func() {
		sig2 := <-sigC
		fmt.Fprintf(os.Stderr, "deshrouter: %v again, forcing exit without flush\n", sig2)
		os.Exit(1)
	}()

	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = srv.Shutdown(sctx)
	cancel()
	fctx, fcancel := context.WithTimeout(context.Background(), *flushTimeout)
	if err := r.Flush(fctx); err != nil {
		fmt.Fprintln(os.Stderr, "deshrouter: flush:", err)
	}
	fcancel()
	snap := r.Metrics()
	if err := r.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"deshrouter: forwarded %d (errors %d, rejected %d), spilled %d (drained %d, errors %d), rebalances %d (ejections %d, readmits %d), handoff errors %d, takeover errors %d\n",
		snap.Forwarded, snap.ForwardErrors, snap.RejectedLines,
		snap.Spilled, snap.Drained, snap.SpillErrors,
		snap.Rebalances, snap.PeerUnhealthy, snap.Readmits,
		snap.HandoffErrors, snap.TakeoverErrors)
	if *name != "" {
		role := "standby"
		if snap.Coordinator {
			role = "coordinator"
		}
		fmt.Fprintf(os.Stderr, "deshrouter: exited as %s after %d election round(s)\n", role, snap.Elections)
	}
	return nil
}
