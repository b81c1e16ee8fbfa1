package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"desh/internal/persist"
)

// fleetTotals is the cross-instance rollup on the router's /metrics:
// the load-bearing counters summed over every reachable peer.
type fleetTotals struct {
	Peers             int   `json:"peers"`
	PeersHealthy      int   `json:"peers_healthy"`
	Ingested          int64 `json:"ingested"`
	Processed         int64 `json:"processed"`
	ChainsOpen        int64 `json:"chains_open"`
	ChainsClosed      int64 `json:"chains_closed"`
	AlertsFired       int64 `json:"alerts_fired"`
	Quarantined       int64 `json:"quarantined"`
	HandoffsStarted   int64 `json:"handoffs_started"`
	HandoffsCompleted int64 `json:"handoffs_completed"`
	HandoffsAborted   int64 `json:"handoffs_aborted"`
	HandoffImports    int64 `json:"handoff_imports"`
	OwnedRanges       int   `json:"owned_ranges"`
}

// clusterMetrics is the router's /metrics body: its own counters, the
// fleet rollup, and each peer's full instance snapshot (or the fetch
// error, so one dead peer doesn't blank the whole view).
type clusterMetrics struct {
	Router RouterMetricsSnapshot `json:"router"`
	Fleet  fleetTotals           `json:"fleet"`
	Peers  map[string]any        `json:"peers"`
}

// peerStatus is one row of /cluster/status.
type peerStatus struct {
	Name    string              `json:"name"`
	URL     string              `json:"url"`
	State   string              `json:"state"`
	Healthy bool                `json:"healthy"`
	InRing  bool                `json:"in_ring"`
	Ranges  []persist.HashRange `json:"ranges"`
}

// Handler returns the router's HTTP surface: POST /ingest (raw lines,
// routed to owners), GET /metrics (aggregated fleet view), GET
// /cluster/status (ring membership and health), POST/GET
// /cluster/rebalance (administrative membership changes, coordinator
// only), GET /healthz.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", r.handleIngest)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/cluster/status", r.handleStatus)
	mux.HandleFunc("/cluster/rebalance", r.handleRebalance)
	mux.HandleFunc("/healthz", healthz)
	return mux
}

// handleRebalance: POST starts an administrative membership change
// (202 with the initial status; 409 when not the coordinator or one is
// already running), GET reports progress of the running or last one.
func (r *Router) handleRebalance(w http.ResponseWriter, req *http.Request) {
	if req.Method == http.MethodGet {
		writeJSON(w, r.RebalanceStatus())
		return
	}
	var rb RebalanceRequest
	if !readJSON(w, req, &rb, maxControlBody) {
		return
	}
	if err := r.StartRebalance(rb); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(r.RebalanceStatus())
}

func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	sc := ingestPool.Get().(*ingestScratch)
	defer sc.release()
	if !ingestBody(w, req, &sc.body) {
		return
	}
	lines, err := splitLines(sc.body.Bytes())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	malformed := 0
	for _, line := range lines {
		if r.IngestLine(line) != nil {
			malformed++
		}
	}
	writeJSON(w, map[string]int{"accepted": len(lines) - malformed, "malformed": malformed})
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	out := clusterMetrics{Router: r.Metrics(), Peers: make(map[string]any)}
	r.mu.RLock()
	peers := make([]*peerState, 0, len(r.peers))
	for _, ps := range r.peers {
		peers = append(peers, ps)
	}
	r.mu.RUnlock()
	out.Fleet.Peers = len(peers)
	// One slow peer must not serialize the whole scrape: fetch all peer
	// snapshots concurrently, then fold.
	type fetched struct {
		name string
		m    *instanceMetrics
		err  error
	}
	results := make([]fetched, len(peers))
	var wg sync.WaitGroup
	for i, ps := range peers {
		wg.Add(1)
		go func(i int, ps *peerState) {
			defer wg.Done()
			var m instanceMetrics
			err := getJSON(r.client, ps.URL+"/metrics", &m)
			if err != nil {
				results[i] = fetched{name: ps.Name, err: err}
				return
			}
			results[i] = fetched{name: ps.Name, m: &m}
		}(i, ps)
	}
	wg.Wait()
	for i, res := range results {
		if res.err != nil {
			out.Peers[res.name] = map[string]string{"error": res.err.Error()}
			continue
		}
		if peers[i].healthy.Load() {
			out.Fleet.PeersHealthy++
		}
		m := res.m
		out.Peers[res.name] = m
		out.Fleet.Ingested += m.Ingested
		out.Fleet.Processed += m.Processed
		out.Fleet.ChainsOpen += m.ChainsOpen
		out.Fleet.ChainsClosed += m.ChainsClosed
		out.Fleet.AlertsFired += m.AlertsFired
		out.Fleet.Quarantined += m.Quarantined
		out.Fleet.HandoffsStarted += m.HandoffsStarted
		out.Fleet.HandoffsCompleted += m.HandoffsCompleted
		out.Fleet.HandoffsAborted += m.HandoffsAborted
		out.Fleet.HandoffImports += m.HandoffImports
		out.Fleet.OwnedRanges += m.OwnedRanges
	}
	writeJSON(w, out)
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rows := make([]peerStatus, 0, len(r.peers))
	for _, ps := range r.peers {
		state := persist.StateIn
		if m, ok := r.view.Member(ps.Name); ok {
			state = m.State
		}
		rows = append(rows, peerStatus{
			Name:    ps.Name,
			URL:     ps.URL,
			State:   state,
			Healthy: ps.healthy.Load(),
			InRing:  ps.inRing,
			Ranges:  r.ring.Ranges(ps.Name),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	writeJSON(w, struct {
		Router      string       `json:"router,omitempty"`
		Coordinator bool         `json:"coordinator"`
		Epoch       uint64       `json:"epoch"`
		Peers       []peerStatus `json:"peers"`
	}{Router: r.cfg.Name, Coordinator: r.IsCoordinator(), Epoch: r.epoch, Peers: rows})
}

// getJSON fetches url and decodes the JSON body into reply.
func getJSON(client *http.Client, url string, reply any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}
