package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"desh/internal/logparse"
	"desh/internal/par"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
	"desh/internal/retry"
)

// ErrRouterClosed is returned by ingest entry points after Close.
var ErrRouterClosed = errors.New("cluster: router is closed")

// forwardRetry is the per-batch forward backoff: 10ms base, 1s cap, 4
// attempts within 15s, after which the batch spills.
var forwardRetry = retry.Policy{Attempts: 4, MaxElapsed: 15 * time.Second}

// Peer describes one cluster instance the router fronts.
type Peer struct {
	// Name is the stable member name (ring placement hashes it).
	Name string
	// URL is the instance's HTTP base, e.g. "http://10.0.0.7:8080".
	URL string
	// Dir is the instance's state directory on the shared filesystem —
	// the takeover source if the instance dies (empty disables
	// takeover for this peer).
	Dir string
}

// RouterConfig tunes a Router. Zero fields take the documented
// defaults.
type RouterConfig struct {
	// Peers is the initial membership (at least one required).
	Peers []Peer
	// SpillDir is the router's local WAL for events it cannot deliver
	// right now — owner unreachable, range frozen mid-handoff, sender
	// backlogged. Spilled lines redeliver in order once the owner
	// recovers; the WAL bounds memory while losing nothing. Required.
	SpillDir string
	// HealthInterval is the per-peer probe period (default 250ms).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 1s).
	HealthTimeout time.Duration
	// FailThreshold consecutive probe failures eject a peer from the
	// ring (default 3).
	FailThreshold int
	// ReadmitThreshold consecutive probe successes readmit an ejected
	// peer — probation, so a flapping peer does not thrash the ring
	// (default 3).
	ReadmitThreshold int
	// DrainInterval is the spill-WAL redelivery period (default 250ms).
	DrainInterval time.Duration
	// BatchMax caps events per forwarded POST (default 1024); a sender
	// never waits for a batch to fill.
	BatchMax int
	// SendQueue bounds each peer's in-memory sender queue; overflow
	// spills (default 4096).
	SendQueue int
	// Diag, when set, receives one-line operational diagnostics.
	Diag func(format string, args ...any)

	// Name identifies this router in the coordinator election. Empty
	// disables election entirely: the router always coordinates —
	// the single-router deployment, unchanged from before replication.
	Name string
	// LeaseTTL is the coordinator lease duration granted by each
	// instance (default 2s). Shorter means faster failover; the lease
	// renews every LeaseTTL/3.
	LeaseTTL time.Duration
	// Transport overrides the HTTP transport for every client the
	// router builds — the fault-injection seam the chaos harness uses
	// to partition a router from a subset of peers.
	Transport http.RoundTripper
	// HookRebalanceStep, when set, runs synchronously at each named
	// step boundary of a planned rebalance (and of a converge-driven
	// resume) — the chaos seam for killing a coordinator mid-protocol.
	HookRebalanceStep func(step string)
}

// RouterMetrics is the router's own counter registry.
type RouterMetrics struct {
	// Forwarded counts lines accepted by an owner; ForwardErrors counts
	// batches that exhausted their retries; Posts counts the /ingest
	// POSTs an owner answered 200 and WireBytes their bodies.
	Forwarded     atomic.Int64
	ForwardErrors atomic.Int64
	Posts         atomic.Int64
	WireBytes     atomic.Int64
	// Malformed counts lines the router could not parse a node from.
	Malformed atomic.Int64
	// Spilled counts lines written to the spill WAL; Drained counts
	// lines redelivered from it; SpillErrors counts spill appends or
	// replays that failed.
	Spilled     atomic.Int64
	Drained     atomic.Int64
	SpillErrors atomic.Int64
	// RejectedLines counts lines an instance bounced (not owned or
	// frozen); each bounce respills for redelivery.
	RejectedLines atomic.Int64
	// PeerUnhealthy counts ejections; Readmits counts probation
	// re-admissions; Rebalances counts both kinds of ring change.
	PeerUnhealthy atomic.Int64
	Readmits      atomic.Int64
	Rebalances    atomic.Int64
	// HandoffErrors / TakeoverErrors count failed migration calls
	// during a rebalance (the affected ranges serve cold).
	HandoffErrors  atomic.Int64
	TakeoverErrors atomic.Int64
	// Elections counts transitions into the coordinator role.
	Elections atomic.Int64
}

// RouterMetricsSnapshot is the JSON view of RouterMetrics plus the
// current epoch.
type RouterMetricsSnapshot struct {
	Epoch          uint64 `json:"cluster_epoch"`
	Forwarded      int64  `json:"forwarded"`
	ForwardErrors  int64  `json:"forward_errors"`
	Posts          int64  `json:"posts"`
	WireBytes      int64  `json:"wire_bytes"`
	Malformed      int64  `json:"malformed"`
	Spilled        int64  `json:"spilled"`
	Drained        int64  `json:"drained"`
	SpillErrors    int64  `json:"spill_errors"`
	RejectedLines  int64  `json:"rejected_lines"`
	PeerUnhealthy  int64  `json:"peer_unhealthy"`
	Readmits       int64  `json:"readmits"`
	Rebalances     int64  `json:"rebalances"`
	HandoffErrors  int64  `json:"handoff_errors"`
	TakeoverErrors int64  `json:"takeover_errors"`
	Coordinator    bool   `json:"coordinator"`
	Elections      int64  `json:"elections"`
}

type peerState struct {
	Peer
	// q holds the routed events awaiting this peer's sender, which takes
	// them a POST body at a time.
	q       *par.Queue[logparse.Event]
	healthy atomic.Bool
	// stop ends this peer's sender/health goroutines when the member
	// leaves the cluster view (the router itself keeps running).
	stop chan struct{}
	// fails / oks are consecutive probe counts, touched only by the
	// peer's health goroutine.
	fails int
	oks   int
}

// Router is the fault-tolerant ingest tier: it parses incoming lines,
// routes each to its node's owner on the consistent-hash ring, and
// keeps the cluster converged — per-peer health probing with
// failure-threshold ejection and probation readmission, takeover
// orchestration for dead peers, live handoffs for readmitted ones,
// and a spill WAL so no event is lost while any of that is happening.
type Router struct {
	cfg    RouterConfig
	client *http.Client
	// leaseClient is the short-timeout client for lease polls: one
	// unresponsive instance must never stall the election round past
	// the TTL.
	leaseClient *http.Client
	fsys        faultfs.FS

	mu   sync.RWMutex // ring, owners, view, peers, gens
	ring *Ring
	// owners[i] is the peer of the ring's i-th point, so route finds an
	// owner by index and never looks up a member by name.
	owners []*peerState
	view   persist.ViewRecord
	peers  map[string]*peerState
	// gens holds the newest fencing generation each member reported in a
	// lease reply; control posts to it are stamped with that.
	gens map[string]uint64

	// Coordinator election (see coordinator.go): coordinator flips with
	// quorum lease grants (always set with election off); killed marks a
	// simulated SIGKILL so shutdown skips the graceful lease release.
	coordinator atomic.Bool
	killed      atomic.Bool

	// rebalStMu guards rebalSt, the progress report of the running (or
	// last) administrative rebalance.
	rebalStMu sync.Mutex
	rebalSt   RebalanceStatus

	// rebalMu serializes membership changes end to end.
	rebalMu sync.Mutex

	// drainMu serializes whole drain passes (the drain ticker vs Flush): a
	// second rotation while the first pass is still re-routing would
	// replay the not-yet-truncated records again and double-deliver.
	drainMu sync.Mutex

	spillMu sync.Mutex
	spill   *persist.WAL
	spillN  int64 // records appended since the last drain rotation
	// outstanding counts events from route until their batch's fate is
	// recorded; one that spills enters spillN before it leaves.
	outstanding atomic.Int64
	progress    chan struct{} // wakes Flush after each batch

	met    RouterMetrics
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	closeMu sync.Mutex  // serialises shut against goTracked's wg.Add
	closed  atomic.Bool // written once, under closeMu; IngestLine reads it bare
}

// NewRouter builds and starts a router: the spill WAL is opened (and
// any records left by a previous run queued for redelivery), sender,
// health and drain goroutines start, and — with election off — the
// ownership of the epoch-1 ring is pushed to every peer.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one peer")
	}
	if cfg.SpillDir == "" {
		return nil, fmt.Errorf("cluster: router needs a spill dir")
	}
	orDefault(&cfg.HealthInterval, 250*time.Millisecond)
	orDefault(&cfg.HealthTimeout, time.Second)
	orDefault(&cfg.FailThreshold, 3)
	orDefault(&cfg.ReadmitThreshold, 3)
	orDefault(&cfg.DrainInterval, 250*time.Millisecond)
	if cfg.Name != "" {
		orDefault(&cfg.LeaseTTL, 2*time.Second)
	}
	orDefault(&cfg.BatchMax, 1024)
	orDefault(&cfg.SendQueue, 4096)
	fsys := faultfs.OS()
	if err := fsys.MkdirAll(cfg.SpillDir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: spill dir: %w", err)
	}
	// A previous run's spill segments redeliver on the first drain; the
	// scan also finds where the WAL sequence left off.
	stats, err := persist.ReplayWAL(fsys, cfg.SpillDir, 0, func(uint64, []byte) error { return nil })
	if err != nil {
		return nil, fmt.Errorf("cluster: spill scan: %w", err)
	}
	if err := persist.RepairTail(fsys, cfg.SpillDir, stats); err != nil {
		return nil, fmt.Errorf("cluster: spill repair: %w", err)
	}
	spill, err := persist.OpenWAL(fsys, cfg.SpillDir, stats.NextSeq, 1, 0)
	if err != nil {
		return nil, fmt.Errorf("cluster: spill wal: %w", err)
	}
	view := persist.ViewRecord{Epoch: 1}
	for _, p := range cfg.Peers {
		if _, dup := view.Member(p.Name); dup {
			spill.Close()
			return nil, fmt.Errorf("cluster: duplicate peer name %q", p.Name)
		}
		view.Members = append(view.Members, persist.ViewMember{Name: p.Name, URL: p.URL, Dir: p.Dir, State: persist.StateIn})
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Router{
		cfg:         cfg,
		client:      &http.Client{Timeout: 30 * time.Second, Transport: cfg.Transport},
		leaseClient: &http.Client{Timeout: cfg.HealthTimeout, Transport: cfg.Transport},
		fsys:        fsys,
		peers:       make(map[string]*peerState, len(cfg.Peers)),
		gens:        make(map[string]uint64),
		spill:       spill,
		progress:    make(chan struct{}, 1),
		ctx:         ctx,
		cancel:      cancel,
	}
	if stats.Records > 0 {
		r.spillMu.Lock()
		r.spillN = int64(stats.Records)
		r.spillMu.Unlock()
	}
	r.coordinator.Store(cfg.Name == "") // with election off, always
	// The epoch-1 view starts every peer's sender and health goroutines.
	r.installView(view)
	if cfg.Name != "" {
		// Replicated deployment: ownership and views converge through the
		// elected coordinator, never through every router's boot — two
		// routers pushing epoch 1 concurrently would be two authorities.
		r.goTracked(r.electLoop)
	} else {
		r.publish(r.view, r.view.Members, false)
	}
	r.goTracked(func() { r.every(r.cfg.DrainInterval, nil, r.drainSpill) })
	return r, nil
}

// orDefault replaces a setting left at zero (or below) by its default.
func orDefault[T int | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

func (r *Router) diagf(format string, args ...any) {
	if r.cfg.Diag != nil {
		r.cfg.Diag(format, args...)
	}
}

// Epoch returns the current cluster epoch.
func (r *Router) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.view.Epoch
}

// IngestLine routes one raw log line to its node's owner, parsing it
// here and nowhere after: the event is what is queued, spilled and sent.
// Lines that cannot be delivered right now spill durably and redeliver
// later; only parse failures are returned.
func (r *Router) IngestLine(line string) error {
	if r.closed.Load() {
		return ErrRouterClosed
	}
	ev, err := parseLine(line)
	if err != nil {
		r.met.Malformed.Add(1)
		return err
	}
	if ev.Node == "" { // blank
		return nil
	}
	r.route(&ev)
	return nil
}

// route enqueues a copy of ev for its owner's sender, spilling when the
// owner is unknown, unhealthy, or backlogged.
func (r *Router) route(ev *logparse.Event) {
	r.outstanding.Add(1)
	// Put under the read lock: a departing member leaves r.owners under the
	// write lock before stopPeer sweeps its queue, so nothing lands behind it.
	r.mu.RLock()
	if i := r.ring.owner(persist.NodeHash(ev.Node)); i >= 0 {
		ps := r.owners[i]
		if ps.healthy.Load() {
			if put, _ := ps.q.PutN(1, false, func(slot *logparse.Event) { *slot = *ev }); put == 1 {
				r.mu.RUnlock()
				return
			}
		}
	}
	r.mu.RUnlock()
	r.spillRecord(persist.EncodeEvent(persist.RecordOf(*ev)))
	r.outstanding.Add(-1)
}

// spillRecord appends one event record to the spill WAL.
func (r *Router) spillRecord(rec []byte) {
	r.spillMu.Lock()
	_, err := r.spill.Append(rec)
	if err == nil {
		r.spillN++
	}
	r.spillMu.Unlock()
	if err != nil {
		r.met.SpillErrors.Add(1)
		r.diagf("cluster: spill append: %v", err)
		return
	}
	r.met.Spilled.Add(1)
}

// maxWireBody is where a sender cuts a body short of BatchMax events:
// far enough under maxIngestBody that the record which crosses it (a
// line is at most logparse.MaxLineBytes, its record under three times
// that) still fits, so a full batch never trips its own peer's cap.
const maxWireBody = maxIngestBody - 3*logparse.MaxLineBytes

// wireBound bounds the bytes ev adds to a body: its three strings plus
// the frame length, type byte, time varint and three length prefixes.
func wireBound(ev *logparse.Event) int {
	return 24 + len(ev.Node) + len(ev.Message) + len(ev.Key)
}

// sender is one peer's delivery goroutine: it coalesces queued events
// into batches and POSTs them with bounded retry, spilling what it
// cannot deliver. One goroutine per peer keeps per-peer delivery FIFO.
// A body takes queued events a chunk per lock, up to BatchMax events or
// until the bound on its size reaches maxWireBody; every event taken
// goes into the body being built, so none is held outside the queue.
func (r *Router) sender(ps *peerState) {
	var (
		batch persist.EventBatch
		evs   []logparse.Event
		bound int
	)
	full := func(ev *logparse.Event) bool {
		bound += wireBound(ev)
		return bound >= maxWireBody
	}
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-ps.stop:
			return
		default:
		}
		batch.Reset()
		bound = 0
		for batch.Len() < r.cfg.BatchMax && bound < maxWireBody {
			evs, _ = ps.q.Take(evs[:0], r.cfg.BatchMax-batch.Len(), full)
			if len(evs) == 0 {
				break
			}
			for i := range evs {
				batch.Add(&evs[i])
			}
		}
		if batch.Len() == 0 {
			select {
			case <-r.ctx.Done():
				return
			case <-ps.stop:
				return
			case <-ps.q.Ready():
			}
			continue
		}
		r.sendBatch(ps, &batch)
		r.outstanding.Add(-int64(batch.Len()))
		select {
		case r.progress <- struct{}{}:
		default:
		}
	}
}

func (r *Router) sendBatch(ps *peerState, batch *persist.EventBatch) {
	n := batch.Len()
	var reply ingestReply
	err := forwardRetry.DoCtx(r.ctx, func(ctx context.Context) error {
		reply = ingestReply{}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ps.URL+"/ingest", bytes.NewReader(batch.Bytes()))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", recordContentType)
		resp, err := r.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", ps.URL, resp.Status)
		}
		return json.NewDecoder(resp.Body).Decode(&reply)
	})
	if err != nil {
		// Undeliverable for now: every event in the batch spills, the
		// health loop decides the peer's fate.
		r.met.ForwardErrors.Add(1)
		for i := 0; i < n; i++ {
			r.spillRecord(batch.Record(i))
		}
		return
	}
	r.met.Posts.Add(1)
	r.met.WireBytes.Add(int64(len(batch.Bytes())))
	r.met.Forwarded.Add(int64(n - len(reply.Rejected)))
	if len(reply.Rejected) > 0 {
		// Bounced events (not owned / frozen) respool in order; the drain
		// redelivers them to whoever owns the range by then.
		r.met.RejectedLines.Add(int64(len(reply.Rejected)))
		for _, i := range reply.Rejected {
			if i >= 0 && i < n {
				r.spillRecord(batch.Record(i))
			}
		}
	}
}

// every runs fn each interval d until shutdown, or until stop (when
// not nil) closes.
func (r *Router) every(d time.Duration, stop <-chan struct{}, fn func()) {
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-stop:
			return
		case <-t.C:
			fn()
		}
	}
}

// drainSpill rotates the spill WAL at a boundary, re-routes every
// record below it, then truncates what it re-routed. Lines that still
// cannot be delivered respill above the boundary and survive for the
// next pass — at-least-once redelivery, with the instances' dedup
// rings absorbing the repeats.
func (r *Router) drainSpill() {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	r.spillMu.Lock()
	if r.spillN == 0 {
		r.spillMu.Unlock()
		return
	}
	boundary, err := r.spill.Rotate()
	if err != nil {
		r.spillMu.Unlock()
		r.met.SpillErrors.Add(1)
		return
	}
	r.spillN = 0
	r.spillMu.Unlock()
	var evs []logparse.Event
	_, rerr := persist.ReplayWAL(r.fsys, r.cfg.SpillDir, 0, func(seq uint64, payload []byte) error {
		if seq >= boundary || len(payload) == 0 {
			return nil
		}
		if payload[0] == persist.RecEvent {
			if rec, err := persist.DecodeEvent(payload[1:]); err == nil {
				evs = append(evs, rec.Event())
			}
			return nil
		}
		// A spill dir written before records went on the wire holds raw
		// lines (first byte a timestamp digit, never RecEvent); they
		// drain through the parser one last time.
		if ev, err := parseLine(string(payload)); err == nil && ev.Node != "" {
			evs = append(evs, ev)
		}
		return nil
	})
	if rerr != nil {
		// Damaged spill segments cannot be redelivered; dropping them is
		// the only way out of an otherwise-permanent replay loop.
		r.met.SpillErrors.Add(1)
		r.diagf("cluster: spill replay: %v", rerr)
	}
	for i := range evs {
		r.route(&evs[i])
	}
	_ = r.spill.RemoveSegmentsBelow(boundary)
	r.met.Drained.Add(int64(len(evs)))
}

func (r *Router) probe(ps *peerState) {
	ctx, cancel := context.WithTimeout(r.ctx, r.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ps.URL+"/healthz", nil)
	ok := false
	if err == nil {
		resp, rerr := r.client.Do(req)
		if rerr == nil {
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	r.mu.RLock()
	m, _ := r.view.Member(ps.Name)
	r.mu.RUnlock()
	inRing := m.InRing()
	if ok {
		ps.fails = 0
		ps.oks++
		if !inRing && ps.oks >= r.cfg.ReadmitThreshold && r.IsCoordinator() {
			_ = r.rebalance(RebalanceRequest{Action: "readmit", Name: ps.Name}) // only errNoChange: readmitted already
		} else if inRing && !ps.healthy.Load() && ps.oks >= r.cfg.ReadmitThreshold {
			// A router that locally marked an in-ring peer down resumes
			// direct delivery once the peer answers again.
			ps.healthy.Store(true)
		}
		return
	}
	ps.oks = 0
	ps.fails++
	if inRing && ps.fails >= r.cfg.FailThreshold {
		if r.IsCoordinator() {
			_ = r.rebalance(RebalanceRequest{Action: "eject", Name: ps.Name}) // only errNoChange: ejected already
		} else if ps.healthy.Load() {
			// Only the coordinator mutates the cluster view; every other
			// router just stops hammering the dead peer and spills its
			// lines for redelivery after the coordinator's eject lands.
			ps.healthy.Store(false)
			r.met.PeerUnhealthy.Add(1)
		}
	}
}

// installView adopts a cluster view with a newer epoch: the ring
// rebuilds from the view's in-ring members, new members gain sender
// and health goroutines, members that left lose theirs (their queued
// lines respill), and a member whose ring state changed has its local
// health flag flipped to match. Views at or below the installed epoch
// are ignored — epochs only move forward. Reports whether the view
// was installed.
func (r *Router) installView(v persist.ViewRecord) bool {
	r.mu.Lock()
	if v.Epoch <= r.view.Epoch {
		r.mu.Unlock()
		return false
	}
	old := r.view
	r.view = v.Clone()
	r.ring = NewRing(v.RingMembers(), 0)
	var started, stopped []*peerState
	for _, m := range v.Members {
		ps := r.peers[m.Name]
		if ps == nil {
			ps = &peerState{Peer: Peer{Name: m.Name, URL: m.URL, Dir: m.Dir}, q: par.NewQueue[logparse.Event](r.cfg.SendQueue), stop: make(chan struct{})}
			ps.healthy.Store(m.InRing())
			r.peers[m.Name] = ps
			started = append(started, ps)
		} else if om, ok := old.Member(m.Name); ok && om.InRing() != m.InRing() {
			ps.healthy.Store(m.InRing())
		}
	}
	for name, ps := range r.peers {
		if _, ok := v.Member(name); !ok {
			delete(r.peers, name)
			stopped = append(stopped, ps)
		}
	}
	// Every ring member is a view member, so each point has its peer.
	r.owners = make([]*peerState, len(r.ring.points))
	for i, p := range r.ring.points {
		r.owners[i] = r.peers[p.member]
	}
	r.mu.Unlock()
	for _, ps := range started {
		r.startPeer(ps)
	}
	for _, ps := range stopped {
		r.stopPeer(ps)
	}
	return true
}

// startPeer launches a peer's sender and health goroutines (neither
// starts once shutdown has begun).
func (r *Router) startPeer(ps *peerState) {
	r.goTracked(func() { r.sender(ps) })
	r.goTracked(func() { r.every(r.cfg.HealthInterval, ps.stop, func() { r.probe(ps) }) })
}

// stopPeer ends a departed member's goroutines and respills whatever
// was queued for it — the next drain re-routes those events to the
// ranges' new owners.
func (r *Router) stopPeer(ps *peerState) {
	close(ps.stop)
	var evs []logparse.Event
	for {
		evs, _ = ps.q.Take(evs[:0], ps.q.Cap(), nil)
		if len(evs) == 0 {
			return
		}
		for i := range evs {
			r.spillRecord(persist.EncodeEvent(persist.RecordOf(evs[i])))
			r.outstanding.Add(-1)
		}
	}
}

// goTracked runs fn on a WaitGroup-tracked goroutine, refusing once
// shutdown has begun. Reports whether fn was started.
func (r *Router) goTracked(fn func()) bool {
	r.closeMu.Lock()
	if r.closed.Load() {
		r.closeMu.Unlock()
		return false
	}
	r.wg.Add(1)
	r.closeMu.Unlock()
	go func() {
		defer r.wg.Done()
		fn()
	}()
	return true
}

// healthy reports whether this router delivers to the named peer.
func (r *Router) healthy(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ps := r.peers[name]
	return ps != nil && ps.healthy.Load()
}

// genFor returns the fencing generation to stamp on a control post to
// the named peer: the newest generation that peer reported in a lease
// reply, or 0 (unfenced) with election off.
func (r *Router) genFor(name string) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gens[name]
}

// Flush drives the router to quiescence: every queued, in-flight and
// spilled line delivered (or ctx expired). It returns on the first
// quiescent observation, waking on sender progress or a backed-off poll.
func (r *Router) Flush(ctx context.Context) error {
	for wait := time.Millisecond; ; wait = min(2*wait, 20*time.Millisecond) {
		r.drainSpill()
		if r.quiescent() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-r.progress:
		case <-time.After(wait):
		}
	}
}

// quiescent reports, exactly, whether the router holds no event. With
// no drain pass running (drainMu) an event only leaves outstanding as
// forwarded or into the spill, entering spillN first: outstanding read
// as zero and then spillN as zero means nothing was in between.
func (r *Router) quiescent() bool {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	r.spillMu.Lock()
	defer r.spillMu.Unlock()
	return r.outstanding.Load() == 0 && r.spillN == 0
}

// Kill simulates a SIGKILL for the chaos harness: ingest stops and
// background goroutines are cancelled, but nothing is waited for, no
// lease is released, and the spill WAL is left unclosed — the state a
// killed process leaves behind. Safe to call from inside a
// rebalance-step hook (Close would deadlock there: the hook runs on a
// WaitGroup goroutine Close waits for).
func (r *Router) Kill() {
	r.killed.Store(true)
	r.shut()
}

// shut stops ingest and cancels every background goroutine, reporting
// whether this call was the one that did.
func (r *Router) shut() bool {
	r.closeMu.Lock()
	defer r.closeMu.Unlock()
	if r.closed.Load() {
		return false
	}
	r.closed.Store(true)
	r.cancel()
	return true
}

// Close stops ingest and every background goroutine, then closes the
// spill WAL. Undelivered spill records stay on disk and redeliver on
// the next start.
func (r *Router) Close() error {
	if !r.shut() {
		return nil
	}
	r.wg.Wait()
	r.spillMu.Lock()
	defer r.spillMu.Unlock()
	return r.spill.Close()
}

// Metrics snapshots the router's own counters.
func (r *Router) Metrics() RouterMetricsSnapshot {
	return RouterMetricsSnapshot{
		Epoch:          r.Epoch(),
		Forwarded:      r.met.Forwarded.Load(),
		ForwardErrors:  r.met.ForwardErrors.Load(),
		Posts:          r.met.Posts.Load(),
		WireBytes:      r.met.WireBytes.Load(),
		Malformed:      r.met.Malformed.Load(),
		Spilled:        r.met.Spilled.Load(),
		Drained:        r.met.Drained.Load(),
		SpillErrors:    r.met.SpillErrors.Load(),
		RejectedLines:  r.met.RejectedLines.Load(),
		PeerUnhealthy:  r.met.PeerUnhealthy.Load(),
		Readmits:       r.met.Readmits.Load(),
		Rebalances:     r.met.Rebalances.Load(),
		HandoffErrors:  r.met.HandoffErrors.Load(),
		TakeoverErrors: r.met.TakeoverErrors.Load(),
		Coordinator:    r.IsCoordinator(),
		Elections:      r.met.Elections.Load(),
	}
}

// View returns a copy of the currently installed cluster view.
func (r *Router) View() persist.ViewRecord {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.view.Clone()
}

// IsCoordinator reports whether this router currently holds the
// coordinator role (always true when election is disabled).
func (r *Router) IsCoordinator() bool { return r.coordinator.Load() }
