package cluster

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/stream"
)

// parseEvent is the cluster tier's one way into logparse.ParseLine — a
// variable only so a test can count the calls.
var parseEvent = logparse.ParseLine

// parseLine parses one raw line; blank lines return a zero Event (no
// error) so callers can skip them the way single-instance ingest does.
func parseLine(line string) (logparse.Event, error) {
	if logparse.IsBlank(line) {
		return logparse.Event{}, nil
	}
	return parseEvent(line)
}

// Instance is one deshd process's membership in a cluster: it wraps
// the process's Streamer with epoch-gated ownership (events outside
// the owned ranges are rejected back to the router, never silently
// absorbed) and serves the control plane the router drives —
// ownership pushes, live handoffs, and dead-peer takeovers.
type Instance struct {
	name   string
	s      *stream.Streamer
	client *http.Client
	diag   func(format string, args ...any)

	// batches counts ingestBatch calls (ingest_batches on /metrics).
	batches atomic.Int64

	mu     sync.RWMutex
	epoch  uint64
	ranges []persist.HashRange
	// standalone is true until the first ownership adoption: a deshd
	// without a router owns everything, so plain single-instance
	// deployments run unchanged.
	standalone bool

	// Coordinator-lease state (see lease.go): the current holder, the
	// per-instance fencing generation (monotonic across holder
	// changes), the absolute grant deadline, the recently-seen router
	// candidates, and the newest coordinator-pushed cluster view.
	leaseHolder   string
	leaseGen      uint64
	leaseDeadline time.Time
	candidates    map[string]time.Time
	view          *persist.ViewRecord
}

// NewInstance wraps s for cluster serving. Ownership recovered from
// the WAL (a restart after a crash) is adopted immediately, so the
// instance comes back rejecting exactly what it rejected before the
// crash until the router pushes something newer.
func NewInstance(name string, s *stream.Streamer, diag func(string, ...any)) *Instance {
	inst := &Instance{
		name:       name,
		s:          s,
		client:     &http.Client{Timeout: 30 * time.Second},
		diag:       diag,
		standalone: true,
		candidates: make(map[string]time.Time),
	}
	if rec, ok := s.RecoveredOwnership(); ok {
		inst.epoch = rec.Epoch
		inst.ranges = rec.Ranges
		inst.standalone = false
	}
	// A recovered lease restores the fencing generation (so a stale
	// pre-crash coordinator stays fenced) and the holder/deadline —
	// usually already expired by the time the restart finishes, which
	// simply re-opens the election.
	if rec, ok := s.RecoveredLease(); ok {
		inst.leaseHolder = rec.Holder
		inst.leaseGen = rec.Gen
		inst.leaseDeadline = time.Unix(0, rec.ExpireNano)
	}
	if rec, ok := s.RecoveredView(); ok {
		inst.view = &rec
	}
	return inst
}

// Name returns the instance's cluster member name.
func (inst *Instance) Name() string { return inst.name }

// Streamer returns the wrapped streamer.
func (inst *Instance) Streamer() *stream.Streamer { return inst.s }

func (inst *Instance) diagf(format string, args ...any) {
	if inst.diag != nil {
		inst.diag(format, args...)
	}
}

// Ownership returns the current epoch and owned ranges.
func (inst *Instance) Ownership() (uint64, []persist.HashRange) {
	inst.mu.RLock()
	defer inst.mu.RUnlock()
	return inst.epoch, append([]persist.HashRange(nil), inst.ranges...)
}

// AdoptOwnership journals and installs a router-pushed ownership set.
// A stale epoch (older than the current one) is rejected — the caller
// is behind a newer coordinator decision.
func (inst *Instance) AdoptOwnership(epoch uint64, ranges []persist.HashRange) error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if !inst.standalone && epoch < inst.epoch {
		return fmt.Errorf("cluster: stale epoch %d < %d", epoch, inst.epoch)
	}
	if err := inst.s.JournalEpoch(epoch, ranges); err != nil {
		return err
	}
	inst.epoch = epoch
	inst.ranges = append([]persist.HashRange(nil), ranges...)
	inst.standalone = false
	return nil
}

// IngestLines feeds a batch of raw lines, returning the indices of
// lines the instance must NOT absorb — nodes outside its owned ranges
// or frozen mid-handoff — for the router to respool. Blank and
// malformed lines are consumed (counted) exactly as single-instance
// ingest consumes them.
func (inst *Instance) IngestLines(lines []string) (rejected []int, err error) {
	batch := make([]stream.Admission, len(lines))
	for i, line := range lines {
		ev, perr := parseLine(line)
		if perr != nil {
			inst.s.Metrics().Malformed.Add(1)
		}
		// No node: a blank or malformed line, consumed here and now.
		batch[i] = stream.Admission{Event: ev, Refused: ev.Node == ""}
	}
	return inst.ingestBatch(batch)
}

// ingestBatch admits one batch — a POST, either content type — as a
// unit and returns the positions of the events refused: not owned, or
// frozen mid-handoff. An error means none of it was admitted (the
// streamer is closed); the router's failure handling respools it whole.
func (inst *Instance) ingestBatch(batch []stream.Admission) (rejected []int, err error) {
	inst.batches.Add(1)
	inst.mu.RLock()
	for i := range batch {
		a := &batch[i]
		a.Refused = a.Refused || !(inst.standalone || persist.RangesContain(inst.ranges, persist.NodeHash(a.Event.Node)))
	}
	inst.mu.RUnlock()
	if err := inst.s.IngestBatch(batch); err != nil {
		return nil, err
	}
	for i := range batch {
		if batch[i].Refused && batch[i].Event.Node != "" { // nodeless: a line IngestLines consumed
			rejected = append(rejected, i)
		}
	}
	return rejected, nil
}

// recordContentType marks a /ingest body of wire records (persist's
// EventBatch format) rather than text lines.
const recordContentType = "application/x-desh-records"

// maxIngestBody caps a /ingest body of either content type (413 over
// it); a router keeps its batches under it (maxWireBody).
const maxIngestBody = 8 << 20

// ownershipRequest pushes an epoch-stamped ownership set.
type ownershipRequest struct {
	Gen    uint64              `json:"gen,omitempty"` // coordinator fencing generation
	Epoch  uint64              `json:"epoch"`
	Ranges []persist.HashRange `json:"ranges"`
}

func (r ownershipRequest) validate() error {
	if r.Epoch == 0 {
		return fmt.Errorf("%w: ownership with epoch 0", errPayload)
	}
	return validRanges(r.Ranges)
}

// handoffRequest drives one live outbound handoff (source side).
type handoffRequest struct {
	Gen    uint64              `json:"gen,omitempty"`
	Epoch  uint64              `json:"epoch"`
	Target string              `json:"target"` // base URL of the receiving instance
	Ranges []persist.HashRange `json:"ranges"`
}

func (r handoffRequest) validate() error {
	if r.Epoch == 0 {
		return fmt.Errorf("%w: handoff with epoch 0", errPayload)
	}
	if r.Target == "" {
		return fmt.Errorf("%w: handoff without a target", errPayload)
	}
	if len(r.Ranges) == 0 {
		return fmt.Errorf("%w: handoff with no ranges", errPayload)
	}
	return validRanges(r.Ranges)
}

// importRequest carries a handoff payload to the receiving instance.
type importRequest struct {
	Epoch  uint64              `json:"epoch"`
	Source string              `json:"source"`
	Ranges []persist.HashRange `json:"ranges"`
	State  string              `json:"state"` // base64 of the framed HandoffState
}

func (r importRequest) validate() error {
	if r.Epoch == 0 {
		return fmt.Errorf("%w: import with epoch 0", errPayload)
	}
	if r.State == "" {
		return fmt.Errorf("%w: import without a state payload", errPayload)
	}
	return validRanges(r.Ranges)
}

// takeoverRequest asks a survivor to absorb ranges from a dead
// instance's state directory (shared-filesystem deployments).
type takeoverRequest struct {
	Gen    uint64              `json:"gen,omitempty"`
	Epoch  uint64              `json:"epoch"`
	Dir    string              `json:"dir"`
	Ranges []persist.HashRange `json:"ranges"`
}

func (r takeoverRequest) validate() error {
	if r.Epoch == 0 {
		return fmt.Errorf("%w: takeover with epoch 0", errPayload)
	}
	if r.Dir == "" {
		return fmt.Errorf("%w: takeover without a state dir", errPayload)
	}
	if len(r.Ranges) == 0 {
		return fmt.Errorf("%w: takeover with no ranges", errPayload)
	}
	return validRanges(r.Ranges)
}

// statusReply is the /cluster/status body.
type statusReply struct {
	Name           string              `json:"name"`
	Epoch          uint64              `json:"epoch"`
	Ranges         []persist.HashRange `json:"ranges"`
	PendingHandoff *handoffRequest     `json:"pending_handoff,omitempty"`
	LeaseHolder    string              `json:"lease_holder,omitempty"`
	LeaseGen       uint64              `json:"lease_gen,omitempty"`
	ViewEpoch      uint64              `json:"view_epoch,omitempty"`
}

// instanceMetrics is the cluster view of /metrics: the streamer's
// counters plus the ownership gauges the satellite spec names.
type instanceMetrics struct {
	stream.MetricsSnapshot
	ClusterEpoch uint64 `json:"cluster_epoch"`
	OwnedRanges  int    `json:"owned_ranges"`
	// IngestBatches counts the batches /ingest admitted (one per POST):
	// against wal_batch_appends and ingested it gives records per write.
	IngestBatches int64 `json:"ingest_batches"`
}

// HandoffTo runs the full live-handoff protocol against a target
// instance: Begin (freeze + capture) → ship to the target's
// /cluster/import (its commit point) → Complete (journal Out, drop,
// unfreeze). Any shipping failure aborts: the state never left, the
// target never committed, and the ranges thaw in place.
func (inst *Instance) HandoffTo(epoch uint64, targetURL string, ranges []persist.HashRange) error {
	st, err := inst.s.BeginHandoff(epoch, targetURL, ranges)
	if err != nil {
		return err
	}
	payload, err := persist.EncodeSnapshot(st)
	if err != nil {
		_ = inst.s.AbortHandoff()
		return fmt.Errorf("cluster: handoff encode: %w", err)
	}
	req := importRequest{
		Epoch:  epoch,
		Source: inst.name,
		Ranges: ranges,
		State:  base64.StdEncoding.EncodeToString(payload),
	}
	if err := postJSON(inst.client, targetURL+"/cluster/import", req, nil); err != nil {
		// The target may or may not have journaled RecHandoffIn before
		// the failure. Sending the same framed state twice is safe —
		// installNode replaces and the import ledger re-suppresses — so
		// an ambiguous failure aborts and a later retry re-ships; the
		// dangerous double (two ACTIVE owners) is prevented by the
		// ownership epoch, which only the router advances.
		aerr := inst.s.AbortHandoff()
		inst.diagf("cluster: handoff to %s aborted: %v", targetURL, err)
		return errors.Join(fmt.Errorf("cluster: handoff ship: %w", err), aerr)
	}
	// The target holds the state durably: shrink ownership first so no
	// thawed event lands here, then resolve the journal.
	inst.mu.Lock()
	inst.epoch = epoch
	inst.ranges = subtractRanges(inst.ranges, ranges)
	inst.mu.Unlock()
	if err := inst.s.CompleteHandoff(); err != nil {
		return err
	}
	inst.diagf("cluster: handed off %d range(s) to %s at epoch %d", len(ranges), targetURL, epoch)
	return nil
}

// subtractRanges removes the cut arcs from base.
func subtractRanges(base, cut []persist.HashRange) []persist.HashRange {
	la, lc := linearize(base), linearize(cut)
	var out []persist.HashRange
	for _, x := range la {
		lo := x[0]
		for _, c := range lc {
			if c[1] <= lo || c[0] >= x[1] {
				continue
			}
			if c[0] > lo {
				out = append(out, delinearize(lo, c[0]))
			}
			if c[1] > lo {
				lo = c[1]
			}
		}
		if lo < x[1] {
			out = append(out, delinearize(lo, x[1]))
		}
	}
	return out
}

// Import commits a shipped handoff payload into the local streamer and
// extends ownership over its ranges.
func (inst *Instance) Import(req importRequest) error {
	raw, err := base64.StdEncoding.DecodeString(req.State)
	if err != nil {
		return fmt.Errorf("cluster: import state: %w", err)
	}
	var st stream.HandoffState
	if err := persist.DecodeSnapshot(raw, &st); err != nil {
		return fmt.Errorf("cluster: import state: %w", err)
	}
	if err := inst.s.ImportState(req.Epoch, req.Source, req.Ranges, &st); err != nil {
		return err
	}
	inst.extendOwnership(req.Epoch, req.Ranges)
	inst.diagf("cluster: imported %d node(s), %d pending event(s) from %s", len(st.Nodes), len(st.Pending), req.Source)
	return nil
}

// extendOwnership adds imported ranges to what the instance serves.
func (inst *Instance) extendOwnership(epoch uint64, ranges []persist.HashRange) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if epoch > inst.epoch {
		inst.epoch = epoch
	}
	inst.ranges = append(inst.ranges, ranges...)
	inst.standalone = false
}

// Takeover rebuilds the requested ranges from a dead peer's state
// directory and imports them — the no-live-source path.
func (inst *Instance) Takeover(req takeoverRequest) error {
	st, err := stream.LoadHandoffFromDir(nil, req.Dir, req.Ranges)
	if err != nil {
		return err
	}
	if err := inst.s.ImportState(req.Epoch, "takeover:"+req.Dir, req.Ranges, st); err != nil {
		return err
	}
	inst.extendOwnership(req.Epoch, req.Ranges)
	inst.diagf("cluster: took over %d node(s), %d pending event(s) from %s", len(st.Nodes), len(st.Pending), req.Dir)
	return nil
}

// Handler returns the instance's HTTP control plane. Mount it at the
// mux root alongside the streamer's own handlers; every route is
// namespaced under /cluster/ except the batch /ingest the router uses.
func (inst *Instance) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", inst.handleIngest)
	mux.HandleFunc("/cluster/status", inst.handleStatus)
	mux.HandleFunc("/cluster/ownership", inst.handleOwnership)
	mux.HandleFunc("/cluster/handoff", inst.handleHandoff)
	mux.HandleFunc("/cluster/import", inst.handleImport)
	mux.HandleFunc("/cluster/takeover", inst.handleTakeover)
	mux.HandleFunc("/cluster/lease", inst.handleLease)
	mux.HandleFunc("/cluster/view", inst.handleView)
	mux.HandleFunc("/cluster/resolve", inst.handleResolve)
	mux.HandleFunc("/cluster/imported", inst.handleImported)
	mux.HandleFunc("/metrics", inst.handleMetrics)
	mux.HandleFunc("/healthz", healthz)
	return mux
}

// ingestReply reports which lines of a batch the instance refused.
type ingestReply struct {
	Epoch    uint64 `json:"epoch"`
	Accepted int    `json:"accepted"`
	Rejected []int  `json:"rejected,omitempty"`
}

// handleIngest admits one POST as one batch. Text lines are the edge
// entry; a recordContentType body is what a router sends, decoded whole
// before any of it is admitted. Replies: ingestBody's 405 and 413, 400
// for a damaged body, 503 from a closed streamer, else 200.
func (inst *Instance) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := ingestPool.Get().(*ingestScratch)
	defer sc.release()
	if !ingestBody(w, r, &sc.body) {
		return
	}
	var n int
	var rejected []int
	var err error
	if r.Header.Get("Content-Type") == recordContentType {
		err = persist.DecodeEventBatch(sc.body.Bytes(), func(ev logparse.Event, record []byte) {
			sc.batch = append(sc.batch, stream.Admission{Event: ev, Record: record})
		})
		if n = len(sc.batch); err == nil {
			rejected, err = inst.ingestBatch(sc.batch)
		}
	} else if lines, lerr := splitLines(sc.body.Bytes()); lerr != nil {
		err = lerr
	} else {
		n = len(lines)
		rejected, err = inst.IngestLines(lines)
	}
	if errors.Is(err, stream.ErrClosed) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	} else if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	epoch, _ := inst.Ownership()
	writeJSON(w, ingestReply{Epoch: epoch, Accepted: n - len(rejected), Rejected: rejected})
}

func (inst *Instance) handleStatus(w http.ResponseWriter, r *http.Request) {
	epoch, ranges := inst.Ownership()
	reply := statusReply{Name: inst.name, Epoch: epoch, Ranges: ranges}
	if hEpoch, target, hRanges, ok := inst.s.PendingHandoff(); ok {
		reply.PendingHandoff = &handoffRequest{Epoch: hEpoch, Target: target, Ranges: hRanges}
	}
	inst.mu.RLock()
	reply.LeaseHolder, reply.LeaseGen = inst.leaseHolder, inst.leaseGen
	if inst.view != nil {
		reply.ViewEpoch = inst.view.Epoch
	}
	inst.mu.RUnlock()
	writeJSON(w, reply)
}

// fence is fencedLocked for callers outside inst.mu.
func (inst *Instance) fence(gen uint64) error {
	inst.mu.RLock()
	defer inst.mu.RUnlock()
	return inst.fencedLocked(gen)
}

func (inst *Instance) handleOwnership(w http.ResponseWriter, r *http.Request) {
	control(w, r, maxControlBody, http.StatusConflict, func(req ownershipRequest) (any, error) {
		if err := inst.fence(req.Gen); err != nil {
			return nil, err
		}
		return map[string]any{"epoch": req.Epoch}, inst.AdoptOwnership(req.Epoch, req.Ranges)
	})
}

func (inst *Instance) handleHandoff(w http.ResponseWriter, r *http.Request) {
	control(w, r, maxControlBody, http.StatusInternalServerError, func(req handoffRequest) (any, error) {
		if err := inst.fence(req.Gen); err != nil {
			return nil, err
		}
		return map[string]any{"epoch": req.Epoch}, inst.HandoffTo(req.Epoch, req.Target, req.Ranges)
	})
}

func (inst *Instance) handleImport(w http.ResponseWriter, r *http.Request) {
	control(w, r, maxStateBody, http.StatusInternalServerError, func(req importRequest) (any, error) {
		return map[string]any{"epoch": req.Epoch}, inst.Import(req)
	})
}

func (inst *Instance) handleTakeover(w http.ResponseWriter, r *http.Request) {
	control(w, r, maxControlBody, http.StatusInternalServerError, func(req takeoverRequest) (any, error) {
		if err := inst.fence(req.Gen); err != nil {
			return nil, err
		}
		return map[string]any{"epoch": req.Epoch}, inst.Takeover(req)
	})
}

func (inst *Instance) handleLease(w http.ResponseWriter, r *http.Request) {
	control(w, r, maxControlBody, http.StatusInternalServerError, func(req leaseRequest) (any, error) {
		return inst.Lease(req)
	})
}

func (inst *Instance) handleView(w http.ResponseWriter, r *http.Request) {
	control(w, r, maxControlBody, http.StatusConflict, func(req viewRequest) (any, error) {
		return map[string]any{"epoch": req.View.Epoch}, inst.InstallView(req)
	})
}

func (inst *Instance) handleResolve(w http.ResponseWriter, r *http.Request) {
	control(w, r, maxControlBody, http.StatusConflict, func(req resolveRequest) (any, error) {
		return map[string]any{"epoch": req.Epoch, "commit": req.Commit}, inst.Resolve(req)
	})
}

// handleImported answers the successor coordinator's intent-resolution
// question: did the handoff at epoch N from source S durably land on
// this instance?
func (inst *Instance) handleImported(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		http.Error(w, "imported: epoch query parameter must be a uint", http.StatusBadRequest)
		return
	}
	source := r.URL.Query().Get("source")
	if source == "" {
		http.Error(w, "imported: source query parameter required", http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]any{"epoch": epoch, "imported": inst.s.HasImport(epoch, source)})
}

func (inst *Instance) handleMetrics(w http.ResponseWriter, r *http.Request) {
	epoch, ranges := inst.Ownership()
	writeJSON(w, instanceMetrics{
		MetricsSnapshot: inst.s.SnapshotMetrics(),
		ClusterEpoch:    epoch,
		OwnedRanges:     len(ranges),
		IngestBatches:   inst.batches.Load(),
	})
}

// healthz is the liveness reply of both cluster tiers.
func healthz(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, `{"status":"ok"}`) }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func postJSON(client *http.Client, url string, req, reply any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if reply != nil {
		return json.NewDecoder(resp.Body).Decode(reply)
	}
	return nil
}
