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

// Instance is one deshd process's membership in a cluster: it serves
// the control plane the router drives — ownership pushes, live
// handoffs, dead-peer takeovers, the coordinator lease and the cluster
// view — over the process's Streamer, whose journaled control state is
// the only copy of it (stream.Control). Events outside the owned ranges
// are refused back to the router at admission, never silently absorbed.
type Instance struct {
	name   string
	s      *stream.Streamer
	client *http.Client
	diag   func(format string, args ...any)

	// batches counts ingestBatch calls (ingest_batches on /metrics).
	batches atomic.Int64

	// mu guards candidates: the routers recently seen polling for the
	// lease. Volatile liveness, never journaled (see lease.go).
	mu         sync.Mutex
	candidates map[string]time.Time
}

// NewInstance wraps s for cluster serving. The ownership, lease and view
// s recovered from its state dir are in force at once, so a restarted
// instance rejects exactly what it rejected before until the router
// pushes something newer.
func NewInstance(name string, s *stream.Streamer, diag func(string, ...any)) *Instance {
	return &Instance{
		name:       name,
		s:          s,
		client:     &http.Client{Timeout: 30 * time.Second},
		diag:       diag,
		candidates: make(map[string]time.Time),
	}
}

// Streamer returns the wrapped streamer.
func (inst *Instance) Streamer() *stream.Streamer { return inst.s }

func (inst *Instance) diagf(format string, args ...any) {
	if inst.diag != nil {
		inst.diag(format, args...)
	}
}

// Ownership returns the journaled ownership's epoch and ranges (0 and
// nil when standalone).
func (inst *Instance) Ownership() (uint64, []persist.HashRange) {
	return inst.s.Control().Owned()
}

// adoptOwnership decides a router-pushed ownership set and, unless the
// caller is fenced or the epoch is stale, journals and applies it.
func (inst *Instance) adoptOwnership(req ownershipRequest) error {
	return inst.s.Decide(func(c stream.Control) ([]byte, bool, error) {
		rec, err := adoptEpoch(c, req)
		return rec, true, err
	})
}

// adoptEpoch is the ownership rule: the epoch record to journal, or an
// error when the caller is fenced or the epoch is older than the current
// one — the caller is behind a newer coordinator decision.
func adoptEpoch(c stream.Control, req ownershipRequest) ([]byte, error) {
	if err := fenced(c, req.Gen); err != nil {
		return nil, err
	}
	if epoch, _ := c.Owned(); req.Epoch < epoch {
		return nil, fmt.Errorf("cluster: stale epoch %d < %d", req.Epoch, epoch)
	}
	return persist.EncodeEpoch(persist.EpochRecord{Epoch: req.Epoch, Ranges: req.Ranges}), nil
}

// IngestLines feeds a batch of raw lines, returning the indices of
// lines the instance must NOT absorb — nodes outside its owned ranges
// or frozen mid-handoff — for the router to respool. Blank and
// malformed lines are consumed (counted) exactly as single-instance
// ingest consumes them.
func (inst *Instance) IngestLines(lines []string) (rejected []int, err error) {
	_, rejected, err = inst.ingestBatch(inst.parseLines(lines))
	return rejected, err
}

// parseLines parses a batch of raw lines for admission.
func (inst *Instance) parseLines(lines []string) []stream.Admission {
	batch := make([]stream.Admission, len(lines))
	for i, line := range lines {
		ev, perr := parseLine(line)
		if perr != nil {
			inst.s.Metrics().Malformed.Add(1)
		}
		// No node: a blank or malformed line, consumed here and now.
		batch[i] = stream.Admission{Event: ev, Refused: ev.Node == ""}
	}
	return batch
}

// ingestBatch admits one batch — a POST, either content type — as a
// unit and returns the positions of the events refused: not owned, or
// frozen mid-handoff — and the ownership epoch that decided it. An error
// means none of it was admitted (the streamer is closed); the router's
// failure handling respools it whole.
func (inst *Instance) ingestBatch(batch []stream.Admission) (epoch uint64, rejected []int, err error) {
	inst.batches.Add(1)
	if epoch, err = inst.s.IngestBatch(batch); err != nil {
		return 0, nil, err
	}
	for i := range batch {
		if batch[i].Refused && batch[i].Event.Node != "" { // nodeless: a line parseLines consumed
			rejected = append(rejected, i)
		}
	}
	return epoch, rejected, nil
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
	// The target holds the state durably: the Out record drops the ranges
	// from the ownership as it thaws them, so no thawed event lands here.
	if err := inst.s.CompleteHandoff(); err != nil {
		return err
	}
	inst.diagf("cluster: handed off %d range(s) to %s at epoch %d", len(ranges), targetURL, epoch)
	return nil
}

// Import commits a shipped handoff payload into the local streamer; its
// In record extends the ownership over the ranges.
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
	inst.diagf("cluster: imported %d node(s), %d pending event(s) from %s", len(st.Nodes), len(st.Pending), req.Source)
	return nil
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
	var epoch uint64
	var rejected []int
	var err error
	if r.Header.Get("Content-Type") == recordContentType {
		err = persist.DecodeEventBatch(sc.body.Bytes(), func(ev logparse.Event, record []byte) {
			sc.batch = append(sc.batch, stream.Admission{Event: ev, Record: record})
		})
		if n = len(sc.batch); err == nil {
			epoch, rejected, err = inst.ingestBatch(sc.batch)
		}
	} else if lines, lerr := splitLines(sc.body.Bytes()); lerr != nil {
		err = lerr
	} else {
		n = len(lines)
		epoch, rejected, err = inst.ingestBatch(inst.parseLines(lines))
	}
	if errors.Is(err, stream.ErrClosed) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	} else if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, ingestReply{Epoch: epoch, Accepted: n - len(rejected), Rejected: rejected})
}

func (inst *Instance) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := inst.s.Control()
	reply := statusReply{Name: inst.name}
	reply.Epoch, reply.Ranges = c.Owned()
	if h := c.Handoff; h != nil {
		reply.PendingHandoff = &handoffRequest{Epoch: h.Epoch, Target: h.Peer, Ranges: h.Ranges}
	}
	if l := c.Lease; l != nil {
		reply.LeaseHolder, reply.LeaseGen = l.Holder, l.Gen
	}
	if c.View != nil {
		reply.ViewEpoch = c.View.Epoch
	}
	writeJSON(w, reply)
}

// fence checks gen against the current lease's fencing generation.
func (inst *Instance) fence(gen uint64) error {
	return fenced(inst.s.Control(), gen)
}

func (inst *Instance) handleOwnership(w http.ResponseWriter, r *http.Request) {
	control(w, r, maxControlBody, http.StatusConflict, func(req ownershipRequest) (any, error) {
		return map[string]any{"epoch": req.Epoch}, inst.adoptOwnership(req)
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
		return inst.Lease(req, time.Now())
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
	imported := inst.s.Control().Imports[stream.ImportKey{Epoch: epoch, Source: source}]
	writeJSON(w, map[string]any{"epoch": epoch, "imported": imported})
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
