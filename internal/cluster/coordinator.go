// Coordinator election and orchestration, router side. Any number of
// routers can front the same instance fleet: every router forwards,
// probes, and spills independently, but exactly one — the coordinator —
// mutates the cluster (eject, readmit, takeover, planned rebalance).
//
// Coordinatorship is a quorum of instance-granted leases: each
// instance independently leases to the lexically-lowest live router
// (see lease.go), and a router coordinates iff it holds the lease on a
// majority of the view's members. Majorities intersect, so two
// coordinators are impossible; a dead coordinator's leases expire
// within one TTL and the next-lowest router takes over. Every control
// call is stamped with the instances' fencing generation, so a
// deposed coordinator that keeps acting gets 409s, not obedience.
//
// The successor inherits mid-flight work from durable state alone:
// pending handoff intents resolve through the targets' imported-sets,
// and a journaled "draining" view resumes the drain where it stopped.
package cluster

import (
	"fmt"
	"net/url"

	"desh/internal/persist"
)

// electLoop polls every view member's lease every LeaseTTL/3 until
// shutdown, renewing well inside the TTL. On graceful shutdown the lease
// is released so the successor takes over immediately instead of
// waiting out the TTL.
func (r *Router) electLoop() {
	r.electOnce()
	r.every(r.cfg.LeaseTTL/3, nil, r.electOnce)
	r.releaseLeases()
}

// electOnce runs one lease round: poll every member, adopt any newer
// view riding the replies, recount the quorum, and — if this router
// coordinates — run one convergence pass.
func (r *Router) electOnce() {
	view := r.View()
	granted := 0
	var adopt *persist.ViewRecord
	for _, m := range view.Members {
		var rep leaseReply
		if err := postJSON(r.leaseClient, m.URL+"/cluster/lease",
			leaseRequest{Name: r.cfg.Name, TTLMillis: r.cfg.LeaseTTL.Milliseconds()}, &rep); err != nil {
			continue
		}
		if ps := r.peerByName(m.Name); ps != nil && rep.Gen > ps.leaseGen.Load() {
			ps.leaseGen.Store(rep.Gen)
		}
		if rep.Granted {
			granted++
		}
		if rep.View != nil && (adopt == nil || rep.View.Epoch > adopt.Epoch) {
			adopt = rep.View
		}
	}
	if adopt != nil && r.installView(*adopt) {
		r.diagf("cluster: router %s adopted view epoch %d from lease replies", r.cfg.Name, adopt.Epoch)
	}
	quorum := len(view.Members)/2 + 1
	is := granted >= quorum
	was := r.coordinator.Swap(is)
	switch {
	case is && !was:
		r.met.Elections.Add(1)
		r.diagf("cluster: router %s became coordinator (%d/%d leases)", r.cfg.Name, granted, len(view.Members))
	case !is && was:
		r.diagf("cluster: router %s lost coordinatorship (%d/%d leases)", r.cfg.Name, granted, len(view.Members))
	}
	if is {
		r.converge()
	}
}

// releaseLeases gives the coordinatorship back voluntarily. Skipped
// after Kill: a SIGKILLed process releases nothing, the TTL does.
func (r *Router) releaseLeases() {
	if r.killed.Load() || !r.coordinator.Load() {
		return
	}
	view := r.View()
	for _, m := range view.Members {
		_ = postJSON(r.leaseClient, m.URL+"/cluster/lease",
			leaseRequest{Name: r.cfg.Name, Release: true}, nil)
	}
}

// converge is the coordinator's repair pass, run every election tick:
// resolve any pending handoff intent a predecessor left frozen, resume
// an interrupted drain journaled in the view, and re-push view plus
// ownership to instances that are behind. Skipped without blocking
// while an administrative rebalance holds rebalMu.
func (r *Router) converge() {
	if !r.rebalMu.TryLock() {
		return
	}
	defer r.rebalMu.Unlock()
	if r.ctx.Err() != nil {
		return
	}
	view := r.View()
	statuses := make(map[string]statusReply, len(view.Members))
	pending := false
	for _, m := range view.Members {
		var st statusReply
		if err := getJSON(r.client, m.URL+"/cluster/status", &st); err != nil {
			continue
		}
		if st.PendingHandoff != nil {
			pending = true
			if err := r.resolveIntent(m, *st.PendingHandoff); err != nil {
				r.diagf("cluster: intent resolution on %s: %v", m.Name, err)
			}
			continue
		}
		statuses[m.Name] = st
	}
	if pending {
		return // next tick re-inspects the settled state
	}
	for _, m := range view.Members {
		if m.State == persist.StateDraining {
			st, ok := statuses[m.Name]
			if !ok {
				return // drainee unreachable; health ejection handles death
			}
			if err := r.finishDrainLocked(view, m, st); err != nil {
				r.diagf("cluster: resuming drain of %s: %v", m.Name, err)
			}
			return
		}
	}
	r.healLocked(view, statuses)
}

// resolveIntent settles one pending handoff intent: the target's
// durable imported-set says whether the migration reached its commit
// point — yes completes the handoff (source sheds the frozen ranges),
// no aborts it (source thaws and keeps serving). An unreachable
// target keeps the source frozen; frozen is safe (events bounce and
// spill) and a later pass retries.
func (r *Router) resolveIntent(m persist.ViewMember, ph handoffRequest) error {
	var rep struct {
		Imported bool `json:"imported"`
	}
	q := fmt.Sprintf("%s/cluster/imported?epoch=%d&source=%s", ph.Target, ph.Epoch, url.QueryEscape(m.Name))
	if err := getJSON(r.client, q, &rep); err != nil {
		return fmt.Errorf("intent target unreachable, %s stays frozen: %w", m.Name, err)
	}
	if err := r.step("resolve-intent"); err != nil {
		return err
	}
	if err := postJSON(r.client, m.URL+"/cluster/resolve",
		resolveRequest{Gen: r.genFor(m.Name), Epoch: ph.Epoch, Commit: rep.Imported}, nil); err != nil {
		return err
	}
	r.diagf("cluster: resolved pending handoff on %s at epoch %d (commit=%v)", m.Name, ph.Epoch, rep.Imported)
	return nil
}

// healLocked re-pushes the stable view and its ring ownership to any
// in-ring instance that is behind — freshly booted, recovered from a
// crash, or cut off from the previous coordinator when it pushed.
// Caller holds rebalMu.
func (r *Router) healLocked(view persist.ViewRecord, statuses map[string]statusReply) {
	ring := NewRing(view.RingMembers(), 0)
	for _, m := range view.Members {
		st, ok := statuses[m.Name]
		if !ok || !m.InRing() {
			continue
		}
		if st.ViewEpoch >= view.Epoch && st.Epoch >= view.Epoch {
			continue
		}
		r.diagf("cluster: healing %s (instance view %d, epoch %d; cluster epoch %d)",
			m.Name, st.ViewEpoch, st.Epoch, view.Epoch)
		if err := postJSON(r.client, m.URL+"/cluster/view",
			viewRequest{Gen: r.genFor(m.Name), View: view}, nil); err != nil {
			r.diagf("cluster: view push to %s: %v", m.Name, err)
			continue
		}
		if err := postJSON(r.client, m.URL+"/cluster/ownership",
			ownershipRequest{Gen: r.genFor(m.Name), Epoch: view.Epoch, Ranges: ring.Ranges(m.Name)}, nil); err != nil {
			r.diagf("cluster: ownership heal of %s: %v", m.Name, err)
		}
	}
}

// pushView installs v on every member in it — including non-ring
// members, so an ejected instance that comes back already knows the
// cluster it belongs to.
func (r *Router) pushView(v persist.ViewRecord) {
	for _, m := range v.Members {
		if err := postJSON(r.client, m.URL+"/cluster/view",
			viewRequest{Gen: r.genFor(m.Name), View: v}, nil); err != nil {
			r.diagf("cluster: view push to %s: %v", m.Name, err)
		}
	}
}

// commitView installs v here, then on every member, then pushes the
// ownership its ring implies.
func (r *Router) commitView(v persist.ViewRecord) {
	r.installView(v)
	r.pushView(v)
	r.pushOwnershipView(v)
}

// pushOwnershipView pushes ring-derived ownership at v's epoch to
// every in-ring member of v.
func (r *Router) pushOwnershipView(v persist.ViewRecord) {
	names := v.RingMembers()
	ring := NewRing(names, 0)
	for _, name := range names {
		ps := r.peerByName(name)
		if ps == nil {
			continue
		}
		req := ownershipRequest{Gen: r.genFor(name), Epoch: v.Epoch, Ranges: ring.Ranges(name)}
		if err := postJSON(r.client, ps.URL+"/cluster/ownership", req, nil); err != nil {
			r.diagf("cluster: ownership push to %s: %v", name, err)
		}
	}
}

// RebalanceRequest is one administrative membership change posted to
// /cluster/rebalance: add a member (URL required), drain one out
// gracefully (live state migration, then removal), or remove one
// outright (takeover from its state dir, for members that are gone).
type RebalanceRequest struct {
	Action string `json:"action"` // "add" | "drain" | "remove"
	Name   string `json:"name"`
	URL    string `json:"url,omitempty"`
	Dir    string `json:"dir,omitempty"`
}

func (rb RebalanceRequest) validate() error {
	switch rb.Action {
	case "add", "drain", "remove":
	default:
		return fmt.Errorf("%w: rebalance action %q (want add, drain or remove)", errPayload, rb.Action)
	}
	if rb.Name == "" {
		return fmt.Errorf("%w: rebalance without a member name", errPayload)
	}
	if rb.Action == "add" && rb.URL == "" {
		return fmt.Errorf("%w: add without a member URL", errPayload)
	}
	return nil
}

// RebalanceStatus is the progress report of the running (or most
// recently finished) administrative rebalance.
type RebalanceStatus struct {
	Active bool   `json:"active"`
	Action string `json:"action,omitempty"`
	Member string `json:"member,omitempty"`
	Step   string `json:"step,omitempty"`
	Error  string `json:"error,omitempty"`
	Epoch  uint64 `json:"cluster_epoch"`
}

// StartRebalance begins an administrative membership change in the
// background; progress is read back with RebalanceStatus. Refused
// when this router is not the coordinator or a rebalance is already
// running.
func (r *Router) StartRebalance(req RebalanceRequest) error {
	if err := req.validate(); err != nil {
		return err
	}
	if !r.IsCoordinator() {
		return fmt.Errorf("cluster: not the coordinator — post the rebalance to the coordinator router")
	}
	r.rebalStMu.Lock()
	if r.rebalSt.Active {
		r.rebalStMu.Unlock()
		return fmt.Errorf("cluster: a rebalance (%s %s) is already running", r.rebalSt.Action, r.rebalSt.Member)
	}
	r.rebalSt = RebalanceStatus{Active: true, Action: req.Action, Member: req.Name, Step: "starting"}
	r.rebalStMu.Unlock()
	if !r.goTracked(func() { r.runRebalance(req) }) {
		r.rebalStMu.Lock()
		r.rebalSt.Active = false
		r.rebalSt.Error = ErrRouterClosed.Error()
		r.rebalStMu.Unlock()
		return ErrRouterClosed
	}
	return nil
}

// RebalanceStatus snapshots the rebalance progress report.
func (r *Router) RebalanceStatus() RebalanceStatus {
	r.rebalStMu.Lock()
	defer r.rebalStMu.Unlock()
	st := r.rebalSt
	st.Epoch = r.Epoch()
	return st
}

func (r *Router) runRebalance(req RebalanceRequest) {
	var err error
	switch req.Action {
	case "add":
		err = r.addMember(req)
	case "drain":
		err = r.drainMember(req.Name)
	case "remove":
		err = r.removeMember(req.Name)
	}
	r.rebalStMu.Lock()
	r.rebalSt.Active = false
	if err != nil {
		r.rebalSt.Step = "failed"
		r.rebalSt.Error = err.Error()
	} else {
		r.rebalSt.Step = "done"
	}
	r.rebalStMu.Unlock()
	if err != nil {
		r.diagf("cluster: rebalance %s %s: %v", req.Action, req.Name, err)
	} else {
		r.met.Rebalances.Add(1)
		r.diagf("cluster: rebalance %s %s done at epoch %d", req.Action, req.Name, r.Epoch())
	}
}

// step records a rebalance step, fires the chaos hook, and reports
// whether the router was killed at the boundary — a killed coordinator
// must stop mid-protocol exactly the way SIGKILL would stop it.
func (r *Router) step(s string) error {
	r.rebalStMu.Lock()
	if r.rebalSt.Active {
		r.rebalSt.Step = s
	}
	r.rebalStMu.Unlock()
	if h := r.cfg.HookRebalanceStep; h != nil {
		h(s)
	}
	return r.ctx.Err()
}

// addMember grows the ring: the newcomer is registered at the current
// epoch with no ranges (clearing any standalone full-circle ownership
// it booted with), current owners live-hand-off the ranges the
// newcomer gains, and the grown view commits.
func (r *Router) addMember(req RebalanceRequest) error {
	r.rebalMu.Lock()
	defer r.rebalMu.Unlock()
	view := r.View()
	if _, ok := view.Member(req.Name); ok {
		return fmt.Errorf("cluster: member %q already in the view", req.Name)
	}
	if err := r.step("add-register"); err != nil {
		return err
	}
	if err := postJSON(r.client, req.URL+"/cluster/ownership",
		ownershipRequest{Epoch: view.Epoch, Ranges: nil}, nil); err != nil {
		return fmt.Errorf("cluster: add %s: registration: %w", req.Name, err)
	}
	epoch := view.Epoch + 1
	r.mu.RLock()
	oldRing := r.ring
	r.mu.RUnlock()
	newRing := NewRing(append(view.RingMembers(), req.Name), 0)
	// A failed handoff leaves the newcomer serving that range cold;
	// rerouted events still flow once the grown view commits.
	if err := r.handoffGained(oldRing, newRing.Ranges(req.Name), epoch, Peer{Name: req.Name, URL: req.URL}, "add-handoff"); err != nil {
		return err
	}
	if err := r.step("add-commit"); err != nil {
		return err
	}
	v2 := view.Clone()
	v2.Members = append(v2.Members, persist.ViewMember{Name: req.Name, URL: req.URL, Dir: req.Dir, State: persist.StateIn})
	v2.Epoch = epoch
	r.commitView(v2)
	return nil
}

// drainMember shrinks the ring gracefully. The draining intent is
// journaled fleet-wide FIRST (a view with the member marked draining),
// so a successor coordinator resumes the drain from durable state
// instead of re-deriving it; then every range the drainee owns
// live-hands-off to its new owner and the shrunk view commits.
func (r *Router) drainMember(name string) error {
	r.rebalMu.Lock()
	defer r.rebalMu.Unlock()
	view := r.View()
	m, ok := view.Member(name)
	if !ok {
		return fmt.Errorf("cluster: unknown member %q", name)
	}
	switch m.State {
	case persist.StateDraining: // resuming an interrupted drain
	case persist.StateIn:
		if len(view.RingMembers()) < 2 {
			return fmt.Errorf("cluster: refusing to drain the last in-ring member")
		}
		if err := r.step("drain-intent"); err != nil {
			return err
		}
		v1 := view.Clone()
		setMemberState(&v1, name, persist.StateDraining)
		v1.Epoch++
		r.installView(v1)
		r.pushView(v1)
		// Ownership is unchanged by the intent (draining members still
		// serve); re-push at the new epoch keeps instance and view epochs
		// aligned.
		r.pushOwnershipView(v1)
		view = v1
		m, _ = view.Member(name)
	default:
		return fmt.Errorf("cluster: member %q is %s — only an in-ring member can drain", name, m.State)
	}
	var st statusReply
	if err := getJSON(r.client, m.URL+"/cluster/status", &st); err != nil {
		return fmt.Errorf("cluster: drain %s: source unreachable: %w", name, err)
	}
	return r.finishDrainLocked(view, m, st)
}

// finishDrainLocked migrates everything the draining member still
// owns and commits the shrunk view. Idempotent and resumable: each
// handoff's Out record takes its ranges out of the source's journaled
// ownership, which st reports, so a re-run (same or successor
// coordinator, before or after the source restarts) only moves what is
// left. Caller holds rebalMu; st is the drainee's current status.
func (r *Router) finishDrainLocked(view persist.ViewRecord, m persist.ViewMember, st statusReply) error {
	if st.PendingHandoff != nil {
		if err := r.resolveIntent(m, *st.PendingHandoff); err != nil {
			return err
		}
		if err := getJSON(r.client, m.URL+"/cluster/status", &st); err != nil {
			return fmt.Errorf("cluster: drain %s: source unreachable: %w", m.Name, err)
		}
		if st.PendingHandoff != nil {
			return fmt.Errorf("cluster: drain %s: pending handoff did not settle", m.Name)
		}
	}
	epoch := view.Epoch + 1
	rest := make([]string, 0, len(view.RingMembers()))
	for _, name := range view.RingMembers() {
		if name != m.Name {
			rest = append(rest, name)
		}
	}
	if len(rest) == 0 {
		return fmt.Errorf("cluster: cannot drain the last in-ring member")
	}
	newRing := NewRing(rest, 0)
	for _, target := range rest {
		tp := r.peerByName(target)
		if tp == nil {
			continue
		}
		moved := persist.Intersect(st.Ranges, newRing.Ranges(target))
		if len(moved) == 0 {
			continue
		}
		if err := r.step("drain-handoff"); err != nil {
			return err
		}
		if err := postJSON(r.client, m.URL+"/cluster/handoff",
			handoffRequest{Gen: r.genFor(m.Name), Epoch: epoch, Target: tp.URL, Ranges: moved}, nil); err != nil {
			// Unlike add/readmit there is no cold fallback here — the
			// drainee's state must land somewhere before it leaves. Stop;
			// the draining view stays journaled and the next converge tick
			// (this coordinator or a successor) resumes.
			r.met.HandoffErrors.Add(1)
			return fmt.Errorf("cluster: drain handoff %s -> %s: %w", m.Name, target, err)
		}
	}
	if err := r.step("drain-commit"); err != nil {
		return err
	}
	// The drainee owns nothing now; an explicit empty ownership makes
	// that durable even if every range intersected nothing.
	if err := postJSON(r.client, m.URL+"/cluster/ownership",
		ownershipRequest{Gen: r.genFor(m.Name), Epoch: epoch, Ranges: nil}, nil); err != nil {
		r.diagf("cluster: drain %s: final ownership push: %v", m.Name, err)
	}
	v2 := persist.ViewRecord{Epoch: epoch}
	for _, vm := range view.Members {
		if vm.Name != m.Name {
			v2.Members = append(v2.Members, vm)
		}
	}
	r.commitView(v2)
	r.diagf("cluster: drained %s out at epoch %d (%d members remain)", m.Name, epoch, len(v2.Members))
	return nil
}

// removeMember drops a member without its cooperation: survivors take
// over its ranges from its state directory (if known), then the
// shrunk view commits. For members that are already gone — drain is
// the graceful path.
func (r *Router) removeMember(name string) error {
	r.rebalMu.Lock()
	defer r.rebalMu.Unlock()
	view := r.View()
	m, ok := view.Member(name)
	if !ok {
		return fmt.Errorf("cluster: unknown member %q", name)
	}
	if len(view.Members) < 2 {
		return fmt.Errorf("cluster: refusing to remove the last member")
	}
	if err := r.step("remove-takeover"); err != nil {
		return err
	}
	r.mu.RLock()
	oldRing := r.ring
	r.mu.RUnlock()
	v2 := persist.ViewRecord{Epoch: view.Epoch + 1}
	for _, vm := range view.Members {
		if vm.Name != name {
			v2.Members = append(v2.Members, vm)
		}
	}
	if m.InRing() {
		r.takeover(oldRing.Ranges(name), m.Dir, v2)
	}
	if err := r.step("remove-commit"); err != nil {
		return err
	}
	r.commitView(v2)
	return nil
}
