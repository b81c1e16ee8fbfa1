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
// This file carries out the decisions in plan.go: it fetches what
// they read and posts what they return.
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

// electOnce runs one lease round: it polls every member, keeps the
// fencing generations the replies report, and installs the view and
// takes the role decideElection makes of them; a coordinator then runs
// one convergence pass.
func (r *Router) electOnce() {
	view := r.View()
	var replies []leaseReply
	for _, m := range view.Members {
		var rep leaseReply
		if err := postJSON(r.leaseClient, m.URL+"/cluster/lease",
			leaseRequest{Name: r.cfg.Name, TTLMillis: r.cfg.LeaseTTL.Milliseconds()}, &rep); err != nil {
			continue
		}
		r.mu.Lock()
		r.gens[m.Name] = max(r.gens[m.Name], rep.Gen)
		r.mu.Unlock()
		replies = append(replies, rep)
	}
	granted, is, adopt := decideElection(view, replies)
	if adopt != nil && r.installView(*adopt) {
		r.diagf("cluster: router %s adopted view epoch %d from lease replies", r.cfg.Name, adopt.Epoch)
	}
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
// it surveys the members and carries out what decideConverge makes of
// the replies. Skipped without blocking while an administrative
// rebalance holds rebalMu.
func (r *Router) converge() {
	if !r.rebalMu.TryLock() {
		return
	}
	defer r.rebalMu.Unlock()
	if r.ctx.Err() != nil {
		return
	}
	view := r.View()
	statuses, imported := r.survey(view.Members)
	resolve, drain, heal := decideConverge(view, statuses, imported)
	for _, res := range resolve {
		if err := r.resolve(res); err != nil {
			r.diagf("cluster: intent resolution on %s: %v", res.member.Name, err)
		}
	}
	if drain != "" {
		p, err := planChange(view, RebalanceRequest{Action: "drain", Name: drain}, statuses[drain], r.healthy)
		if err == nil {
			err = r.execute(p)
		}
		if err != nil {
			r.diagf("cluster: resuming drain of %s: %v", drain, err)
		}
	}
	for _, m := range heal {
		st := statuses[m.Name]
		r.diagf("cluster: healing %s (instance view %d, epoch %d; cluster epoch %d)", m.Name, st.ViewEpoch, st.Epoch, view.Epoch)
	}
	r.publish(view, heal, true)
}

// survey fetches the members' statuses and, for each pending handoff
// intent among them, whether its target durably imported it. A member
// that does not answer has no status, a target that does not answer no
// verdict.
func (r *Router) survey(members []persist.ViewMember) (map[string]statusReply, map[string]bool) {
	statuses, imported := make(map[string]statusReply, len(members)), make(map[string]bool)
	for _, m := range members {
		var st statusReply
		if err := getJSON(r.client, m.URL+"/cluster/status", &st); err != nil {
			continue
		}
		statuses[m.Name] = st
		if ph := st.PendingHandoff; ph != nil {
			var rep struct {
				Imported bool `json:"imported"`
			}
			q := fmt.Sprintf("%s/cluster/imported?epoch=%d&source=%s", ph.Target, ph.Epoch, url.QueryEscape(m.Name))
			if err := getJSON(r.client, q, &rep); err != nil {
				r.diagf("cluster: intent target unreachable, %s stays frozen: %v", m.Name, err)
				continue
			}
			imported[m.Name] = rep.Imported
		}
	}
	return statuses, imported
}

// resolve posts one intent resolution to the intent's source.
func (r *Router) resolve(res resolution) error {
	if err := r.step("resolve-intent"); err != nil {
		return err
	}
	req := res.req
	req.Gen = r.genFor(res.member.Name)
	if err := postJSON(r.client, res.member.URL+"/cluster/resolve", req, nil); err != nil {
		return err
	}
	r.diagf("cluster: resolved pending handoff on %s at epoch %d (commit=%v)", res.member.Name, req.Epoch, req.Commit)
	return nil
}

// publish posts view v to members — the view itself unless view is
// false — then to an in-ring member the ownership v's ring gives it. A
// member that refuses the view (it is fenced, or holds a newer one) gets
// no ownership from v.
func (r *Router) publish(v persist.ViewRecord, members []persist.ViewMember, view bool) {
	ring := NewRing(v.RingMembers(), 0)
	for _, m := range members {
		gen := r.genFor(m.Name)
		if view {
			if err := postJSON(r.client, m.URL+"/cluster/view", viewRequest{Gen: gen, View: v}, nil); err != nil {
				r.diagf("cluster: view push to %s: %v", m.Name, err)
				continue
			}
		}
		if m.InRing() {
			if err := postJSON(r.client, m.URL+"/cluster/ownership",
				ownershipRequest{Gen: gen, Epoch: v.Epoch, Ranges: ring.Ranges(m.Name)}, nil); err != nil {
				r.diagf("cluster: ownership push to %s: %v", m.Name, err)
			}
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
	err := r.rebalance(req)
	r.rebalStMu.Lock()
	r.rebalSt.Active, r.rebalSt.Step = false, "done"
	if err != nil {
		r.rebalSt.Step, r.rebalSt.Error = "failed", err.Error()
	}
	r.rebalStMu.Unlock()
	if err != nil { // a change that commits says so as its view installs
		r.diagf("cluster: rebalance %s %s: %v", req.Action, req.Name, err)
	}
}

// step records a rebalance step, fires the chaos hook, and reports
// whether the router was killed at the boundary — a killed coordinator
// must stop mid-protocol exactly the way SIGKILL would stop it. The
// empty step is no boundary.
func (r *Router) step(s string) error {
	if s == "" {
		return nil
	}
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

// rebalance runs one membership change on the installed view. A drain
// moves what its drainee's journaled ownership holds, once a pending
// handoff intent on the drainee is settled as a converge pass would.
func (r *Router) rebalance(req RebalanceRequest) error {
	r.rebalMu.Lock()
	defer r.rebalMu.Unlock()
	view := r.View()
	var st statusReply
	if m, ok := view.Member(req.Name); ok && req.Action == "drain" {
		statuses, imported := r.survey([]persist.ViewMember{m})
		resolve, _, _ := decideConverge(view, statuses, imported)
		for _, res := range resolve {
			if err := r.resolve(res); err != nil {
				return err
			}
			statuses, _ = r.survey([]persist.ViewMember{m})
		}
		if st, ok = statuses[m.Name]; !ok || st.PendingHandoff != nil {
			return fmt.Errorf("cluster: drain %s: source unreachable, or its pending handoff unsettled", m.Name)
		}
	}
	p, err := planChange(view, req, st, r.healthy)
	if err != nil {
		return err
	}
	return r.execute(p)
}

// execute carries out a plan: every post, every rebalance step boundary
// and the counters. A boundary the router was killed at, a failed
// registration or a failed hard-stop move ends it there; a failed
// cold-continue move is counted and the rest goes on.
func (r *Router) execute(p plan) error {
	if err := r.step(p.startStep); err != nil {
		return err
	}
	if m := p.register; m != nil {
		if err := postJSON(r.client, m.URL+"/cluster/ownership", ownershipRequest{Epoch: p.next.Epoch - 1}, nil); err != nil {
			return fmt.Errorf("cluster: add %s: registration: %w", m.Name, err)
		}
	}
	if v := p.intent; v != nil {
		r.installView(*v)
		r.publish(*v, v.Members, true)
	}
	if p.early {
		if r.install(p); len(p.next.RingMembers()) == 0 {
			return nil // everything spills until someone comes back
		}
	}
	for _, mv := range p.moves {
		if err := r.step(p.moveStep); err != nil {
			return err
		}
		if err := r.migrate(mv); err != nil && mv.hardStop {
			return err
		}
	}
	if err := r.step(p.commitStep); err != nil {
		return err
	}
	if m := p.emptied; m != nil {
		if err := postJSON(r.client, m.URL+"/cluster/ownership",
			ownershipRequest{Gen: r.genFor(m.Name), Epoch: p.next.Epoch}, nil); err != nil {
			r.diagf("cluster: drain %s: final ownership push: %v", m.Name, err)
		}
	}
	if !p.early {
		r.install(p)
	}
	r.publish(p.next, p.next.Members, true)
	return nil
}

// install installs a plan's next view here and counts the change, so
// whoever sees an ejection or readmission counted sees its rebalance
// counted too.
func (r *Router) install(p plan) {
	r.installView(p.next)
	r.met.Rebalances.Add(1)
	switch p.action {
	case "eject":
		r.met.PeerUnhealthy.Add(1)
	case "readmit":
		r.met.Readmits.Add(1)
	}
	r.diagf("cluster: %s %s: epoch %d, %d in the ring", p.action, p.member, p.next.Epoch, len(p.next.RingMembers()))
}

// migrate runs one move — a takeover posted to its target, or a live
// handoff posted to its source — and counts a failure.
func (r *Router) migrate(mv move) error {
	url, failed := mv.from.URL+"/cluster/handoff", &r.met.HandoffErrors
	var req any = handoffRequest{Gen: r.genFor(mv.from.Name), Epoch: mv.epoch, Target: mv.to.URL, Ranges: mv.ranges}
	if mv.takeover {
		url, failed = mv.to.URL+"/cluster/takeover", &r.met.TakeoverErrors
		req = takeoverRequest{Gen: r.genFor(mv.to.Name), Epoch: mv.epoch, Dir: mv.from.Dir, Ranges: mv.ranges}
	}
	err := postJSON(r.client, url, req, nil)
	if err != nil {
		failed.Add(1)
		err = fmt.Errorf("cluster: moving ranges %s -> %s: %w", mv.from.Name, mv.to.Name, err)
		r.diagf("%v", err)
	}
	return err
}
