// The router's control-plane decisions: one lease round, one converge
// pass, one membership change, each decided from the view, the replies
// already fetched and the peers' health. No HTTP, no clock: a test runs
// the control plane against instances folded by stream.Control.Apply.
package cluster

import (
	"errors"
	"fmt"
	"slices"

	"desh/internal/persist"
)

// decideElection tallies one lease round over view's members from the
// replies that came back: the router coordinates iff a majority of the
// members granted it the lease, and adopt is the newest view that rode
// in on a reply (nil: none did).
func decideElection(view persist.ViewRecord, replies []leaseReply) (granted int, coordinator bool, adopt *persist.ViewRecord) {
	for _, rep := range replies {
		if rep.Granted {
			granted++
		}
		if rep.View != nil && (adopt == nil || rep.View.Epoch > adopt.Epoch) {
			adopt = rep.View
		}
	}
	return granted, granted >= len(view.Members)/2+1, adopt
}

// resolution settles one member's pending handoff intent.
type resolution struct {
	member persist.ViewMember
	req    resolveRequest
}

// decideConverge is the coordinator's repair pass over view, from the
// statuses of the members that answered and, per pending handoff intent,
// whether its target durably imported it (absent: the target did not
// answer). While any intent is pending it only resolves them: imported
// commits (the source sheds the frozen ranges), not imported aborts (the
// source thaws them), no answer leaves them frozen — safe, events bounce
// and spill — for a later pass. Otherwise a drain journaled in the view
// resumes if its drainee answered (a dead one is health ejection's
// business); with none, every in-ring member behind the view — freshly
// booted, recovered, or cut off from an earlier push — is healed.
func decideConverge(view persist.ViewRecord, statuses map[string]statusReply, imported map[string]bool) (resolve []resolution, drain string, heal []persist.ViewMember) {
	pending := false
	for _, m := range view.Members {
		if ph := statuses[m.Name].PendingHandoff; ph != nil {
			pending = true
			if done, ok := imported[m.Name]; ok {
				resolve = append(resolve, resolution{m, resolveRequest{Epoch: ph.Epoch, Commit: done}})
			}
		}
	}
	if pending {
		return resolve, "", nil
	}
	for _, m := range view.Members {
		if m.State == persist.StateDraining {
			if _, ok := statuses[m.Name]; ok {
				drain = m.Name
			}
			return nil, drain, nil
		}
	}
	for _, m := range view.Members {
		if st, ok := statuses[m.Name]; ok && m.InRing() && (st.ViewEpoch < view.Epoch || st.Epoch < view.Epoch) {
			heal = append(heal, m)
		}
	}
	return nil, "", heal
}

// plan is one membership change, decided in full before any of it runs.
type plan struct {
	action, member string
	// register is an added member, given empty ownership at the current
	// epoch to clear the standalone full circle it booted with.
	register *persist.ViewMember
	// intent is a drain's V1, the drainee marked draining: journaled
	// fleet-wide first, so a successor coordinator resumes the drain.
	intent *persist.ViewRecord
	moves  []move
	// emptied is the drainee, given empty ownership at next's epoch.
	emptied *persist.ViewMember
	next    persist.ViewRecord
	// early installs next before the moves, so a dead member's lines
	// spill at once; any other change installs it after them, since a
	// returnee's stale epoch may cover the ranges it regains.
	early bool
	// The rebalance step boundaries crossed before the registration,
	// intent or takeovers, before each move and before the commit.
	startStep, moveStep, commitStep string
}

// move migrates ranges from one member to another under epoch.
type move struct {
	from, to persist.ViewMember
	ranges   []persist.HashRange
	epoch    uint64
	// takeover rebuilds the ranges on to from from's state directory;
	// otherwise from, which is alive, hands them off.
	takeover bool
	// hardStop ends the plan at a failed move: a drainee's state must
	// land somewhere before it leaves. Otherwise the ranges serve cold.
	hardStop bool
}

// errNoChange marks an eject or readmit the view no longer calls for.
var errNoChange = errors.New("cluster: no membership change to make")

// planChange decides one membership change on view: an administrative
// add, drain or remove, or the health loop's eject or readmit. A drain
// moves what drainee, the drainee's status, owns; an add or readmit
// takes ranges only from healthy owners (the rest serve cold).
func planChange(view persist.ViewRecord, req RebalanceRequest, drainee statusReply, healthy func(string) bool) (plan, error) {
	m, known := view.Member(req.Name)
	if !known && (req.Action == "drain" || req.Action == "remove") {
		return plan{}, fmt.Errorf("cluster: unknown member %q", req.Name)
	}
	p := plan{action: req.Action, member: req.Name, next: view.Clone()}
	p.next.Epoch++
	switch req.Action {
	case "add":
		if known {
			return plan{}, fmt.Errorf("cluster: member %q already in the view", req.Name)
		}
		m = persist.ViewMember{Name: req.Name, URL: req.URL, Dir: req.Dir, State: persist.StateIn}
		p.register, p.next.Members = &m, append(p.next.Members, m)
		p.startStep, p.moveStep, p.commitStep = "add-register", "add-handoff", "add-commit"
	case "readmit":
		if m.State != persist.StateEjected {
			return plan{}, errNoChange
		}
		setMemberState(&p.next, req.Name, persist.StateIn)
	case "eject":
		if !m.InRing() {
			return plan{}, errNoChange
		}
		setMemberState(&p.next, req.Name, persist.StateEjected)
		p.early = true
	case "remove":
		if len(view.Members) < 2 {
			return plan{}, fmt.Errorf("cluster: refusing to remove the last member")
		}
		p.next.Members = slices.DeleteFunc(p.next.Members, func(o persist.ViewMember) bool { return o.Name == req.Name })
		p.startStep, p.commitStep = "remove-takeover", "remove-commit"
	case "drain":
		switch m.State {
		case persist.StateDraining: // resuming an interrupted drain
		case persist.StateIn:
			v1 := view.Clone()
			setMemberState(&v1, req.Name, persist.StateDraining)
			v1.Epoch++
			p.intent, p.next.Epoch, p.startStep = &v1, v1.Epoch+1, "drain-intent"
		default:
			return plan{}, fmt.Errorf("cluster: member %q is %s — only an in-ring member can drain", req.Name, m.State)
		}
		p.next.Members = slices.DeleteFunc(p.next.Members, func(o persist.ViewMember) bool { return o.Name == req.Name })
		if len(p.next.RingMembers()) == 0 {
			return plan{}, fmt.Errorf("cluster: refusing to drain the last in-ring member")
		}
		p.emptied, p.moveStep, p.commitStep = &m, "drain-handoff", "drain-commit"
	default:
		return plan{}, fmt.Errorf("%w: membership change %q", errPayload, req.Action)
	}
	old := NewRing(view.RingMembers(), 0)
	switch {
	case req.Action == "drain":
		p.moves = shares(move{from: m, hardStop: true}, drainee.Ranges, p.next)
	case req.Action == "add" || req.Action == "readmit":
		for _, owner := range old.Members() {
			if from, _ := view.Member(owner); healthy(owner) {
				p.moves = append(p.moves, shares(move{from: from}, old.Ranges(owner), p.next)...)
			}
		}
	case m.InRing() && m.Dir != "": // an eject or remove: survivors take over from the state dir
		p.moves = shares(move{from: m, takeover: true}, old.Ranges(m.Name), p.next)
	}
	return p, nil
}

// shares splits ranges, which mv.from gives up, over next's ring: a
// move like mv to each other in-ring member, of the part it gets.
func shares(mv move, ranges []persist.HashRange, next persist.ViewRecord) []move {
	ring := NewRing(next.RingMembers(), 0)
	var moves []move
	for _, to := range next.Members {
		if to.InRing() && to.Name != mv.from.Name {
			if mv.ranges = persist.Intersect(ranges, ring.Ranges(to.Name)); len(mv.ranges) > 0 {
				mv.to, mv.epoch = to, next.Epoch
				moves = append(moves, mv)
			}
		}
	}
	return moves
}

// setMemberState rewrites one member's state in a cloned view.
func setMemberState(v *persist.ViewRecord, name, state string) {
	for i := range v.Members {
		if v.Members[i].Name == name {
			v.Members[i].State = state
			return
		}
	}
}
