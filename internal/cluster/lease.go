// Coordinator election, instance side. The instances double as the
// cluster's replicated control store: each one independently grants a
// TTL lease to the lexically-lowest router it has recently heard
// from, journals every holder change into its WAL (RecLease), and
// fences control calls from stale coordinators with a per-instance
// monotonic generation. A router is THE coordinator iff it holds the
// lease on a majority of the configured peers — disjoint majorities
// are impossible, so two routers can never both reach quorum.
//
// Election is deliberately hierarchical rather than consensus-based:
// the routers already agree on ownership for free (deterministic
// rings), so the lease only has to pick one of them to DRIVE changes,
// and a short window with zero coordinators is safe — forwarding and
// spilling continue without one.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"desh/internal/persist"
)

// leaseRequest is one router's /cluster/lease poll: an acquire-or-
// renew (and candidate heartbeat) for Name with the given TTL, or a
// voluntary release when Release is set.
type leaseRequest struct {
	Name      string `json:"name"`
	TTLMillis int64  `json:"ttl_ms"`
	Release   bool   `json:"release,omitempty"`
}

func (r leaseRequest) validate() error {
	if r.Name == "" {
		return fmt.Errorf("%w: lease request without a router name", errPayload)
	}
	if !r.Release && (r.TTLMillis <= 0 || r.TTLMillis > int64(time.Hour/time.Millisecond)) {
		return fmt.Errorf("%w: lease ttl_ms %d outside (0, 1h]", errPayload, r.TTLMillis)
	}
	return nil
}

// leaseReply reports this instance's lease decision plus its current
// cluster view — the piggyback that keeps non-coordinator routers'
// rings converged without a separate gossip channel.
type leaseReply struct {
	Granted    bool                `json:"granted"`
	Holder     string              `json:"holder"`
	Gen        uint64              `json:"gen"`
	ExpireNano int64               `json:"expire_nano"`
	View       *persist.ViewRecord `json:"view,omitempty"`
}

// lowestCandidate returns the lexically-lowest router name seen
// polling recently enough to be considered live. Caller holds inst.mu.
func (inst *Instance) lowestCandidate(now time.Time, ttl time.Duration) string {
	lowest := ""
	for name, seen := range inst.candidates {
		if now.Sub(seen) > 3*ttl {
			delete(inst.candidates, name)
		} else if lowest == "" || name < lowest {
			lowest = name
		}
	}
	return lowest
}

// Lease processes one acquire/renew/release poll. The grant rule:
// when the lease is vacant or expired, only the lexically-lowest live
// candidate gets it (a higher-named router polling first must not
// squat); a holder's renewal is refused — without clearing the lease —
// once a lower-named candidate appears, so the holder steps down
// gracefully within one TTL. The fencing generation bumps on every
// holder change and every change is journaled before it takes effect.
func (inst *Instance) Lease(req leaseRequest) (leaseReply, error) {
	now := time.Now()
	ttl := time.Duration(req.TTLMillis) * time.Millisecond
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if req.Release {
		if inst.leaseHolder == req.Name {
			rec := persist.LeaseRecord{Holder: "", Gen: inst.leaseGen, ExpireNano: 0}
			if err := inst.s.JournalLease(rec); err != nil {
				return leaseReply{}, err
			}
			inst.leaseHolder = ""
			inst.leaseDeadline = time.Time{}
		}
		delete(inst.candidates, req.Name)
		return inst.leaseReplyLocked(false), nil
	}
	inst.candidates[req.Name] = now
	lowest := inst.lowestCandidate(now, ttl)
	vacant := inst.leaseHolder == "" || now.After(inst.leaseDeadline)
	switch {
	case vacant && req.Name == lowest:
		deadline := now.Add(ttl)
		gen := inst.leaseGen
		if inst.leaseHolder != req.Name {
			gen++
		}
		rec := persist.LeaseRecord{Holder: req.Name, Gen: gen, ExpireNano: deadline.UnixNano()}
		if err := inst.s.JournalLease(rec); err != nil {
			return leaseReply{}, err
		}
		if inst.leaseHolder != req.Name {
			inst.diagf("cluster: lease granted to %q at gen %d", req.Name, gen)
		}
		inst.leaseHolder, inst.leaseGen, inst.leaseDeadline = req.Name, gen, deadline
		return inst.leaseReplyLocked(true), nil
	case !vacant && inst.leaseHolder == req.Name:
		if req.Name == lowest {
			inst.leaseDeadline = now.Add(ttl)
			return inst.leaseReplyLocked(true), nil
		}
		// A lower-named router is live: refuse the renewal but keep the
		// current deadline, so the holder finishes in-flight work and
		// steps down when the lease runs out on its own.
		return inst.leaseReplyLocked(false), nil
	default:
		return inst.leaseReplyLocked(false), nil
	}
}

func (inst *Instance) leaseReplyLocked(granted bool) leaseReply {
	rep := leaseReply{
		Granted:    granted,
		Holder:     inst.leaseHolder,
		Gen:        inst.leaseGen,
		ExpireNano: inst.leaseDeadline.UnixNano(),
	}
	if inst.view != nil {
		v := inst.view.Clone()
		rep.View = &v
	}
	return rep
}

// fenced rejects a control call stamped with a fencing generation
// older than the newest lease this instance granted: the caller lost
// the coordinatorship and a successor is already acting. Gen 0 marks
// an unfenced caller (single-router deployments with election off)
// and always passes. Caller holds inst.mu (any mode).
func (inst *Instance) fencedLocked(gen uint64) error {
	if gen > 0 && gen < inst.leaseGen {
		return fmt.Errorf("%w %d < %d", errFenced, gen, inst.leaseGen)
	}
	return nil
}

// errFenced marks a control call the fence refused.
var errFenced = errors.New("cluster: stale coordinator generation")

// viewRequest installs a coordinator-pushed cluster view.
type viewRequest struct {
	Gen  uint64             `json:"gen,omitempty"`
	View persist.ViewRecord `json:"view"`
}

func (r viewRequest) validate() error {
	if r.View.Epoch == 0 {
		return fmt.Errorf("%w: view with epoch 0", errPayload)
	}
	if len(r.View.Members) == 0 {
		return fmt.Errorf("%w: view with no members", errPayload)
	}
	seen := make(map[string]bool, len(r.View.Members))
	for _, m := range r.View.Members {
		if m.Name == "" {
			return fmt.Errorf("%w: view member without a name", errPayload)
		}
		if seen[m.Name] {
			return fmt.Errorf("%w: duplicate view member %q", errPayload, m.Name)
		}
		seen[m.Name] = true
		switch m.State {
		case persist.StateIn, persist.StateDraining, persist.StateDrained, persist.StateEjected:
		default:
			return fmt.Errorf("%w: view member %q has unknown state %q", errPayload, m.Name, m.State)
		}
	}
	return nil
}

// InstallView journals and installs a cluster view. A view older than
// the installed one is rejected (the caller is behind); re-pushing the
// same epoch is an idempotent no-op.
func (inst *Instance) InstallView(req viewRequest) error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if err := inst.fencedLocked(req.Gen); err != nil {
		return err
	}
	if inst.view != nil {
		if req.View.Epoch < inst.view.Epoch {
			return fmt.Errorf("cluster: stale view epoch %d < %d", req.View.Epoch, inst.view.Epoch)
		}
		if req.View.Epoch == inst.view.Epoch {
			return nil
		}
	}
	if err := inst.s.JournalView(req.View); err != nil {
		return err
	}
	v := req.View.Clone()
	inst.view = &v
	return nil
}

// View returns the installed cluster view (ok=false before any push).
func (inst *Instance) View() (persist.ViewRecord, bool) {
	inst.mu.RLock()
	defer inst.mu.RUnlock()
	if inst.view == nil {
		return persist.ViewRecord{}, false
	}
	return inst.view.Clone(), true
}

// resolveRequest settles a pending outbound handoff intent left by a
// crashed coordinator: Commit=true means the target durably imported
// the intent's epoch (finish the handoff: drop the frozen state here),
// false means it never did (abort: thaw and keep serving).
type resolveRequest struct {
	Gen    uint64 `json:"gen,omitempty"`
	Epoch  uint64 `json:"epoch"`
	Commit bool   `json:"commit"`
}

func (r resolveRequest) validate() error {
	if r.Epoch == 0 {
		return fmt.Errorf("%w: resolve with epoch 0", errPayload)
	}
	return nil
}

// Resolve applies a resolveRequest against this instance's pending
// handoff intent. The epoch must match the pending intent exactly —
// a mismatch means the caller is resolving against stale status.
func (inst *Instance) Resolve(req resolveRequest) error {
	inst.mu.Lock()
	if err := inst.fencedLocked(req.Gen); err != nil {
		inst.mu.Unlock()
		return err
	}
	inst.mu.Unlock()
	epoch, target, ranges, ok := inst.s.PendingHandoff()
	if !ok {
		return fmt.Errorf("cluster: no pending handoff to resolve")
	}
	if epoch != req.Epoch {
		return fmt.Errorf("cluster: pending handoff epoch %d, resolve asked for %d", epoch, req.Epoch)
	}
	if !req.Commit {
		if err := inst.s.AbortHandoff(); err != nil {
			return err
		}
		inst.diagf("cluster: aborted pending handoff at epoch %d (target %s never imported)", epoch, target)
		return nil
	}
	// Mirror HandoffTo's commit ordering: shrink ownership before
	// resolving the journal so no thawed event lands here.
	inst.mu.Lock()
	if req.Epoch > inst.epoch {
		inst.epoch = req.Epoch
	}
	inst.ranges = subtractRanges(inst.ranges, ranges)
	inst.mu.Unlock()
	if err := inst.s.CompleteHandoff(); err != nil {
		return err
	}
	inst.diagf("cluster: completed pending handoff at epoch %d (target %s holds the state)", epoch, target)
	return nil
}
