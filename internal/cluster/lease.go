// Coordinator election, instance side. The instances double as the
// cluster's replicated control store: each one independently grants a
// TTL lease to the lexically-lowest router it has recently heard
// from, journals every holder change into its WAL (RecLease), and
// fences control calls from stale coordinators with a per-instance
// monotonic generation. The rules are pure functions of the streamer's
// control state, the request and an explicit now; Streamer.Decide
// journals and applies what they return. A router is THE coordinator
// iff it holds the lease on a majority of the configured peers —
// disjoint majorities are impossible, so two routers can never both
// reach quorum.
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
	"desh/internal/stream"
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

// Lease processes one acquire/renew/release poll at now: it notes the
// poller as a live candidate (or drops it on release), then decides by
// decideLease and applies the decision through the streamer.
func (inst *Instance) Lease(req leaseRequest, now time.Time) (leaseReply, error) {
	ttl := time.Duration(req.TTLMillis) * time.Millisecond
	inst.mu.Lock()
	defer inst.mu.Unlock()
	lowest := ""
	if req.Release {
		delete(inst.candidates, req.Name)
	} else {
		inst.candidates[req.Name] = now
		lowest = inst.lowestCandidate(now, ttl)
	}
	var rep leaseReply
	var newHolder bool
	err := inst.s.Decide(func(c stream.Control) ([]byte, bool, error) {
		rec, durable, granted := decideLease(c, req, lowest, now)
		rep = leaseReply{Granted: granted}
		cur := c.Lease
		if rec != nil {
			cur = rec
		}
		if cur != nil {
			rep.Holder, rep.Gen, rep.ExpireNano = cur.Holder, cur.Gen, cur.ExpireNano
		}
		if c.View != nil {
			v := c.View.Clone()
			rep.View = &v
		}
		if rec == nil {
			return nil, false, nil
		}
		newHolder = rec.Holder != "" && (c.Lease == nil || c.Lease.Holder != rec.Holder)
		return persist.EncodeLease(*rec), durable, nil
	})
	if err != nil {
		return leaseReply{}, err
	}
	if newHolder {
		inst.diagf("cluster: lease granted to %q at gen %d", rep.Holder, rep.Gen)
	}
	return rep, nil
}

// decideLease is the grant rule, on lease state c at now with lowest
// the lexically-lowest live candidate. When the lease is vacant or
// expired, only the lowest candidate gets it (a higher-named router
// polling first must not squat); a holder's renewal is refused —
// without clearing the lease — once a lower-named candidate appears,
// so the holder steps down gracefully within one TTL; a release by the
// holder vacates it. The fencing generation bumps on every holder
// change. It returns the lease record to apply (nil: no change), whether
// to journal it (all but a renewal), and whether the poller holds the
// lease.
func decideLease(c stream.Control, req leaseRequest, lowest string, now time.Time) (rec *persist.LeaseRecord, durable, granted bool) {
	var cur persist.LeaseRecord
	if c.Lease != nil {
		cur = *c.Lease
	}
	if req.Release {
		if cur.Holder != req.Name {
			return nil, false, false
		}
		return &persist.LeaseRecord{Holder: "", Gen: cur.Gen}, true, false
	}
	vacant := cur.Holder == "" || now.UnixNano() > cur.ExpireNano
	deadline := now.Add(time.Duration(req.TTLMillis) * time.Millisecond).UnixNano()
	switch {
	case vacant && req.Name == lowest:
		gen := cur.Gen
		if cur.Holder != req.Name {
			gen++
		}
		return &persist.LeaseRecord{Holder: req.Name, Gen: gen, ExpireNano: deadline}, true, true
	case !vacant && cur.Holder == req.Name && req.Name == lowest:
		return &persist.LeaseRecord{Holder: req.Name, Gen: cur.Gen, ExpireNano: deadline}, false, true
	}
	// A lower-named router is live, or another holds the lease: refuse
	// without touching it, so a holder finishes in-flight work and steps
	// down when the lease runs out on its own.
	return nil, false, false
}

// fenced rejects a control call stamped with a fencing generation
// older than the newest lease this instance granted: the caller lost
// the coordinatorship and a successor is already acting. Gen 0 marks
// an unfenced caller (single-router deployments with election off)
// and always passes.
func fenced(c stream.Control, gen uint64) error {
	if c.Lease != nil && gen > 0 && gen < c.Lease.Gen {
		return fmt.Errorf("%w %d < %d", errFenced, gen, c.Lease.Gen)
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

// InstallView journals and installs a cluster view, as decideView rules.
func (inst *Instance) InstallView(req viewRequest) error {
	return inst.s.Decide(func(c stream.Control) ([]byte, bool, error) {
		rec, err := decideView(c, req)
		return rec, true, err
	})
}

// decideView is the view rule: the view record to journal, nothing when
// the same epoch is re-pushed (idempotent), or an error for a fenced
// caller or a view older than the installed one (the caller is behind).
func decideView(c stream.Control, req viewRequest) ([]byte, error) {
	if err := fenced(c, req.Gen); err != nil {
		return nil, err
	}
	if c.View != nil {
		if req.View.Epoch < c.View.Epoch {
			return nil, fmt.Errorf("cluster: stale view epoch %d < %d", req.View.Epoch, c.View.Epoch)
		}
		if req.View.Epoch == c.View.Epoch {
			return nil, nil
		}
	}
	return persist.EncodeView(req.View), nil
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
// handoff intent, as decideResolve rules: commit journals the intent's
// Out (the ranges leave the ownership), abort its Abort (they thaw and
// stay).
func (inst *Instance) Resolve(req resolveRequest) error {
	h, err := decideResolve(inst.s.Control(), req)
	if err != nil {
		return err
	}
	if !req.Commit {
		if err := inst.s.AbortHandoff(); err != nil {
			return err
		}
		inst.diagf("cluster: aborted pending handoff at epoch %d (target %s never imported)", h.Epoch, h.Peer)
		return nil
	}
	if err := inst.s.CompleteHandoff(); err != nil {
		return err
	}
	inst.diagf("cluster: completed pending handoff at epoch %d (target %s holds the state)", h.Epoch, h.Peer)
	return nil
}

// decideResolve is the resolve rule: the pending intent to settle, or an
// error for a fenced caller, no pending intent, or an intent at another
// epoch — the caller is resolving against stale status.
func decideResolve(c stream.Control, req resolveRequest) (persist.HandoffRecord, error) {
	if err := fenced(c, req.Gen); err != nil {
		return persist.HandoffRecord{}, err
	}
	if c.Handoff == nil {
		return persist.HandoffRecord{}, fmt.Errorf("cluster: no pending handoff to resolve")
	}
	if c.Handoff.Epoch != req.Epoch {
		return persist.HandoffRecord{}, fmt.Errorf("cluster: pending handoff epoch %d, resolve asked for %d", c.Handoff.Epoch, req.Epoch)
	}
	return *c.Handoff, nil
}
