// The cluster control plane's state, kept once: the streamer's WAL is
// the instance's replicated control store. Every control record —
// ownership (RecEpoch), the coordinator lease it granted (RecLease), the
// cluster view the coordinator pushed (RecView) and the four handoff
// records — changes the state through one transition, Apply, which the
// live path runs right after journaling the record and boot replay runs
// on each record of the tail. So the state a restart recovers is the
// state the process had at the same journal point, and a full-fleet
// restart comes back knowing what it owns, who coordinated at which
// fencing generation, and what the membership looked like, without any
// external metadata service.
package stream

import (
	"fmt"

	"desh/internal/persist"
)

// Control is the control plane's state. Snapshots carry it (boot replay
// skips every WAL record below a snapshot's boundary, control records
// included), and the WAL tail then replays on top of it. Its field names
// and types are its snapshot encoding.
type Control struct {
	// Epoch is the newest ownership: the epoch and the hash ranges this
	// instance serves under it. nil is standalone, which owns the whole
	// circle, so a deshd without a router runs unchanged.
	Epoch *persist.EpochRecord
	// Lease is the newest coordinator-lease decision: its holder ("" once
	// released), the fencing generation and the absolute deadline.
	Lease *persist.LeaseRecord
	// View is the newest cluster view the coordinator pushed.
	View *persist.ViewRecord
	// Imports holds every handoff this instance durably imported
	// (RecHandoffIn), so a successor coordinator can resolve a crashed
	// predecessor's pending intent by asking the target "did epoch E from
	// source S commit on you?". Both key it because one rebalance hands
	// off from several sources under one epoch.
	Imports map[ImportKey]bool
	// Handoff is the outbound handoff between its two commit points
	// (RecHandoffBegin, then RecHandoffOut or RecHandoffAbort). Its
	// ranges are frozen: ingest refuses them.
	Handoff *persist.HandoffRecord
}

// ImportKey identifies one durably-imported handoff: the ownership
// epoch it ran under and the source instance that shipped it.
type ImportKey struct {
	Epoch  uint64
	Source string
}

// Owned returns the newest ownership's epoch and ranges (0 and nil when
// standalone).
func (c Control) Owned() (uint64, []persist.HashRange) {
	if c.Epoch == nil {
		return 0, nil
	}
	return c.Epoch.Epoch, c.Epoch.Ranges
}

// admits reports whether ingest may take an event for the node whose
// persist.NodeHash is h: the state owns h, and no handoff has its range
// frozen.
func (c *Control) admits(h uint32) bool {
	return (c.Epoch == nil || persist.RangesContain(c.Epoch.Ranges, h)) &&
		(c.Handoff == nil || !persist.RangesContain(c.Handoff.Ranges, h))
}

// Apply is the one transition: it folds one control WAL record (type
// byte first) into c. Records are replaced, never changed in place, so a
// copy (clone) stays valid. Other record types pass.
func (c *Control) Apply(rec []byte) error {
	var err error
	switch rec[0] {
	case persist.RecEpoch:
		var e persist.EpochRecord
		if e, err = persist.DecodeEpoch(rec[1:]); err == nil {
			c.Epoch = &e
		}
	case persist.RecLease:
		var l persist.LeaseRecord
		if l, err = persist.DecodeLease(rec[1:]); err == nil {
			c.Lease = &l
		}
	case persist.RecView:
		var v persist.ViewRecord
		if v, err = persist.DecodeView(rec[1:]); err == nil {
			c.View = &v
		}
	case persist.RecHandoffBegin, persist.RecHandoffOut, persist.RecHandoffAbort, persist.RecHandoffIn:
		var h persist.HandoffRecord
		if h, err = persist.DecodeHandoff(rec[1:]); err != nil {
			break
		}
		h.State = nil
		owned := []persist.HashRange{{}} // standalone: the whole circle
		if c.Epoch != nil {
			owned = c.Epoch.Ranges
		}
		switch rec[0] {
		case persist.RecHandoffBegin:
			c.Handoff = &h
		case persist.RecHandoffAbort:
			c.Handoff = nil
		case persist.RecHandoffOut:
			c.own(h.Epoch, persist.SubtractRanges(owned, h.Ranges))
			c.Handoff = nil
		case persist.RecHandoffIn:
			gained := persist.SubtractRanges(h.Ranges, owned)
			c.own(h.Epoch, append(append([]persist.HashRange(nil), owned...), gained...))
			if c.Imports == nil {
				c.Imports = make(map[ImportKey]bool)
			}
			c.Imports[ImportKey{h.Epoch, h.Peer}] = true
		}
	}
	return err
}

// own replaces the ownership with ranges at the newer of the current
// epoch and epoch: a handoff never lowers it.
func (c *Control) own(epoch uint64, ranges []persist.HashRange) {
	if c.Epoch != nil {
		epoch = max(epoch, c.Epoch.Epoch)
	}
	c.Epoch = &persist.EpochRecord{Epoch: epoch, Ranges: ranges}
}

// clone copies c deep enough that nothing Apply does later shows in it.
func (c *Control) clone() Control {
	out := *c
	out.Imports = make(map[ImportKey]bool, len(c.Imports))
	for k := range c.Imports {
		out.Imports[k] = true
	}
	if c.View != nil {
		v := c.View.Clone()
		out.View = &v
	}
	return out
}

// Control returns a copy of the control state.
func (s *Streamer) Control() Control {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ctl.clone()
}

// Decide runs one control decision under the ingest lock, so no other
// control change interleaves with it: decide sees the current state and
// returns the control record to journal and apply (nil for none), or an
// error. A record returned with durable false is applied without being
// journaled — the lease renewal, whose loss in a crash only shortens the
// lease. decide must not modify the state it is given.
func (s *Streamer) Decide(decide func(Control) (rec []byte, durable bool, err error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, durable, err := decide(s.ctl)
	if err != nil || rec == nil {
		return err
	}
	if s.closed {
		return ErrClosed
	}
	return s.commitLocked(rec, durable)
}

// commitLocked journals one control record, when durable and persisting,
// and applies it: the live half of the one transition. The caller holds
// s.mu, which orders control records against ingest and snapshots.
func (s *Streamer) commitLocked(rec []byte, durable bool) error {
	if durable && s.pst != nil {
		if _, err := s.pst.wal.Append(rec); err != nil {
			return fmt.Errorf("stream: control journal: %w", err)
		}
	}
	return s.ctl.Apply(rec)
}
