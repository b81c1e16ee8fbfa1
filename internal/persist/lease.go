package persist

import (
	"encoding/binary"
	"fmt"
)

// Coordinator-election record types. The instances double as the
// cluster's tiny replicated control store: each journals the
// coordinator lease it granted (RecLease) and the cluster view the
// coordinator pushed (RecView), so a full-fleet restart comes back
// knowing who coordinated, at which fencing generation, and what the
// membership looked like — without any external metadata service.
const (
	RecLease byte = 10
	RecView  byte = 11
)

// LeaseRecord is one instance's view of the coordinator lease: the
// holding router's name, the per-instance fencing generation
// (monotonic across holder changes — a stale coordinator's control
// calls carry an older generation and are 409-fenced), and the
// absolute expiry. Holder "" is a journaled release.
type LeaseRecord struct {
	Holder     string
	Gen        uint64
	ExpireNano int64
}

// Member states inside a ViewRecord. InRing membership = StateIn or
// StateDraining (a draining member keeps serving until its ranges
// move); a StateEjected member is out of the ring but still known to
// the fleet. A drain takes its member out of the view altogether.
const (
	StateIn       = "in"
	StateDraining = "draining"
	StateEjected  = "ejected"
)

// KnownState reports whether s is one of the member states.
func KnownState(s string) bool { return s == StateIn || s == StateDraining || s == StateEjected }

// ViewMember is one cluster member inside a view: its stable name,
// ingest URL, state directory (takeover source), and ring state.
type ViewMember struct {
	Name  string
	URL   string
	Dir   string
	State string
}

// InRing reports whether the member currently owns ring arcs.
func (m ViewMember) InRing() bool {
	return m.State == StateIn || m.State == StateDraining
}

// ViewRecord is the journaled cluster view: the membership (with ring
// states) under one ownership epoch. Every router derives the same
// deterministic ring from the in-ring member names, so the view is
// all replicated routers need to agree on; a StateDraining member is
// a durable planned-rebalance intent a successor coordinator resumes.
type ViewRecord struct {
	Epoch   uint64
	Members []ViewMember
}

// RingMembers returns the names of in-ring members.
func (v ViewRecord) RingMembers() []string {
	var names []string
	for _, m := range v.Members {
		if m.InRing() {
			names = append(names, m.Name)
		}
	}
	return names
}

// Member returns the named member and whether it exists.
func (v ViewRecord) Member(name string) (ViewMember, bool) {
	for _, m := range v.Members {
		if m.Name == name {
			return m, true
		}
	}
	return ViewMember{}, false
}

// Clone deep-copies the view so a coordinator can stage changes
// without aliasing the installed one.
func (v ViewRecord) Clone() ViewRecord {
	out := ViewRecord{Epoch: v.Epoch, Members: append([]ViewMember(nil), v.Members...)}
	return out
}

// EncodeLease frames a lease record.
func EncodeLease(rec LeaseRecord) []byte {
	b := make([]byte, 0, 1+len(rec.Holder)+24)
	b = append(b, RecLease)
	b = appendString(b, rec.Holder)
	b = binary.AppendUvarint(b, rec.Gen)
	b = binary.AppendVarint(b, rec.ExpireNano)
	return b
}

// DecodeLease parses a record produced by EncodeLease (type byte
// already consumed).
func DecodeLease(b []byte) (LeaseRecord, error) {
	var rec LeaseRecord
	var err error
	if rec.Holder, b, err = readString(b); err != nil {
		return rec, err
	}
	g, k := binary.Uvarint(b)
	if k <= 0 {
		return rec, ErrCorrupt
	}
	rec.Gen = g
	e, k := binary.Varint(b[k:])
	if k <= 0 {
		return rec, ErrCorrupt
	}
	rec.ExpireNano = e
	return rec, nil
}

// EncodeView frames a view record.
func EncodeView(rec ViewRecord) []byte {
	n := 16
	for _, m := range rec.Members {
		n += len(m.Name) + len(m.URL) + len(m.Dir) + len(m.State) + 16
	}
	b := make([]byte, 0, n)
	b = append(b, RecView)
	b = binary.AppendUvarint(b, rec.Epoch)
	b = binary.AppendUvarint(b, uint64(len(rec.Members)))
	for _, m := range rec.Members {
		b = appendString(b, m.Name)
		b = appendString(b, m.URL)
		b = appendString(b, m.Dir)
		b = appendString(b, m.State)
	}
	return b
}

// DecodeView parses a record produced by EncodeView (type byte
// already consumed).
func DecodeView(b []byte) (ViewRecord, error) {
	var rec ViewRecord
	e, k := binary.Uvarint(b)
	if k <= 0 {
		return rec, ErrCorrupt
	}
	rec.Epoch = e
	b = b[k:]
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)) {
		return rec, ErrCorrupt
	}
	b = b[k:]
	rec.Members = make([]ViewMember, 0, n)
	var err error
	for i := uint64(0); i < n; i++ {
		var m ViewMember
		if m.Name, b, err = readString(b); err != nil {
			return rec, err
		}
		if m.URL, b, err = readString(b); err != nil {
			return rec, err
		}
		if m.Dir, b, err = readString(b); err != nil {
			return rec, err
		}
		if m.State, b, err = readString(b); err != nil {
			return rec, err
		}
		if !KnownState(m.State) {
			return rec, fmt.Errorf("persist: view member %q has unknown state %q: %w", m.Name, m.State, ErrCorrupt)
		}
		rec.Members = append(rec.Members, m)
	}
	return rec, nil
}
