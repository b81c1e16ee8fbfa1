// Coordinator-election journaling: the instance's WAL doubles as the
// cluster's replicated control store. Each instance journals the
// coordinator lease it granted (RecLease) and the cluster view the
// coordinator pushed (RecView); boot replay surfaces the newest of
// each, so a full-fleet restart comes back knowing who coordinated,
// at which fencing generation, and what the membership looked like —
// without any external metadata service.
package stream

import (
	"fmt"

	"desh/internal/persist"
)

// journal appends one control record to the WAL under the ingest lock:
// the body JournalEpoch, JournalLease and JournalView share. what names
// the record in the error. No-op without persistence.
func (s *Streamer) journal(what string, rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.pst == nil {
		return nil
	}
	if _, err := s.pst.wal.Append(rec); err != nil {
		return fmt.Errorf("stream: %s journal: %w", what, err)
	}
	return nil
}

// JournalLease durably records a coordinator-lease decision this
// instance made (grant, renewal, or release with Holder ""). No-op
// without persistence.
func (s *Streamer) JournalLease(rec persist.LeaseRecord) error {
	return s.journal("lease", persist.EncodeLease(rec))
}

// RecoveredLease returns the newest lease record boot recovery
// replayed (ok=false on a cold start or without persistence). The
// deadline inside is an absolute wall-clock instant: a restart long
// after the crash simply finds it expired.
func (s *Streamer) RecoveredLease() (persist.LeaseRecord, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.recLease == nil {
		return persist.LeaseRecord{}, false
	}
	return *s.recLease, true
}

// JournalView durably records the cluster view the coordinator pushed
// to this instance. No-op without persistence.
func (s *Streamer) JournalView(rec persist.ViewRecord) error {
	return s.journal("view", persist.EncodeView(rec))
}

// RecoveredView returns the newest cluster-view record boot recovery
// replayed (ok=false on a cold start or without persistence).
func (s *Streamer) RecoveredView() (persist.ViewRecord, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.recView == nil {
		return persist.ViewRecord{}, false
	}
	return s.recView.Clone(), true
}

// HasImport reports whether this instance durably imported a handoff
// from the named source under the given ownership epoch (live
// RecHandoffIn or its boot replay). A coordinator that finds a
// crashed predecessor's pending Begin intent resolves it by asking
// the intent's target this exact question: true → CompleteHandoff on
// the source, false → AbortHandoff. Both epoch and source key the
// lookup because one rebalance hands off from several sources under
// one epoch.
func (s *Streamer) HasImport(epoch uint64, source string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.imports[importKey{epoch, source}]
}
