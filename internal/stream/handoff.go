// Shard handoff: migrating the streaming state of a node hash range
// between deshd instances with zero lost and zero duplicated alerts.
//
// The live protocol mirrors PR 7's model swap — two commit points,
// journaled in the WAL:
//
//  1. Source: BeginHandoff journals RecHandoffBegin (intent), freezes
//     ingest for the range, rotates the WAL and captures the range's
//     state at a shard barrier. The source KEEPS the state: Begin is
//     a copy, not a move, so a target that dies mid-transfer aborts
//     cleanly.
//  2. Target: ImportState journals RecHandoffIn carrying the full
//     payload — the target-side commit point. Boot replay re-applies
//     the import at exactly this WAL position.
//  3. Source: CompleteHandoff journals RecHandoffOut and drops the
//     range (or AbortHandoff journals RecHandoffAbort and unfreezes,
//     keeping it).
//
// A crash between 1 and 3 recovers with the Begin intent unresolved:
// the source keeps its state and the range stays frozen until the
// cluster layer resolves against the target (did RecHandoffIn
// commit?). Either exactly one side serves the range, or — when the
// target is unreachable — zero sides do and the router spills; never
// two.
//
// Phrase-id spaces differ between instances (each extends its encoder
// at runtime), so every id embedded in shipped state is remapped on
// import: events re-encode by phrase key, dedup-ring entries translate
// through the shipped EncKeys table.
package stream

import (
	"errors"
	"fmt"

	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
)

// ErrFrozen is returned by ingest entry points for events whose node
// range is frozen mid-handoff. The router treats it as "respool and
// redeliver to the new owner".
var ErrFrozen = errors.New("stream: node range is frozen for handoff")

// ErrHandoffInFlight rejects a BeginHandoff while another handoff
// (live or recovered-unresolved) is pending.
var ErrHandoffInFlight = errors.New("stream: a handoff is already in flight")

// HandoffState is the portable streaming state of a node hash range:
// everything a receiving instance needs to continue serving the range
// with no lost and no duplicated alerts. Produced by BeginHandoff
// (live source) or LoadHandoffFromDir (takeover from a dead
// instance's state dir); consumed by ImportState.
type HandoffState struct {
	// EncKeys is the source's phrase table in id order; embedded ids
	// translate through it into the receiver's id space.
	EncKeys []string
	// Nodes is the per-node durable state, in source id space.
	Nodes map[string]persistedNode
	// Pending is the WAL tail not reflected in Nodes, in append order —
	// empty for a live handoff (the barrier capture IS the tail),
	// populated for a dead-instance takeover.
	Pending []persist.EventRecord
	// Ledger counts alerts the source already delivered for these
	// nodes; replaying Pending consumes it instead of re-alerting.
	Ledger map[string]int
	// Quarantined marks poisoned events Pending replay must skip.
	Quarantined map[string]bool
}

// handoffIntent is an outbound handoff between its two commit points.
type handoffIntent struct {
	epoch  uint64
	target string
	ranges []persist.HashRange
}

// importKey identifies one durably-imported handoff: the ownership
// epoch it ran under and the source instance that shipped it.
type importKey struct {
	epoch  uint64
	source string
}

// dropBarrier rides the shard queues at CompleteHandoff: each shard
// deletes its nodes inside the ranges at that exact queue position.
type dropBarrier struct {
	ranges []persist.HashRange
	ack    chan int
}

// importBarrier carries one shard's slice of an imported range:
// remapped node states to install and the pending tail to replay, at
// the barrier's exact queue position.
type importBarrier struct {
	nodes   map[string]persistedNode
	pending []logparse.EncodedEvent
	led     *ledger // the source's delivered alerts, shared by every shard's barrier
	ack     chan int
}

// BeginHandoff opens an outbound handoff: journal the intent, freeze
// ingest for the ranges, and capture their state at a WAL-rotation
// barrier. The returned state is a consistent copy — the source keeps
// serving everything outside the ranges and keeps (frozen) ownership
// of the state until CompleteHandoff or AbortHandoff.
func (s *Streamer) BeginHandoff(epoch uint64, target string, ranges []persist.HashRange) (*HandoffState, error) {
	if len(ranges) == 0 {
		return nil, fmt.Errorf("stream: handoff with no ranges")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.handoff != nil {
		s.mu.Unlock()
		return nil, ErrHandoffInFlight
	}
	if s.pst != nil {
		rec := persist.HandoffRecord{Epoch: epoch, Peer: target, Ranges: ranges}
		if _, err := s.pst.wal.Append(persist.EncodeHandoff(persist.RecHandoffBegin, rec)); err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("stream: handoff journal: %w", err)
		}
		// The rotation aligns the capture with a segment boundary, the
		// same cut snapshots use.
		if _, err := s.pst.wal.Rotate(); err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("stream: handoff rotate: %w", err)
		}
	}
	s.handoff = &handoffIntent{epoch: epoch, target: target, ranges: ranges}
	s.frozen = ranges
	replies := s.sendSnapBarrier()
	s.mu.Unlock()
	nodes, ok := s.gatherCaptures(replies, func(node string) bool {
		return persist.RangesContain(ranges, persist.NodeHash(node))
	})
	if !ok {
		return nil, ErrClosed
	}
	s.encMu.RLock()
	keys := s.enc.Keys()
	s.encMu.RUnlock()
	s.met.HandoffsStarted.Add(1)
	return &HandoffState{EncKeys: keys, Nodes: nodes}, nil
}

// CompleteHandoff resolves the in-flight (or recovered-unresolved)
// handoff as committed on the target: journal RecHandoffOut, drop the
// ranges' state at a shard barrier, unfreeze. Only call once the
// target durably holds the state (its ImportState returned, or its
// journal confirms the epoch).
func (s *Streamer) CompleteHandoff() error {
	s.mu.Lock()
	h, err := s.resolveLocked(persist.RecHandoffOut)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	b := &dropBarrier{ranges: h.ranges, ack: make(chan int, len(s.shards))}
	for _, sh := range s.shards {
		sh.ch <- shardMsg{drop: b}
	}
	s.mu.Unlock()
	// On ErrClosed the Out record is durable: recovery re-applies the drop.
	if err := s.awaitAcks(b.ack); err != nil {
		return err
	}
	s.met.HandoffsCompleted.Add(1)
	return nil
}

// AbortHandoff resolves the in-flight (or recovered-unresolved)
// handoff as NOT committed on the target: journal RecHandoffAbort and
// unfreeze — the source keeps the state and resumes serving it.
func (s *Streamer) AbortHandoff() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.resolveLocked(persist.RecHandoffAbort); err != nil {
		return err
	}
	s.met.HandoffsAborted.Add(1)
	return nil
}

// resolveLocked journals the in-flight intent's resolution (typ is
// RecHandoffOut or RecHandoffAbort), clears it and unfreezes its ranges.
// The caller holds s.mu.
func (s *Streamer) resolveLocked(typ byte) (*handoffIntent, error) {
	if s.closed {
		return nil, ErrClosed
	}
	h := s.handoff
	if h == nil {
		return nil, fmt.Errorf("stream: no handoff in flight")
	}
	if s.pst != nil {
		rec := persist.HandoffRecord{Epoch: h.epoch, Peer: h.target, Ranges: h.ranges}
		if _, err := s.pst.wal.Append(persist.EncodeHandoff(typ, rec)); err != nil {
			return nil, fmt.Errorf("stream: handoff journal: %w", err)
		}
	}
	s.handoff, s.frozen = nil, nil
	return h, nil
}

// PendingHandoff reports an outbound handoff intent awaiting
// resolution — either live between Begin and Complete/Abort, or
// journaled before a crash and recovered unresolved. The cluster
// layer resolves it with CompleteHandoff or AbortHandoff after
// querying the target.
func (s *Streamer) PendingHandoff() (epoch uint64, target string, ranges []persist.HashRange, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.handoff == nil {
		return 0, "", nil, false
	}
	h := s.handoff
	return h.epoch, h.target, append([]persist.HashRange(nil), h.ranges...), true
}

// ImportState installs a shipped range into this streamer: journal
// RecHandoffIn with the full payload (the target-side commit point),
// then install remapped node state and replay the pending tail at a
// shard barrier, suppressing alerts the source already delivered.
func (s *Streamer) ImportState(epoch uint64, source string, ranges []persist.HashRange, st *HandoffState) error {
	if st == nil {
		return fmt.Errorf("stream: nil handoff state")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.pst != nil {
		payload, err := persist.EncodeSnapshot(st)
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("stream: handoff state encode: %w", err)
		}
		rec := persist.EncodeHandoff(persist.RecHandoffIn, persist.HandoffRecord{
			Epoch: epoch, Peer: source, Ranges: ranges, State: payload,
		})
		if len(rec) > persist.MaxRecord {
			s.mu.Unlock()
			return fmt.Errorf("stream: handoff state %d bytes exceeds the WAL record bound — hand off smaller ranges", len(rec))
		}
		if _, err := s.pst.wal.Append(rec); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("stream: handoff journal: %w", err)
		}
	}
	// The In record is the commit point: from here on, "did epoch E
	// from this source land here?" must answer yes, even before the
	// barrier drains.
	s.imports[importKey{epoch, source}] = true
	barriers := s.buildImport(st)
	for i, sh := range s.shards {
		sh.ch <- shardMsg{imp: barriers[i]}
	}
	s.mu.Unlock()
	// On ErrClosed the In record is durable: recovery re-applies the import.
	if err := s.awaitAcks(barriers[0].ack); err != nil {
		return err
	}
	s.met.HandoffImports.Add(1)
	return nil
}

// buildImport remaps a shipped state into this streamer's id space and
// splits it per shard. Runs under s.mu (encodeKey takes its own lock).
func (s *Streamer) buildImport(st *HandoffState) []*importBarrier {
	led := &ledger{m: make(map[string]int, len(st.Ledger))}
	for k, n := range st.Ledger {
		led.m[k] = n
	}
	ack := make(chan int, len(s.shards))
	out := make([]*importBarrier, len(s.shards))
	for i := range out {
		out[i] = &importBarrier{nodes: make(map[string]persistedNode), led: led, ack: ack}
	}
	for node, pn := range st.Nodes {
		out[s.shardOf(node)].nodes[node] = remapIDs(pn, st.EncKeys, s.encodeKey)
	}
	for _, rec := range st.Pending {
		if st.Quarantined[recordQuarantineKey(rec)] {
			continue
		}
		b := out[s.shardOf(rec.Node)]
		b.pending = append(b.pending, s.encoded(rec.Event()))
	}
	return out
}

// remapIDs translates one node's state into another phrase-id space,
// rewriting every id embedded in pn through idFor: events re-encode by
// phrase key (always present), dedup entries translate through encKeys,
// the table pn's ids index (entries whose id the table cannot resolve
// are dropped — they could never match a re-encoded event anyway).
func remapIDs(pn persistedNode, encKeys []string, idFor func(key string) int) persistedNode {
	reencode := func(evs []logparse.EncodedEvent) []logparse.EncodedEvent {
		out := make([]logparse.EncodedEvent, len(evs))
		for i, ev := range evs {
			ev.ID = idFor(ev.Key)
			out[i] = ev
		}
		return out
	}
	pn.Tracker.Open = reencode(pn.Tracker.Open)
	pn.Reorder = reencode(pn.Reorder)
	dedup := make([]dedupEntry, 0, len(pn.Dedup))
	for _, e := range pn.Dedup {
		if e.ID < 0 || e.ID >= len(encKeys) {
			continue
		}
		e.ID = idFor(encKeys[e.ID])
		dedup = append(dedup, e)
	}
	pn.Dedup = dedup
	if pn.DedupPos >= len(dedup) {
		pn.DedupPos = 0
	}
	return pn
}

// applyDrop is the shard side of CompleteHandoff's barrier.
func (sh *shard) applyDrop(b *dropBarrier) {
	sh.s.met.HandoffNodesOut.Add(int64(sh.dropNodes(b.ranges)))
	b.ack <- sh.id
}

// dropNodes deletes every node in the ranges from this shard,
// unwinding its gauges, and reports how many were dropped. Called on
// the shard goroutine (barrier) or single-threaded (boot replay).
func (sh *shard) dropNodes(ranges []persist.HashRange) int {
	dropped := 0
	for node, ns := range sh.nodes {
		if !persist.RangesContain(ranges, persist.NodeHash(node)) {
			continue
		}
		if ns.wasOpen {
			sh.s.met.ChainsOpen.Add(-1)
		}
		if ns.et != nil {
			sh.pending.Add(-int64(ns.et.heap.len()))
		}
		delete(sh.nodes, node)
		dropped++
	}
	return dropped
}

// applyImport is the shard side of ImportState's barrier: install the
// remapped nodes, then replay the pending tail — the same step boot
// recovery takes — with the barrier's ledger suppressing alerts the
// source already delivered. A panic outside an event (replay recovers
// its own) is recovered here, because the barrier must ack or
// ImportState deadlocks.
func (sh *shard) applyImport(b *importBarrier) {
	sh.led = b.led
	defer func() {
		if r := recover(); r != nil {
			sh.pend = sh.pend[:0]
			sh.s.met.Quarantined.Add(1)
		}
		sh.led = nil
		b.ack <- sh.id
	}()
	for node, pn := range b.nodes {
		if err := sh.installNode(node, pn); err != nil {
			// Unreachable in practice (config validated in New); counted
			// rather than fatal.
			sh.s.met.Quarantined.Add(1)
			continue
		}
		sh.s.met.HandoffNodesIn.Add(1)
	}
	for i := range b.pending {
		sh.replay(&b.pending[i])
	}
}

// JournalEpoch durably records this instance's cluster ownership: the
// epoch and the hash ranges it serves under it. Recovery surfaces the
// newest record via RecoveredOwnership. No-op without persistence.
func (s *Streamer) JournalEpoch(epoch uint64, ranges []persist.HashRange) error {
	return s.journal("epoch", persist.EncodeEpoch(persist.EpochRecord{Epoch: epoch, Ranges: ranges}))
}

// RecoveredOwnership returns the newest ownership record boot
// recovery replayed (ok=false on a cold start or without
// persistence).
func (s *Streamer) RecoveredOwnership() (persist.EpochRecord, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.recEpoch == nil {
		return persist.EpochRecord{}, false
	}
	return *s.recEpoch, true
}

// replayHandoff re-applies one handoff record at its exact WAL
// position during single-threaded boot recovery.
func (s *Streamer) replayHandoff(typ byte, payload []byte) error {
	rec, err := persist.DecodeHandoff(payload)
	if err != nil {
		return err
	}
	switch typ {
	case persist.RecHandoffBegin:
		// Intent: freeze the ranges and hold resolution. If no Out/Abort
		// follows in the WAL, New returns with the intent pending and the
		// cluster layer resolves against the target.
		s.handoff = &handoffIntent{epoch: rec.Epoch, target: rec.Peer, ranges: rec.Ranges}
		s.frozen = rec.Ranges
	case persist.RecHandoffOut:
		for _, sh := range s.shards {
			sh.dropNodes(rec.Ranges)
		}
		s.handoff = nil
		s.frozen = nil
	case persist.RecHandoffAbort:
		s.handoff = nil
		s.frozen = nil
	case persist.RecHandoffIn:
		var st HandoffState
		if err := persist.DecodeSnapshot(rec.State, &st); err != nil {
			return fmt.Errorf("stream: journaled handoff state: %w", err)
		}
		s.imports[importKey{rec.Epoch, rec.Peer}] = true
		return s.importDirect(&st)
	}
	return nil
}

// importDirect applies an imported range during single-threaded boot
// replay: the shipped ledger merges into the recovery ledger (every
// shard points at it), nodes install directly, and the pending tail
// re-feeds through replayEvent — exactly the effect the live import
// barrier had, minus what the importer itself quarantined since.
func (s *Streamer) importDirect(st *HandoffState) error {
	for k, n := range st.Ledger {
		s.pst.led.m[k] += n
	}
	for node, pn := range st.Nodes {
		sh := s.shards[s.shardOf(node)]
		if err := sh.installNode(node, remapIDs(pn, st.EncKeys, s.encodeKey)); err != nil {
			return err
		}
	}
	for _, rec := range st.Pending {
		if !st.Quarantined[recordQuarantineKey(rec)] {
			s.replayEvent(rec)
		}
	}
	return nil
}

// LoadHandoffFromDir reconstructs the portable state of a node range
// from a DEAD instance's state directory — the takeover path when
// there is no live source to run BeginHandoff. Strictly read-only:
// newest valid snapshot filtered to the ranges, plus the WAL tail
// (events, delivered-alert ledger, quarantines, and any handoffs the
// dead instance itself had journaled), tolerating the torn tail a
// SIGKILL leaves. Ranges covered by an UNRESOLVED outbound intent in
// the dead WAL are excluded — their state may already live on the
// intent's target, and a takeover must never create a second owner.
func LoadHandoffFromDir(fsys faultfs.FS, dir string, ranges []persist.HashRange) (*HandoffState, error) {
	if fsys == nil {
		fsys = faultfs.OS()
	}
	store, err := persist.NewSnapshotStore(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("stream: takeover: %w", err)
	}
	var snap streamerSnapshot
	boundary, ok, err := store.LoadLatest(&snap)
	if err != nil {
		return nil, fmt.Errorf("stream: takeover: state dir %q has no usable snapshot: %w", dir, err)
	}
	in := func(node string) bool { return persist.RangesContain(ranges, persist.NodeHash(node)) }
	st := &HandoffState{
		Nodes:       make(map[string]persistedNode),
		Ledger:      make(map[string]int),
		Quarantined: make(map[string]bool),
	}
	if ok {
		st.EncKeys = snap.EncKeys
		for node, pn := range snap.Nodes {
			if in(node) {
				st.Nodes[node] = pn
			}
		}
	}
	var pendingBegins []persist.HandoffRecord
	_, err = persist.ReplayWAL(fsys, dir, boundary, func(_ uint64, payload []byte) error {
		if len(payload) == 0 {
			return persist.ErrCorrupt
		}
		switch payload[0] {
		case persist.RecEvent:
			rec, err := persist.DecodeEvent(payload[1:])
			if err != nil {
				return err
			}
			if in(rec.Node) {
				st.Pending = append(st.Pending, rec)
			}
		case persist.RecAlert, persist.RecQuarantine:
			return noteDelivered(payload, in, st.Ledger, st.Quarantined)
		case persist.RecHandoffIn, persist.RecHandoffBegin, persist.RecHandoffOut, persist.RecHandoffAbort:
			rec, err := persist.DecodeHandoff(payload[1:])
			if err != nil {
				return err
			}
			switch payload[0] {
			case persist.RecHandoffIn:
				var nested HandoffState
				if err := persist.DecodeSnapshot(rec.State, &nested); err != nil {
					return err
				}
				mergeTakenOver(st, &nested, in)
			case persist.RecHandoffBegin:
				pendingBegins = append(pendingBegins, rec)
			case persist.RecHandoffOut:
				pendingBegins = resolveBegin(pendingBegins, rec.Epoch)
				removeRanges(st, rec.Ranges)
			case persist.RecHandoffAbort:
				pendingBegins = resolveBegin(pendingBegins, rec.Epoch)
			}
		}
		// RecSwap is deliberately ignored: takeover replays the tail on
		// the surviving instance's model (the cluster assumes a uniform
		// fleet model; see DESIGN §15).
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("stream: takeover: wal: %w", err)
	}
	for _, b := range pendingBegins {
		removeRanges(st, b.Ranges)
	}
	return st, nil
}

// mergeTakenOver folds a nested imported state (one the dead instance
// had itself imported) into the takeover state: phrase ids translate
// from the nested table into the outer one, extending it as needed.
func mergeTakenOver(st *HandoffState, nested *HandoffState, in func(string) bool) {
	lookup := make(map[string]int, len(st.EncKeys))
	for i, k := range st.EncKeys {
		lookup[k] = i
	}
	idFor := func(key string) int {
		if id, ok := lookup[key]; ok {
			return id
		}
		st.EncKeys = append(st.EncKeys, key)
		lookup[key] = len(st.EncKeys) - 1
		return len(st.EncKeys) - 1
	}
	for node, pn := range nested.Nodes {
		if !in(node) {
			continue
		}
		// The imported copy is newer than anything the snapshot held for
		// the node (the node just moved in); it wins.
		st.Nodes[node] = remapIDs(pn, nested.EncKeys, idFor)
	}
	for _, rec := range nested.Pending {
		if in(rec.Node) {
			st.Pending = append(st.Pending, rec)
		}
	}
	for k, n := range nested.Ledger {
		st.Ledger[k] += n
	}
	for k := range nested.Quarantined {
		st.Quarantined[k] = true
	}
}

// resolveBegin drops pending Begin intents the given epoch resolves.
func resolveBegin(begins []persist.HandoffRecord, epoch uint64) []persist.HandoffRecord {
	out := begins[:0]
	for _, b := range begins {
		if b.Epoch != epoch {
			out = append(out, b)
		}
	}
	return out
}

// removeRanges deletes nodes and pending events inside the ranges —
// they moved (or may have moved) to another owner.
func removeRanges(st *HandoffState, ranges []persist.HashRange) {
	for node := range st.Nodes {
		if persist.RangesContain(ranges, persist.NodeHash(node)) {
			delete(st.Nodes, node)
		}
	}
	kept := st.Pending[:0]
	for _, rec := range st.Pending {
		if !persist.RangesContain(ranges, persist.NodeHash(rec.Node)) {
			kept = append(kept, rec)
		}
	}
	st.Pending = kept
}
