package stream

import (
	"fmt"
	"math"
	"sync"
	"time"

	"desh/internal/chain"
	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
)

// persistedNode is one node's durable streaming state: the incremental
// chain tracker plus the alert-dedup machine. Window/gauge bookkeeping
// (wasOpen, evicted) is derived on restore.
type persistedNode struct {
	Tracker     chain.TrackerState
	Alerted     bool
	LastAlertAt time.Time
	OpenAlerted bool
	// Event-time layer state (PR 4): the reorder buffer in release
	// order, the watermark cursors, and the dedup ring. Zero-valued in
	// snapshots written before the layer existed — gob decodes missing
	// fields as zero, so old state dirs restore cleanly.
	Reorder    []logparse.EncodedEvent
	ETMaxSeen  time.Time
	ETReleased time.Time
	Dedup      []dedupEntry
	DedupPos   int
}

// streamerSnapshot is the snapshot payload. EncKeys is the full phrase
// encoder in id order: the prefix must match the loaded model (a
// cross-model state dir is rejected), and the tail restores ids the
// stream assigned to phrases first seen after training — without it,
// events held in restored trackers would disagree with post-restart
// encodings.
type streamerSnapshot struct {
	EncKeys []string
	Nodes   map[string]persistedNode
	// ModelFile names the serving model's file in the state dir at the
	// time of the snapshot ("" = the boot model). Snapshots written
	// before hot swap existed decode it as "" — the boot model, which
	// is what those snapshots were taken against.
	ModelFile string
}

// persister owns the streamer's crash-recovery machinery: the snapshot
// store, the write-ahead log, and the boot-time replay ledgers.
type persister struct {
	fs    faultfs.FS
	store *persist.SnapshotStore
	wal   *persist.WAL

	// led is the recovery ledger: alerts the pre-crash process already
	// delivered, plus those shipped with every handoff import the WAL
	// tail re-applies. Every shard points at it during boot replay.
	led *ledger

	mu sync.Mutex
	// quarantined marks poisoned events replay must skip.
	quarantined map[string]bool
}

func quarantineKeyOf(ev logparse.EncodedEvent) string {
	return persist.EventQuarantineKey(ev.Time, ev.Node, ev.Key)
}

// recordQuarantineKey is quarantineKeyOf for an event still in its WAL
// record form.
func recordQuarantineKey(rec persist.EventRecord) string {
	return persist.QuarantineRecord{TimeNano: rec.TimeNano, Node: rec.Node, Key: rec.Key}.LedgerKey()
}

func alertRecordOf(a Alert) persist.AlertRecord {
	return persist.AlertRecord{
		Node:        a.Node,
		FlaggedNano: a.FlaggedAt.UnixNano(),
		LeadBits:    math.Float64bits(a.LeadSeconds),
		MSEBits:     math.Float64bits(a.MSE),
		Provisional: a.Provisional,
	}
}

// appendEvents makes the n admitted events of a batch durable with one
// WAL commit, each framed in the buffer the WAL copies from: an event that
// arrived with its record is journaled as those bytes, the rest are
// encoded in place. Failure degrades to in-memory operation for this
// batch and is counted — the stream keeps alerting even with a dead
// disk — so WALBatchAppends counts only commits that happened.
func (p *persister) appendEvents(s *Streamer, batch []Admission, n int) {
	next := 0
	_, err := p.wal.AppendFunc(n, func(_ int, dst []byte) []byte {
		for !batch[next].admitted {
			next++
		}
		a := &batch[next]
		next++
		if a.Record != nil {
			return append(dst, a.Record...)
		}
		return persist.AppendEvent(dst, persist.RecordOf(a.Event))
	})
	if err != nil {
		s.met.WALErrors.Add(1)
		return
	}
	s.met.WALBatchAppends.Add(1)
}

// appendAlert records a delivered alert in the WAL ledger.
func (p *persister) appendAlert(s *Streamer, a Alert) {
	if _, err := p.wal.Append(persist.EncodeAlert(alertRecordOf(a))); err != nil {
		s.met.WALErrors.Add(1)
	}
}

// appendQuarantine records a poisoned event so replay never reprocesses
// it.
func (p *persister) appendQuarantine(s *Streamer, ev *logparse.EncodedEvent) {
	p.mu.Lock()
	p.quarantined[quarantineKeyOf(*ev)] = true
	p.mu.Unlock()
	rec := persist.QuarantineRecord{TimeNano: ev.Time.UnixNano(), Node: ev.Node, Key: ev.Key}
	if _, err := p.wal.Append(persist.EncodeQuarantine(rec)); err != nil {
		s.met.WALErrors.Add(1)
	}
}

// noteDelivered folds one WAL record into a delivered-alert ledger and a
// quarantine set — the two things a replay of the events beside it must
// know first. Other record types pass; in, when set, keeps only the
// nodes it accepts.
func noteDelivered(payload []byte, in func(node string) bool, led map[string]int, quarantined map[string]bool) error {
	switch payload[0] {
	case persist.RecAlert:
		rec, err := persist.DecodeAlert(payload[1:])
		if err != nil {
			return err
		}
		if in == nil || in(rec.Node) {
			led[rec.LedgerKey()]++
		}
	case persist.RecQuarantine:
		rec, err := persist.DecodeQuarantine(payload[1:])
		if err != nil {
			return err
		}
		if in == nil || in(rec.Node) {
			quarantined[rec.LedgerKey()] = true
		}
	}
	return nil
}

// recover rebuilds streamer state from the state directory: newest
// valid snapshot, then the WAL tail replayed through the normal shard
// path. It runs single-threaded inside New, before any goroutine
// starts.
func (s *Streamer) recover() error {
	fsys := s.opts.fsys
	if fsys == nil {
		fsys = faultfs.OS()
	}
	store, err := persist.NewSnapshotStore(fsys, s.opts.StateDir)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	p := &persister{
		fs:          fsys,
		store:       store,
		led:         &ledger{m: make(map[string]int)},
		quarantined: make(map[string]bool),
	}
	s.pst = p

	var snap streamerSnapshot
	boundary, ok, err := store.LoadLatest(&snap)
	if err != nil {
		// Snapshots exist but none decodes: refuse to silently discard
		// state. The operator can clear the directory to start cold.
		return fmt.Errorf("stream: state dir %q has no usable snapshot: %w", s.opts.StateDir, err)
	}
	if ok {
		// A snapshot taken after a hot swap pairs with the swapped
		// model, not the boot one: adopt it before restoring state, so
		// trackers, detectors and the drift tap all come up on the
		// model the snapshot was written against.
		if snap.ModelFile != "" {
			cand, err := p.loadModel(s, snap.ModelFile)
			if err != nil {
				return fmt.Errorf("stream: snapshot names model %q: %w", snap.ModelFile, err)
			}
			if err := s.validateSwap(cand); err != nil {
				return err
			}
			s.adoptBoot(cand, snap.ModelFile)
		}
		if err := s.restoreSnapshot(snap); err != nil {
			return err
		}
	}

	// Pass 1: scan the WAL tail for the alert ledger and quarantine
	// set. Framing damage past the torn tail is real corruption and
	// fails loudly.
	stats, err := persist.ReplayWAL(fsys, s.opts.StateDir, boundary, func(_ uint64, payload []byte) error {
		if len(payload) == 0 {
			return persist.ErrCorrupt
		}
		return noteDelivered(payload, nil, p.led.m, p.quarantined)
	})
	if err != nil {
		return fmt.Errorf("stream: wal scan: %w", err)
	}
	if err := persist.RepairTail(fsys, s.opts.StateDir, stats); err != nil {
		return fmt.Errorf("stream: %w", err)
	}

	// The live WAL opens before pass 2 so quarantines and alerts
	// produced during replay are themselves durable.
	wal, err := persist.OpenWAL(fsys, s.opts.StateDir, stats.NextSeq, s.opts.WALSyncEvery, 0)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	p.wal = wal

	// Pass 2: re-feed events through the shards. seq >= stats.NextSeq
	// is the segment the reopened WAL is appending to — not part of
	// the tail being recovered. Every shard consults the recovery ledger
	// for the length of the pass.
	for _, sh := range s.shards {
		sh.led = p.led
		defer func(sh *shard) { sh.led = nil }(sh)
	}
	_, err = persist.ReplayWAL(fsys, s.opts.StateDir, boundary, func(seq uint64, payload []byte) error {
		if seq >= stats.NextSeq || len(payload) == 0 {
			return nil
		}
		switch payload[0] {
		case persist.RecEvent:
			rec, err := persist.DecodeEvent(payload[1:])
			if err != nil {
				return err
			}
			s.replayEvent(rec)
		case persist.RecSwap:
			// Re-apply the hot swap at its exact WAL position: earlier
			// events already replayed on the previous model, later ones
			// replay on this one — identical to the live barrier order.
			rec, err := persist.DecodeSwap(payload[1:])
			if err != nil {
				return err
			}
			return s.replaySwap(rec.ModelFile)
		case persist.RecHandoffBegin, persist.RecHandoffIn, persist.RecHandoffOut, persist.RecHandoffAbort:
			// Re-apply the handoff protocol at its exact WAL positions: an
			// In installs the imported range here, an Out drops the
			// outbound one, and a Begin with no later resolution leaves
			// the intent pending for the cluster layer.
			return s.replayHandoff(payload[0], payload[1:])
		case persist.RecEpoch:
			rec, err := persist.DecodeEpoch(payload[1:])
			if err != nil {
				return err
			}
			s.recEpoch = &rec
		case persist.RecLease:
			rec, err := persist.DecodeLease(payload[1:])
			if err != nil {
				return err
			}
			s.recLease = &rec
		case persist.RecView:
			rec, err := persist.DecodeView(payload[1:])
			if err != nil {
				return err
			}
			s.recView = &rec
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream: wal replay: %w", err)
	}
	return nil
}

// restoreSnapshot loads per-node state and the encoder tail, verifying
// the snapshot was written against the same model.
func (s *Streamer) restoreSnapshot(snap streamerSnapshot) error {
	n := s.enc.Len()
	if len(snap.EncKeys) < n {
		return fmt.Errorf("stream: state dir snapshot has %d phrases, model has %d: state belongs to a different model", len(snap.EncKeys), n)
	}
	for i := 0; i < n; i++ {
		if s.enc.Key(i) != snap.EncKeys[i] {
			return fmt.Errorf("stream: state dir snapshot phrase %d mismatches model: state belongs to a different model", i)
		}
	}
	for _, k := range snap.EncKeys[n:] {
		s.enc.Encode(k)
	}
	for node, pn := range snap.Nodes {
		if err := s.shards[s.shardOf(node)].installNode(node, pn); err != nil {
			return err
		}
	}
	return nil
}

// installNode builds a nodeState from pn and installs it on this
// shard, adjusting the shared gauges; an existing state for the node
// is replaced, its gauge contributions unwound first. Called
// single-threaded during boot restore, or on the shard goroutine
// inside a handoff import barrier.
func (sh *shard) installNode(node string, pn persistedNode) error {
	s := sh.s
	if old, ok := sh.nodes[node]; ok {
		if old.wasOpen {
			s.met.ChainsOpen.Add(-1)
		}
		if old.et != nil {
			sh.pending.Add(-int64(old.et.heap.len()))
		}
		delete(sh.nodes, node)
	}
	tr, err := chain.NewTracker(node, s.lab, s.p.Config().ChainCfg, s.opts.MaxOpenWindow)
	if err != nil {
		return fmt.Errorf("stream: restore %s: %w", node, err)
	}
	// A restored window longer than the current MaxOpenWindow
	// shrinks lazily as new events evict from the front.
	tr.Restore(pn.Tracker)
	ns := &nodeState{
		tracker:     tr,
		lastArrival: time.Now(),
		alerted:     pn.Alerted,
		lastAlertAt: pn.LastAlertAt,
		openAlerted: pn.OpenAlerted,
		evicted:     pn.Tracker.Dropped,
	}
	ns.lateClamped = pn.Tracker.Late
	if tr.OpenLen() > 0 {
		ns.wasOpen = true
		s.met.ChainsOpen.Add(1)
	}
	if s.et != nil {
		ns.et = restoredNodeET(pn)
		sh.pending.Add(int64(ns.et.heap.len()))
		if ts := ns.et.maxSeen.UnixNano(); ns.et.heap.len() > 0 || !ns.et.maxSeen.IsZero() {
			if ts > sh.wmNano.Load() {
				sh.wmNano.Store(ts)
			}
		}
	} else if len(pn.Reorder) > 0 {
		// The state was taken with reordering on and this streamer runs
		// with it off: feed the buffered tail straight to the tracker.
		// Alerts it raises may duplicate already-delivered ones; the
		// quiet period bounds that.
		for i := range pn.Reorder {
			sh.feed(ns, &pn.Reorder[i], ns.lastArrival)
		}
		// feed defers closed-chain judging; score them now, while the
		// node's install is still the only activity on the shard.
		sh.flushPending()
	}
	sh.nodes[node] = ns
	return nil
}

// replayEvent re-feeds one WAL event through its shard, synchronously
// (New's goroutine is the only one running), unless an earlier life
// quarantined it.
func (s *Streamer) replayEvent(rec persist.EventRecord) {
	if s.pst.quarantined[recordQuarantineKey(rec)] {
		return
	}
	enc := s.encoded(rec.Event())
	s.shards[s.shardOf(enc.Node)].replay(&enc)
}

// snapshotNow takes one consistent snapshot: rotate the WAL at a
// boundary, push a barrier through every shard queue, persist the
// merged states, then drop WAL segments the snapshot covers.
//
// Consistency argument: the barrier is enqueued while ingest is locked
// out, so every event with a WAL seq below the boundary is already in
// some queue ahead of its shard's barrier, and every later event is
// appended after the rotation and lands behind it. Each shard's
// captured state is therefore exactly "all events below the boundary
// applied".
func (s *Streamer) snapshotNow() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	boundary, err := s.pst.wal.Rotate()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.encMu.RLock()
	keys := s.enc.Keys()
	s.encMu.RUnlock()
	// Captured under s.mu: a swap commits its RecSwap record under the
	// same lock, so the boundary and the model name always agree.
	modelFile := s.activeFile
	replies := s.sendSnapBarrier()
	s.mu.Unlock()
	nodes, ok := s.gatherCaptures(replies, nil)
	if !ok {
		// Abandon this snapshot — the graceful path takes its own final
		// one, and the crash path recovers from the WAL.
		return nil
	}
	if err := s.pst.store.Save(boundary, streamerSnapshot{EncKeys: keys, Nodes: nodes, ModelFile: modelFile}); err != nil {
		return err
	}
	_ = s.pst.wal.RemoveSegmentsBelow(boundary)
	s.met.Snapshots.Add(1)
	return nil
}

// sendSnapBarrier queues a capture barrier on every shard. The caller
// holds s.mu, which is what pins the barrier to a WAL position.
func (s *Streamer) sendSnapBarrier() <-chan map[string]persistedNode {
	replies := make(chan map[string]persistedNode, len(s.shards))
	for _, sh := range s.shards {
		sh.ch <- shardMsg{snap: replies}
	}
	return replies
}

// gatherCaptures merges every shard's answer to a capture barrier,
// keeping the nodes keep accepts (nil = all). ok is false when shutdown
// (or a simulated crash) raced the barrier: a crashed shard exits
// without replying. replies is buffered, so late repliers never block.
func (s *Streamer) gatherCaptures(replies <-chan map[string]persistedNode, keep func(node string) bool) (nodes map[string]persistedNode, ok bool) {
	nodes = make(map[string]persistedNode)
	for range s.shards {
		select {
		case m := <-replies:
			for node, pn := range m {
				if keep == nil || keep(node) {
					nodes[node] = pn
				}
			}
		case <-s.done:
			return nil, false
		}
	}
	return nodes, true
}

// finalSnapshot persists the post-drain state during a graceful Close
// (every goroutine has stopped; shard maps are safe to read directly)
// and truncates the WAL it covers.
func (p *persister) finalSnapshot(s *Streamer) error {
	boundary := p.wal.NextSeq()
	nodes := make(map[string]persistedNode)
	for _, sh := range s.shards {
		for node, pn := range sh.capture() {
			nodes[node] = pn
		}
	}
	if err := p.store.Save(boundary, streamerSnapshot{EncKeys: s.enc.Keys(), Nodes: nodes, ModelFile: s.activeFile}); err != nil {
		p.wal.Close()
		return err
	}
	_ = p.wal.RemoveSegmentsBelow(boundary)
	s.met.Snapshots.Add(1)
	return p.wal.Close()
}

// crash simulates a SIGKILL for the recovery tests: shards stop where
// they stand — queued events are abandoned, open episodes are not
// flushed, no final snapshot is taken. Everything the process would
// have lost, this loses; everything the WAL made durable survives for
// the next New to recover.
// Kill is the exported crash seam: cluster kill-equivalence tests use
// it to SIGKILL one in-process instance mid-run.
func (s *Streamer) Kill() { s.crash() }

func (s *Streamer) crash() {
	// No final snapshot, no drain — just let go of the WAL handle.
	// Appended records already reached the OS, which is exactly the
	// durability a killed process has.
	if s.stop(true) && s.pst != nil {
		_ = s.pst.wal.Close()
	}
}
