package stream

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"desh/internal/core"
	"desh/internal/persist"
)

// SwapStage identifies a durability stage inside SwapModel where the
// test-only swapHook may abort, simulating a process kill at exactly
// that instant.
type SwapStage int

const (
	// SwapModelWritten: the candidate model file is durable but the
	// swap journal record is not — a kill here must recover on the OLD
	// model (the new file is an ignored orphan).
	SwapModelWritten SwapStage = iota
	// SwapJournaled: the swap record is durable but no shard detector
	// has flipped — a kill here must recover on the NEW model, flipping
	// at the record's exact WAL position during replay.
	SwapJournaled
)

// ErrSwapAborted is returned when the test swapHook aborts a swap.
var ErrSwapAborted = errors.New("stream: swap aborted by hook")

// swapBarrier carries the new pipeline through every shard queue; each
// shard rebuilds its detector at the barrier position and acks.
type swapBarrier struct {
	p   *core.Pipeline
	ack chan error
}

// SwapModel atomically replaces the serving model with cand, with no
// dropped events and no restart. The protocol:
//
//  1. Validate: cand must be trained, keep the active chain config, and
//     assign the same id to every phrase both encoders know.
//  2. Persist: write cand to a fresh versioned DESHMODL file in the
//     state dir (temp + fsync + rename + dir fsync — the snapshot
//     store's atomicity recipe). The old model file is never touched.
//  3. Commit: with ingest locked out, append a RecSwap record naming
//     the file. This is the durable commit point — a kill before it
//     recovers on the old model, after it on the new one, never a mix.
//  4. Flip: still under the ingest lock, enqueue a barrier to every
//     shard. Events appended before the record are ahead of the
//     barrier and score on the old detector; later ones behind it on
//     the new — live order and replay order agree exactly.
//
// Without persistence (no StateDir) steps 2–3 are skipped and the flip
// is in-memory only. SwapModel is not re-entrant; calls serialize.
func (s *Streamer) SwapModel(cand *core.Pipeline) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if err := s.validateSwap(cand); err != nil {
		s.met.SwapErrors.Add(1)
		return err
	}
	var file string
	if s.pst != nil {
		var err error
		if file, err = s.pst.saveModel(s, cand); err != nil {
			s.met.SwapErrors.Add(1)
			return fmt.Errorf("stream: swap: %w", err)
		}
		if hook := s.opts.swapHook; hook != nil && hook(SwapModelWritten) {
			return ErrSwapAborted
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	start := time.Now()
	if s.pst != nil {
		if _, err := s.pst.wal.Append(persist.EncodeSwap(persist.SwapRecord{ModelFile: file})); err != nil {
			s.mu.Unlock()
			s.met.SwapErrors.Add(1)
			return fmt.Errorf("stream: swap journal: %w", err)
		}
		if hook := s.opts.swapHook; hook != nil && hook(SwapJournaled) {
			// The swap is durably committed but not applied in memory —
			// only meaningful when the caller crashes the streamer
			// immediately, which is exactly what the kill tests do.
			s.mu.Unlock()
			return ErrSwapAborted
		}
	}
	s.adoptModel(cand, file)
	b := &swapBarrier{p: cand, ack: make(chan error, len(s.shards))}
	for _, sh := range s.shards {
		sh.q.Put(shardMsg{swap: b}, true)
	}
	s.mu.Unlock()
	// On ErrClosed the journal record is already durable, so the swap is
	// committed: a graceful close still drains the barriers, and recovery
	// re-applies the record.
	if err := s.awaitAcks(b.ack); err != nil {
		return err
	}
	setLastMax(&s.met.SwapBarrierNs, &s.met.SwapBarrierMaxNs, time.Since(start))
	s.met.Swaps.Add(1)
	return nil
}

// validateSwap rejects candidates that cannot serve behind the live
// streamer: untrained, a different chain config (per-node trackers
// would disagree with the detector), or a phrase-id space that
// diverges from the live encoder.
func (s *Streamer) validateSwap(cand *core.Pipeline) error {
	if cand == nil || cand.Phase2Model() == nil {
		return fmt.Errorf("stream: swap candidate is not trained")
	}
	if cand.Config().ChainCfg != s.p.Config().ChainCfg {
		return fmt.Errorf("stream: swap candidate chain config differs from the active model")
	}
	s.encMu.RLock()
	defer s.encMu.RUnlock()
	ce := cand.Encoder()
	n := ce.Len()
	if m := s.enc.Len(); m < n {
		n = m
	}
	for i := 0; i < n; i++ {
		if s.enc.Key(i) != ce.Key(i) {
			return fmt.Errorf("stream: swap candidate phrase %d mismatches the live encoder — retrain the candidate from the live vocabulary", i)
		}
	}
	// At f32 the candidate's weights must convert before any durability
	// step runs: a NaN/Inf/overflowing weight surfaces here as a swap
	// validation error instead of a mid-flip failure. The conversion is
	// cached, so the shard detectors reuse it at the barrier.
	if s.opts.Precision == core.PrecisionF32 {
		if _, _, err := cand.Convert32(); err != nil {
			return fmt.Errorf("stream: swap candidate does not convert to f32: %w", err)
		}
	}
	return nil
}

// adoptModel installs cand as the active model's bookkeeping: the live
// encoder learns the candidate's tail phrases (ids stay aligned), the
// unseen-phrase drift tap re-anchors on the candidate's vocabulary,
// and activeFile records what a snapshot must name. The caller holds
// s.mu (live swap) or is single-threaded (boot recovery). Shard
// detectors flip separately — at the barrier live, or directly during
// recovery.
func (s *Streamer) adoptModel(cand *core.Pipeline, file string) {
	s.encMu.Lock()
	ce := cand.Encoder()
	for i := s.enc.Len(); i < ce.Len(); i++ {
		s.enc.Encode(ce.Key(i))
	}
	s.encMu.Unlock()
	s.activeFile = file
	s.vocabN.Store(int64(modelVocab(cand)))
}

// adoptBoot installs cand during single-threaded boot recovery: model
// bookkeeping plus a direct detector rebuild on every shard (no
// goroutines are running yet, so no barrier is needed). s.p is also
// re-pointed so tracker construction and chain-config reads after
// recovery see the adopted model.
func (s *Streamer) adoptBoot(cand *core.Pipeline, file string) {
	s.adoptModel(cand, file)
	s.p = cand
	for _, sh := range s.shards {
		sh.det = s.mustDetector(cand)
	}
}

// replaySwap re-applies a journaled hot swap at its exact WAL
// position: events already replayed scored on the previous model,
// events after the record replay onto the new one — matching live
// barrier order.
func (s *Streamer) replaySwap(file string) error {
	cand, err := s.pst.loadModel(s, file)
	if err != nil {
		return fmt.Errorf("stream: journaled model %q: %w", file, err)
	}
	if err := s.validateSwap(cand); err != nil {
		return err
	}
	s.adoptBoot(cand, file)
	return nil
}

// ActiveModelFile returns the state-dir file name of the serving model
// ("" when serving the boot model, or without persistence).
func (s *Streamer) ActiveModelFile() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.activeFile
}

// EncoderKeys snapshots the live phrase vocabulary in id order — the
// seed for retraining a candidate whose ids align with this streamer.
func (s *Streamer) EncoderKeys() []string {
	s.encMu.RLock()
	defer s.encMu.RUnlock()
	return s.enc.Keys()
}

// WALNextSeq returns the sequence number the next WAL append will get
// (0 without persistence) — the continuous-learning manager's training
// window marks are WAL positions.
func (s *Streamer) WALNextSeq() uint64 {
	if s.pst == nil {
		return 0
	}
	return s.pst.wal.NextSeq()
}

// SetWALRetainFloor pins WAL segments holding records at or after seq
// across snapshot truncation, keeping the continuous-learning training
// window readable. Zero clears the pin. No-op without persistence.
func (s *Streamer) SetWALRetainFloor(seq uint64) {
	if s.pst != nil {
		s.pst.wal.SetRetainFloor(seq)
	}
}

// saveModel writes cand to a fresh versioned DESHMODL file in the
// state dir and returns its name. The name embeds the WAL position at
// write time: every committed swap appends a record, so names from
// successive swaps (and across restarts) are strictly increasing and
// never collide with a file the journal already references.
func (p *persister) saveModel(s *Streamer, cand *core.Pipeline) (string, error) {
	var buf bytes.Buffer
	if err := cand.Save(&buf); err != nil {
		return "", err
	}
	name := fmt.Sprintf("model-%016d.desh", p.wal.NextSeq())
	dir := s.opts.StateDir
	return name, persist.WriteFileAtomic(p.fs, dir, filepath.Join(dir, name), buf.Bytes())
}

// loadModel reads a model file previously written by saveModel.
func (p *persister) loadModel(s *Streamer, name string) (*core.Pipeline, error) {
	f, err := p.fs.Open(filepath.Join(s.opts.StateDir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}
