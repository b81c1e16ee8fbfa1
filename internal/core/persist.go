package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"desh/internal/chain"
	"desh/internal/label"
	"desh/internal/logparse"
	"desh/internal/nn"
	"desh/internal/persist"
)

// Model files are framed so a truncated copy, a bit-rotted disk or a
// newer format fails loudly instead of loading garbage weights:
// an 8-byte magic, a format-version byte, a CRC32 of the payload, then
// the gob payload. Files written before the header existed (bare gob)
// still load via a legacy fallback.
const (
	modelMagic = "DESHMODL"
	// modelVersion is bumped when savedPipeline changes incompatibly.
	modelVersion   = 1
	modelHeaderLen = len(modelMagic) + 1 + 4
)

// ModelFormatVersion is the DESHMODL format version this build writes
// and reads — exported for version banners and operator tooling.
const ModelFormatVersion = modelVersion

// ErrModelDamaged tags every Load failure on data that carries the
// DESHMODL magic but cannot be loaded: truncation, a future format
// version, a checksum mismatch, or a payload that decodes to an
// unusable pipeline. The error text doubles as the operator fix, so
// wrap sites end their message with it via %w.
var ErrModelDamaged = errors.New("retrain with deshtrain")

// savedPipeline is the gob wire format of a trained pipeline: the
// serving model only. Phase 1 and the skip-gram vectors are
// training-time studies and are not written. Gradients
// travel along with the weights (they are zero between steps), which
// keeps the format trivially simple. Deleting a field from Config or a
// model struct is not an incompatible change and does not bump
// modelVersion: gob drops stream fields the receiver lacks, so files
// written with the field still load (testdata/pr20_model.bin carries
// six such fields, Phase1 and Embed among them;
// TestParentWrittenModelLoads).
type savedPipeline struct {
	Cfg        Config
	Keys       []string
	TrainVocab int
	Phase2     *nn.SeqRegressor
	Chains     []chain.Chain
}

// Save serializes a trained pipeline. Labeler overrides are not
// persisted; re-apply them after Load.
func (p *Pipeline) Save(w io.Writer) error {
	if p.phase2 == nil {
		return fmt.Errorf("core: cannot save an untrained pipeline")
	}
	s := savedPipeline{
		Cfg:        p.cfg,
		Keys:       p.enc.Keys(),
		TrainVocab: p.trainVocab,
		Phase2:     p.phase2,
		Chains:     p.trainedChains,
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&s); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	hdr := make([]byte, 0, modelHeaderLen)
	hdr = append(hdr, modelMagic...)
	hdr = append(hdr, modelVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, persist.Checksum(payload.Bytes()))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// Load deserializes a pipeline previously written by Save. Headerless
// files from before the format was versioned still load; damaged or
// future-version files fail with a message naming the fix.
func Load(r io.Reader) (*Pipeline, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	payload := data
	framed := len(data) >= len(modelMagic) && string(data[:len(modelMagic)]) == modelMagic
	if framed {
		if len(data) < modelHeaderLen {
			return nil, fmt.Errorf("core: load: model file truncated inside the header — %w", ErrModelDamaged)
		}
		version := data[len(modelMagic)]
		if version != modelVersion {
			return nil, fmt.Errorf("core: load: model format version %d, this build reads %d — %w", version, modelVersion, ErrModelDamaged)
		}
		sum := binary.LittleEndian.Uint32(data[len(modelMagic)+1:])
		payload = data[modelHeaderLen:]
		if persist.Checksum(payload) != sum {
			return nil, fmt.Errorf("core: load: model payload checksum mismatch (file damaged) — %w", ErrModelDamaged)
		}
	}
	// Past the frame checks, any failure on a framed file still means
	// the file is not a usable model — keep the typed error so callers
	// can distinguish damage from I/O trouble. Unframed (legacy) files
	// keep their original untyped messages.
	damaged := func(format string, args ...any) error {
		args = append(args, ErrModelDamaged)
		return fmt.Errorf("core: load: "+format+" — %w", args...)
	}
	var s savedPipeline
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		if framed {
			return nil, damaged("model payload does not decode (%v)", err)
		}
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if err := s.Cfg.Validate(); err != nil {
		if framed {
			return nil, damaged("model carries an invalid config (%v)", err)
		}
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if s.Phase2 == nil {
		if framed {
			return nil, damaged("model has no Phase-2 network")
		}
		return nil, fmt.Errorf("core: load: model has no Phase-2 network")
	}
	p := &Pipeline{
		cfg:           s.Cfg,
		lab:           label.New(),
		enc:           logparse.NewEncoderFromKeys(s.Keys),
		phase2:        s.Phase2,
		trainVocab:    s.TrainVocab,
		trainedChains: s.Chains,
	}
	return p, nil
}
