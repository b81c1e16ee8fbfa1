package core

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"desh/internal/nn"
)

func TestSaveRequiresTraining(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("expected error saving untrained pipeline")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	_, events := generateParsed(t, pickProfile(2), 30, 48, 30, 52)
	cfg := fastConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(events[:len(events)*3/10]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Encoder().Len() != p.Encoder().Len() {
		t.Fatalf("vocab %d vs %d", loaded.Encoder().Len(), p.Encoder().Len())
	}
	if len(loaded.TrainedChains()) != len(p.TrainedChains()) {
		t.Fatal("trained chains lost")
	}
	// Same test data must yield identical verdicts.
	test := events[len(events)*3/10:]
	a, err := p.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("verdict counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Flagged != b[i].Flagged || math.Abs(a[i].LeadSeconds-b[i].LeadSeconds) > 1e-9 {
			t.Fatalf("verdict %d differs after reload", i)
		}
	}
}

// TestParentWrittenModelLoads: testdata/pr20_model.bin was written by
// the deshtrain of the commit before PR 22 (deshgen -machine M3 -nodes 4
// -hours 6 -failures 3 -seed 5, then -epochs1 1 -epochs2 6 -seed 3). Its
// gob stream still carries Config.Batch2, Config.TrimFrac,
// Config.TrainEmbeddings and SeqClassifier.TrainEmbed; gob drops stream
// fields the receiver lacks, so the file must load at modelVersion 1
// with the weights that commit read back from it, and survive a
// Save -> Load round trip.
func TestParentWrittenModelLoads(t *testing.T) {
	const phase1, phase2 = 0xa97473e15d37159d, 0x54a7b241556cff1f
	raw, err := os.ReadFile("testdata/pr20_model.bin")
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, data []byte) *Pipeline {
		t.Helper()
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := p.Config().Validate(); err != nil {
			t.Fatalf("%s: config: %v", label, err)
		}
		if cfg := p.Config(); cfg.Epochs1 != 1 || cfg.Epochs2 != 6 || cfg.Batch != 8 || cfg.Seed != 3 {
			t.Fatalf("%s: config %+v lost the fields it still has", label, cfg)
		}
		if got := p.Fingerprint(); got != phase2 {
			t.Fatalf("%s: Phase-2 fingerprint %#x, want %#x", label, got, uint64(phase2))
		}
		if got := nn.WeightsFingerprint(p.Phase1Model().Params()); got != phase1 {
			t.Fatalf("%s: Phase-1 fingerprint %#x, want %#x", label, got, uint64(phase1))
		}
		if p.TrainVocab() != 37 || len(p.TrainedChains()) != 3 {
			t.Fatalf("%s: vocab %d, %d chains, want 37 and 3", label, p.TrainVocab(), len(p.TrainedChains()))
		}
		return p
	}
	p := check("parent-written file", raw)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	check("re-saved", buf.Bytes())
}

func TestLoadGarbageFails(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestModelHeaderFraming(t *testing.T) {
	_, events := generateParsed(t, pickProfile(3), 30, 48, 30, 52)
	p, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(events[:len(events)/4]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if string(data[:len(modelMagic)]) != modelMagic {
		t.Fatal("saved model lacks magic header")
	}

	// Pre-header files (bare gob payload) still load.
	if _, err := Load(bytes.NewReader(data[modelHeaderLen:])); err != nil {
		t.Fatalf("legacy headerless load: %v", err)
	}

	// A future format version fails with a message naming the fix, not a
	// gob decode error.
	future := append([]byte(nil), data...)
	future[len(modelMagic)] = 99
	if _, err := Load(bytes.NewReader(future)); err == nil || !strings.Contains(err.Error(), "deshtrain") {
		t.Fatalf("future version: %v", err)
	}

	// A flipped payload byte is caught by the checksum.
	damaged := append([]byte(nil), data...)
	damaged[len(damaged)-1] ^= 0xff
	if _, err := Load(bytes.NewReader(damaged)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("damaged payload: %v", err)
	}

	// The intact file round-trips.
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("intact load: %v", err)
	}
}
