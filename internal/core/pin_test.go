package core

import (
	"runtime"
	"testing"

	"desh/internal/logsim"
	"desh/internal/nn"
)

// TestTrainedWeightsPinned holds training to the weights the commit
// before PR 22 produced, when Phase 1 still had a serial branch beside
// the trainer and Phase 2 a batched trainer beside the serial loop. The
// corpus and the first row are the benchmark's recipe (bench/workload.go
// trainModel), so that row is the served model: while it holds, recall,
// precision and lead time cannot move. The second row is what the
// deleted serial Phase-1 branch trained at Batch=1, now reached through
// a one-row ClassifierTrainer batch. A change that means to move the
// weights re-records these and says why.
func TestTrainedWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64: arm64 fuses multiply-add, so its weights differ in the last bits")
	}
	profile, _ := logsim.ProfileByName("M3")
	_, events := generateParsed(t, profile, 30, 48, 30, 32)
	for _, tc := range []struct {
		name                    string
		epochs1, epochs2, batch int
		phase1, phase2          uint64
	}{
		{"benchmark recipe", 0, 150, 8, 0, 0x48f918c2764df430},
		{"one-row Phase-1 batch", 1, 20, 1, 0x625b042c109ca419, 0x5b617e94c8f52a11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Epochs1, cfg.Epochs2, cfg.Batch = tc.epochs1, tc.epochs2, tc.batch
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			report, err := p.Train(events)
			if err != nil {
				t.Fatal(err)
			}
			if got := nn.WeightsFingerprint(p.Phase2Model().Params()); got != tc.phase2 {
				t.Errorf("Phase-2 fingerprint %#x, want %#x", got, tc.phase2)
			}
			if tc.epochs1 == 0 {
				return
			}
			if got := nn.WeightsFingerprint(report.Phase1.Params()); got != tc.phase1 {
				t.Errorf("Phase-1 fingerprint %#x, want %#x", got, tc.phase1)
			}
		})
	}
}

// BenchmarkTrainRecipe trains the benchmark's recipe from its parsed
// corpus (bench/workload.go trainModel: M3, 30 nodes, 48 h, 30 failures,
// corpus seed 32, Phase 2 only at 150 epochs), the corpus
// TestTrainedWeightsPinned's first row trains. It is the largest frame
// of the benchmark's setup_s.
func BenchmarkTrainRecipe(b *testing.B) {
	profile, _ := logsim.ProfileByName("M3")
	_, events := generateParsed(b, profile, 30, 48, 30, 32)
	cfg := DefaultConfig()
	cfg.Epochs1, cfg.Epochs2 = 0, 150
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Train(events); err != nil {
			b.Fatal(err)
		}
	}
}
