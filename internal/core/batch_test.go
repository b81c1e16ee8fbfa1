package core

import (
	"runtime"
	"testing"

	"desh/internal/logsim"
	"desh/internal/nn"
)

// trainWeights runs a full batched Pipeline.Train at small scale and
// returns the trained pipeline.
func trainWeights(t *testing.T) *Pipeline {
	t.Helper()
	_, events := generateParsed(t, logsim.Profiles()[2], 20, 24, 15, 3)
	train, _ := SplitEvents(events, 0.5)
	cfg := fastConfig()
	cfg.Epochs2 = 20
	cfg.Batch = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(train); err != nil {
		t.Fatal(err)
	}
	return p
}

// compareParams demands bit-identical values across two parameter sets.
func compareParams(t *testing.T, label string, ap, bp []*nn.Param) {
	t.Helper()
	if len(ap) != len(bp) {
		t.Fatalf("%s: param counts %d vs %d", label, len(ap), len(bp))
	}
	for i := range ap {
		av, bv := ap[i].Value.Data, bp[i].Value.Data
		if len(av) != len(bv) {
			t.Fatalf("%s: param %d sizes %d vs %d", label, i, len(av), len(bv))
		}
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("%s: param %d (%s) weight[%d]: %v vs %v", label, i, ap[i].Name, j, av[j], bv[j])
			}
		}
	}
}

// TestTrainDeterministicAcrossWorkers pins the tentpole determinism
// guarantee end to end: a full batched Pipeline.Train produces
// bit-identical trained weights whether the shared worker pool runs one
// worker or four. The shard split and merge order depend only on the
// data, never on scheduling.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	narrow := trainWeights(t)
	runtime.GOMAXPROCS(4)
	wide := trainWeights(t)
	runtime.GOMAXPROCS(prev)

	compareParams(t, "phase1", narrow.phase1.Params(), wide.phase1.Params())
	compareParams(t, "phase2", narrow.phase2.Params(), wide.phase2.Params())
	if narrow.emb != nil && wide.emb != nil {
		for i, v := range narrow.emb.In.Data {
			if wide.emb.In.Data[i] != v {
				t.Fatalf("embedding weight %d: %v vs %v", i, v, wide.emb.In.Data[i])
			}
		}
	}
}
