package main

import (
	"bytes"
	"fmt"

	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/logsim"
)

// Run-shape constants. runSeconds is BENCHMARK.json's run_seconds: the
// corpora in corpus.go are sized for it, and --seconds scales them.
const (
	runSeconds = 18
	// pacedRate is the open-loop offer rate in lines/s. Table 1's M1 is
	// 373 GB in ten months, on the order of 10² lines/s, so this is a
	// ~200x machine-wide burst — and still far below saturation on every
	// workload, which is what lets a paced phase mean latency only.
	pacedRate = 25000
	// An untraced run floods for the whole of --seconds: nothing else
	// it does feeds a timing metric. A traced run floods for
	// tracedFloodShare of it and spends the rest on the paced phase (as
	// long as the corpus lasts at pacedRate, ~40 % of the run) and the
	// layer harness. Either way at least minFloodPasses passes are timed.
	tracedFloodShare = 0.40
	minFloodPasses   = 5
	// calmShare is the share of the paced phase's latency samples the
	// reported median is taken over: the ones whose closing lines were
	// due while the host ran the pacer's own gauge kernel (pacer.go)
	// fastest. A shared host is disturbed for seconds at a time, and a
	// disturbance multiplies wake-up latency far beyond what it takes
	// from the processor's speed, so it cannot be divided out; it can
	// only be left out.
	calmShare = 1.0 / 3
	// setupRepeats is how many times a run sets up from nothing; it
	// reports the median, the last set-up is the one the run uses.
	setupRepeats = 3
	// minLatencySamples voids a paced phase whose corpus yielded too few
	// alerts raised by a closing line: the calm third must carry a
	// median and the whole a p90 under the ten-samples-beyond rule.
	minLatencySamples = 300
)

// workload is one set of inputs plus the shape of the system it runs.
type workload struct {
	name, why string
	spec      corpusSpec
	raw       bool // raw lines through IngestLine; false = pre-parsed IngestEvent
	durable   bool // state dir: WAL + snapshots; kill and recover after the whole-corpus episode
	routed    bool // router → two instances over loopback HTTP
	// floodFrac is the share of the corpus one flood pass ingests. The
	// durable and routed paths are several times slower than in-memory
	// ingest; a prefix keeps their passes near a quarter of a second, so
	// every workload's run holds dozens of them and the calibration
	// around each is never far from the work it calibrates.
	floodFrac float64
}

var workloads = []*workload{
	{
		name: "chatter_raw",
		why:  "94% Safe raw lines, no state dir: logparse+label do nearly all the work, chain/core/nn almost none; the raw-line figure",
		spec: chatterSpec, raw: true, floodFrac: 1,
	},
	{
		name: "failstorm_event",
		why:  "2000 failure chains pre-parsed, no state dir: bypasses logparse and persist, so chain+core+nn dominate; the pre-parsed figure",
		spec: failstormSpec, floodFrac: 1,
	},
	{
		name: "failstorm_durable",
		why:  "failstorm raw lines with a state dir (WAL appended, fsync out of reach), then kill and recover: persist used both ways, as deshd -state-dir runs",
		spec: failstormSpec, raw: true, durable: true, floodFrac: 0.5,
	},
	{
		name: "routed_raw",
		why:  "failstorm raw lines through a router to two instances with WALs and dedup rings over loopback HTTP: route+batch+POST+second parse; the routed figure",
		spec: failstormSpec, raw: true, routed: true, floodFrac: 1.0 / 3,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// Model training is fixed: the same corpus, seed and epochs the repo's
// own streaming tests train their fixture with, so the model — and with
// it recall, precision and lead time — moves only when the code does.
const (
	trainNodes, trainHours, trainFailures = 30, 48, 30
	trainCorpusSeed                       = 32
	trainEpochs2                          = 150
)

// trainModel trains the pipeline from nothing and returns it serialized;
// every streamer loads its own copy.
func trainModel() ([]byte, error) {
	profile, _ := logsim.ProfileByName("M3")
	run, err := logsim.Generate(logsim.Config{
		Profile: profile, Nodes: trainNodes, Hours: trainHours, Failures: trainFailures, Seed: trainCorpusSeed,
	})
	if err != nil {
		return nil, err
	}
	events := make([]logparse.Event, len(run.Events))
	for i, e := range run.Events {
		if events[i], err = logparse.ParseLine(e.Line()); err != nil {
			return nil, err
		}
	}
	cfg := core.DefaultConfig()
	cfg.Epochs1 = 0 // Phase 1 feeds no serving path
	cfg.Epochs2 = trainEpochs2
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := p.Train(events); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
