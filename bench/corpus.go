package main

import (
	"fmt"
	"sort"
	"time"

	"desh/internal/catalog"
	"desh/internal/logparse"
	"desh/internal/logsim"
)

// corpusSpec fixes one corpus's characteristics; only the logsim seed
// varies between runs. Hours and Failures are stated at scale 1 (the
// run length in BENCHMARK.json) and shrink together for -smoke, so the
// per-node-hour rates — what the system's behaviour depends on — hold
// at every scale.
type corpusSpec struct {
	name     string
	nodes    int
	hours    float64
	failures int
	// noise and stray override the M3 profile's per-node-hour rates of
	// benign motif occurrences and isolated Unknown events.
	noise, stray float64
}

// The two corpora. Both are sized so one pass at the paced rate
// (pacedRate lines/s) lasts ~7 s at scale 1.
//
// chatter is what a healthy machine logs: ~94 % Safe lines, so the
// Safe filter in front of the queue retires nearly every event.
// failstorm is the opposite corner: ≥ 2000 failure chains plus their
// masked look-alikes in a bath of Unknown strays, ~20 % Safe, so
// nearly every event reaches a shard and the detector runs constantly.
var (
	chatterSpec   = corpusSpec{name: "chatter", nodes: 256, hours: 48, failures: 1200, noise: 3.75, stray: 0.1}
	failstormSpec = corpusSpec{name: "failstorm", nodes: 512, hours: 96, failures: 2000, noise: 0.2, stray: 2.5}
)

// corpus is one generated input plus the ground truth the scoring and
// the latency measurement need.
type corpus struct {
	spec     corpusSpec
	lines    []string
	events   []logparse.Event // pre-parsed view; nil until parse()
	failures []logsim.FailureRecord
	// closing[i] is the index in lines of failure i's terminal line.
	closing []int
	// byNode indexes failures by node, ordered by Start; logsim never
	// overlaps two sequences on one node, so a timestamp falls in at
	// most one record.
	byNode    map[string][]int
	safeShare float64
	masked    int
}

func generateCorpus(spec corpusSpec, seed int64, scale float64) (*corpus, error) {
	profile, _ := logsim.ProfileByName("M3")
	profile.NoisePerNodeHour = spec.noise
	profile.StrayPerNodeHour = spec.stray
	failures := int(float64(spec.failures)*scale + 0.5)
	if failures < 1 {
		failures = 1
	}
	run, err := logsim.Generate(logsim.Config{
		Profile:  profile,
		Nodes:    spec.nodes,
		Hours:    spec.hours * scale,
		Failures: failures,
		Seed:     seed,
	})
	if err != nil {
		return nil, fmt.Errorf("corpus %s: %w", spec.name, err)
	}
	c := newCorpus(spec, run.Lines(), run.Failures)
	c.masked = len(run.Masked)
	byChain := make(map[int]int, len(run.Failures))
	for i, f := range run.Failures {
		byChain[f.ChainID] = i
	}
	safe := 0
	for i, e := range run.Events {
		if p, ok := catalog.Lookup(e.Key); ok && p.Label == catalog.Safe {
			safe++
		}
		if e.Terminal {
			if f, ok := byChain[e.ChainID]; ok {
				c.closing[f] = i
			}
		}
	}
	c.safeShare = float64(safe) / float64(len(run.Events))
	return c, nil
}

// newCorpus indexes the ground truth. Rendered lines carry microsecond
// timestamps, so the records' instants are truncated to what the
// system can see.
func newCorpus(spec corpusSpec, lines []string, failures []logsim.FailureRecord) *corpus {
	c := &corpus{
		spec:     spec,
		lines:    lines,
		failures: append([]logsim.FailureRecord(nil), failures...),
		closing:  make([]int, len(failures)),
		byNode:   make(map[string][]int),
	}
	for i := range c.failures {
		f := &c.failures[i]
		f.Start = f.Start.Truncate(time.Microsecond)
		f.FailTime = f.FailTime.Truncate(time.Microsecond)
		c.closing[i] = -1
		c.byNode[f.Node] = append(c.byNode[f.Node], i)
	}
	for _, idx := range c.byNode {
		sort.Slice(idx, func(a, b int) bool { return c.failures[idx[a]].Start.Before(c.failures[idx[b]].Start) })
	}
	return c
}

// parse fills the pre-parsed view the event workloads ingest.
func (c *corpus) parse() error {
	c.events = make([]logparse.Event, len(c.lines))
	for i, line := range c.lines {
		ev, err := logparse.ParseLine(line)
		if err != nil {
			return fmt.Errorf("corpus %s line %d: %w", c.spec.name, i, err)
		}
		c.events[i] = ev
	}
	return nil
}

// match returns the failure an alert belongs to: same node, flagged
// inside the chain's [Start, FailTime] window.
func (c *corpus) match(node string, flaggedAt time.Time) (int, bool) {
	idx := c.byNode[node]
	// First record starting after flaggedAt; the candidate is the one
	// before it.
	k := sort.Search(len(idx), func(i int) bool { return c.failures[idx[i]].Start.After(flaggedAt) })
	if k == 0 {
		return 0, false
	}
	f := idx[k-1]
	if flaggedAt.After(c.failures[f].FailTime) {
		return 0, false
	}
	return f, true
}
