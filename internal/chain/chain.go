// Package chain forms failure chains from labeled event sequences and
// computes the cumulative ΔT vectors that drive Desh's Phase-2 training
// and Phase-3 lead-time inference (§3.2, Table 4).
//
// A node's Safe-filtered event stream is first segmented into episodes —
// bursts of Unknown/Error phrases separated by quiet gaps. An episode
// that ends in a terminal message is a failure chain; the cumulative
// time difference of every phrase to the terminal phrase becomes the
// ΔT component of its 2-state vector. Episodes without a terminal are
// the masked-fault candidates of §4.3 (anomalies that never manifest as
// failures) and serve as negatives during evaluation.
package chain

import (
	"fmt"
	"math"
	"time"

	"desh/internal/label"
	"desh/internal/logparse"
)

// Config tunes episode segmentation.
type Config struct {
	// MaxGap splits two consecutive non-Safe events into separate
	// episodes when they are further apart than this.
	MaxGap time.Duration
	// MinLen discards episodes with fewer events (isolated strays).
	MinLen int
}

// DefaultConfig matches the generator's chain timing: intra-chain gaps
// stay well under 90s even with phrase dropout, while background stray
// anomalies on a node are minutes-to-hours apart.
func DefaultConfig() Config {
	return Config{MaxGap: 90 * time.Second, MinLen: 3}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MaxGap <= 0 {
		return fmt.Errorf("chain: MaxGap must be positive, got %v", c.MaxGap)
	}
	if c.MinLen < 1 {
		return fmt.Errorf("chain: MinLen must be at least 1, got %d", c.MinLen)
	}
	return nil
}

// Episode is one burst of anomalous (non-Safe) events on a node.
type Episode struct {
	Node   string
	Events []logparse.EncodedEvent
	// Terminal is true when the last event is a terminal message, i.e.
	// the episode is a failure chain.
	Terminal bool
}

// Episodes segments a single node's time-ordered events into bursts.
// Safe-labeled events are ignored entirely; an episode closes at the
// first terminal message or when the gap to the next event exceeds
// cfg.MaxGap.
func Episodes(events []logparse.EncodedEvent, lab *label.Labeler, cfg Config) ([]Episode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	filtered := lab.DropSafe(events)
	var episodes []Episode
	var cur []logparse.EncodedEvent
	flush := func(terminal bool) {
		if len(cur) >= cfg.MinLen {
			episodes = append(episodes, Episode{
				Node:     cur[0].Node,
				Events:   cur,
				Terminal: terminal,
			})
		}
		cur = nil
	}
	var prev int64
	for i, ev := range filtered {
		tn := ev.Time.UnixNano()
		if i > 0 && gapped(prev, tn, cfg.MaxGap) {
			flush(false)
		}
		prev = tn
		if len(cur) > 0 && ev.Node != cur[0].Node {
			return nil, fmt.Errorf("chain: events from multiple nodes (%s, %s); segment per node", cur[0].Node, ev.Node)
		}
		cur = append(cur, ev)
		if lab.IsTerminal(ev.Key) {
			flush(true)
		}
	}
	flush(false)
	return episodes, nil
}

// gapped is the gap predicate Episodes and Tracker share: next follows
// prev (Unix nanoseconds) by more than maxGap, the span saturated at
// the Duration range as time.Time.Sub saturates it. A span beyond the
// int64 range counts as math.MaxInt64, so it splits under any smaller
// gap and not under a gap of math.MaxInt64.
func gapped(prev, next int64, maxGap time.Duration) bool {
	return subNanos(next, prev) > maxGap
}

// subNanos is a − b in Unix nanoseconds as time.Time.Sub returns it for
// the two times: saturated at the Duration range instead of wrapping.
func subNanos(a, b int64) time.Duration {
	d := a - b
	if (d < 0) != (a < b) {
		if a < b {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return time.Duration(d)
}

// Entry is one phrase of a failure chain with its cumulative time
// difference to the terminal phrase (Table 4's "Phrase Vector" column).
type Entry struct {
	ID     int
	Key    string
	Time   time.Time
	DeltaT float64 // seconds until the chain's anchor (terminal) event
}

// Chain is a failure chain ready for Phase-2 vectorization.
type Chain struct {
	Node     string
	FailTime time.Time // anchor: time of the last (terminal) event
	Terminal bool      // false for non-failure candidate sequences
	Entries  []Entry   // ascending time; last entry has DeltaT == 0
}

// Lead returns the chain's full lead time: ΔT of the first entry.
func (c Chain) Lead() float64 {
	if len(c.Entries) == 0 {
		return 0
	}
	return c.Entries[0].DeltaT
}

// FromEpisode converts an episode into a ΔT-annotated chain. The anchor
// is the episode's last event: for failure chains that is the terminal
// message (ΔT6 = 0 in Table 4); for candidate sequences it is simply the
// most recent anomaly, mirroring how Phase 3 vectorizes test data. ΔT
// is the Duration anchor.Sub(t) would return, taken on Unix nanoseconds,
// so its float bits are Sub's for any time UnixNano represents.
func FromEpisode(ep Episode) Chain {
	n := len(ep.Events)
	anchor := ep.Events[n-1].Time
	anchorN := anchor.UnixNano()
	c := Chain{
		Node:     ep.Node,
		FailTime: anchor,
		Terminal: ep.Terminal,
		Entries:  make([]Entry, n),
	}
	for i := range ep.Events {
		ev := &ep.Events[i]
		c.Entries[i] = Entry{
			ID:     ev.ID,
			Key:    ev.Key,
			Time:   ev.Time,
			DeltaT: subNanos(anchorN, ev.Time.UnixNano()).Seconds(),
		}
	}
	return c
}

// ExtractAll segments every node's events and returns the failure
// chains and the non-terminal candidate sequences separately.
func ExtractAll(byNode map[string][]logparse.EncodedEvent, lab *label.Labeler, cfg Config) (failures, candidates []Chain, err error) {
	for _, events := range byNode {
		eps, err := Episodes(events, lab, cfg)
		if err != nil {
			return nil, nil, err
		}
		for _, ep := range eps {
			ch := FromEpisode(ep)
			if ep.Terminal {
				failures = append(failures, ch)
			} else {
				candidates = append(candidates, ch)
			}
		}
	}
	return failures, candidates, nil
}

// PhraseStats counts, for every phrase id, how often it appears inside
// failure chains versus candidate (non-failure) sequences — the raw data
// behind the paper's unknown-phrase analysis (Table 8, Figure 9).
type PhraseStats struct {
	InFailures  map[int]int
	InCandidate map[int]int
}

// CollectPhraseStats tallies phrase membership over extracted chains.
func CollectPhraseStats(failures, candidates []Chain) PhraseStats {
	s := PhraseStats{
		InFailures:  make(map[int]int),
		InCandidate: make(map[int]int),
	}
	for _, c := range failures {
		for _, e := range c.Entries {
			s.InFailures[e.ID]++
		}
	}
	for _, c := range candidates {
		for _, e := range c.Entries {
			s.InCandidate[e.ID]++
		}
	}
	return s
}

// Contribution returns the fraction of a phrase's appearances that were
// inside failure chains (Figure 9's per-phrase contribution metric).
func (s PhraseStats) Contribution(id int) float64 {
	f := s.InFailures[id]
	total := f + s.InCandidate[id]
	if total == 0 {
		return 0
	}
	return float64(f) / float64(total)
}
