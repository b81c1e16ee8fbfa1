package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"desh/internal/persist"
	"desh/internal/stream"
)

// stampedAlert is an alert plus the wall-clock instant the subscriber
// goroutine took it off the channel.
type stampedAlert struct {
	stream.Alert
	arrived time.Time
}

// ledgerKey is the alert's identity in the persistence layer's replay
// ledger — the key every equivalence suite in the repo compares by.
func ledgerKey(a stream.Alert) string {
	return persist.AlertRecord{
		Node:        a.Node,
		FlaggedNano: a.FlaggedAt.UnixNano(),
		LeadBits:    math.Float64bits(a.LeadSeconds),
		MSEBits:     math.Float64bits(a.MSE),
		Provisional: a.Provisional,
	}.LedgerKey()
}

func multiset(alerts []stampedAlert) map[string]int {
	m := make(map[string]int, len(alerts))
	for _, a := range alerts {
		m[ledgerKey(a.Alert)]++
	}
	return m
}

// diffMultiset returns "" when got equals want, else a description of
// the first differing key in sorted order.
func diffMultiset(want, got map[string]int) string {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			return fmt.Sprintf("alert %q: reference has %d, run has %d", k, want[k], got[k])
		}
	}
	return ""
}

// paperScore is the paper's three claims, scored against logsim ground
// truth: an alert is a true positive when it matches a failure record,
// a failure is recalled when at least one alert matches it, and the
// lead time is the alert's own LeadSeconds (ΔT at the flagging point).
type paperScore struct {
	recall, precision, leadMean float64
	alerts, matched, recalled   int
}

func scoreAlerts(c *corpus, alerts []stampedAlert) paperScore {
	var s paperScore
	seen := make([]bool, len(c.failures))
	leadSum := 0.0
	for _, a := range alerts {
		s.alerts++
		f, ok := c.match(a.Node, a.FlaggedAt)
		if !ok {
			continue
		}
		s.matched++
		leadSum += a.LeadSeconds
		if !seen[f] {
			seen[f] = true
			s.recalled++
		}
	}
	if len(c.failures) > 0 {
		s.recall = float64(s.recalled) / float64(len(c.failures))
	}
	if s.alerts > 0 {
		s.precision = float64(s.matched) / float64(s.alerts)
	}
	if s.matched > 0 {
		s.leadMean = leadSum / float64(s.matched)
	}
	return s
}

// closedBy returns the failure whose closing line raised alert a —
// the only alerts that give a latency sample (FlaggedAt is the chain's
// FailTime). A chain cut short by a silence gap is scored when the
// node's next event arrives; timing that would measure the corpus's
// inter-arrival time, not the program.
func (c *corpus) closedBy(a stampedAlert) (int, bool) {
	f, ok := c.match(a.Node, a.FlaggedAt)
	if !ok || c.closing[f] < 0 || !a.FlaggedAt.Equal(c.failures[f].FailTime) {
		return 0, false
	}
	return f, true
}
