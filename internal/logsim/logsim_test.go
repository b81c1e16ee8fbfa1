package logsim

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"desh/internal/catalog"
)

func testConfig(seed int64) Config {
	return Config{
		Profile:  Profiles()[0],
		Nodes:    64,
		Hours:    48,
		Failures: 40,
		Seed:     seed,
	}
}

func mustGenerate(t *testing.T, cfg Config) *Run {
	t.Helper()
	run, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return run
}

func TestNodeIDRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, 191, 192, 500, 1535, 9999} {
		id := NodeID(i)
		got, err := ParseNodeID(id)
		if err != nil {
			t.Fatalf("ParseNodeID(%q): %v", id, err)
		}
		if got != i {
			t.Fatalf("round trip %d -> %q -> %d", i, id, got)
		}
	}
}

func TestNodeIDFormat(t *testing.T) {
	if NodeID(0) != "c0-0c0s0n0" {
		t.Fatalf("NodeID(0)=%q", NodeID(0))
	}
	// 192 nodes per cabinet: index 192 starts cabinet 1.
	if NodeID(192) != "c1-0c0s0n0" {
		t.Fatalf("NodeID(192)=%q", NodeID(192))
	}
	// 4 nodes per slot: index 5 is slot 1 node 1.
	if NodeID(5) != "c0-0c0s1n1" {
		t.Fatalf("NodeID(5)=%q", NodeID(5))
	}
}

func TestParseNodeIDErrors(t *testing.T) {
	for _, bad := range []string{"", "nonsense", "c9-0c0s0n0", "c0-0c5s0n0", "c0-0c0s99n0"} {
		if _, err := ParseNodeID(bad); err == nil {
			t.Errorf("ParseNodeID(%q) should fail", bad)
		}
	}
}

func TestLocation(t *testing.T) {
	loc, err := Location("c2-1c1s7n3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(loc, "cabinet 2-1") || !strings.Contains(loc, "blade 7") {
		t.Fatalf("Location=%q", loc)
	}
	if _, err := Location("bogus"); err == nil {
		t.Fatal("Location must reject bad ids")
	}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("%d profiles", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if len(p.ClassMix) != 6 {
			t.Errorf("%s: class mix has %d classes", p.Name, len(p.ClassMix))
		}
		if p.Nodes <= 0 || p.NoisePerNodeHour <= 0 || p.MaskedPerFailure <= 0 {
			t.Errorf("%s: non-positive knobs", p.Name)
		}
	}
	for _, want := range []string{"M1", "M2", "M3", "M4"} {
		if !names[want] {
			t.Errorf("missing profile %s", want)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if p, ok := ProfileByName("M3"); !ok || p.System != "Cray XC40" {
		t.Fatalf("M3 lookup: %+v ok=%v", p, ok)
	}
	if _, ok := ProfileByName("M9"); ok {
		t.Fatal("M9 must not exist")
	}
}

func TestChainTemplatesValid(t *testing.T) {
	seen := map[catalog.Class]int{}
	for _, ct := range chainTemplates() {
		seen[ct.Class]++
		if len(ct.Phrases) < 4 {
			t.Errorf("%v: chain too short (%d)", ct.Class, len(ct.Phrases))
		}
		last, ok := catalog.Lookup(ct.Phrases[len(ct.Phrases)-1])
		if !ok || !last.Terminal {
			t.Errorf("%v: chain must end in a terminal phrase", ct.Class)
		}
		for _, key := range ct.Phrases[:len(ct.Phrases)-1] {
			p, ok := catalog.Lookup(key)
			if !ok {
				t.Errorf("%v: phrase %q not in catalog", ct.Class, key)
				continue
			}
			if p.Label == catalog.Safe {
				t.Errorf("%v: Safe phrase %q inside a failure chain", ct.Class, key)
			}
		}
		if ct.LeadMean <= 0 || ct.LeadStd <= 0 {
			t.Errorf("%v: bad lead distribution", ct.Class)
		}
	}
	for _, c := range catalog.Classes {
		if seen[c] < 2 {
			t.Errorf("class %v has %d chain templates, want >= 2", c, seen[c])
		}
	}
}

func TestChainTemplateLeadsMatchTable7(t *testing.T) {
	want := map[catalog.Class]float64{
		catalog.ClassJob:      81.52,
		catalog.ClassMCE:      160.29,
		catalog.ClassFS:       119.32,
		catalog.ClassTraps:    115.74,
		catalog.ClassHardware: 124.29,
		catalog.ClassPanic:    58.87,
	}
	for _, ct := range chainTemplates() {
		if math.Abs(ct.LeadMean-want[ct.Class]) > 2 {
			t.Errorf("%v lead mean %v, paper %v", ct.Class, ct.LeadMean, want[ct.Class])
		}
	}
}

func TestMaskedTemplatesNonTerminal(t *testing.T) {
	for i, seq := range maskedTemplates() {
		for _, key := range seq {
			p, ok := catalog.Lookup(key)
			if !ok {
				t.Fatalf("masked template %d: %q not in catalog", i, key)
			}
			if p.Terminal {
				t.Errorf("masked template %d contains terminal phrase %q", i, key)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"nodes":    {Profile: Profiles()[0], Nodes: 0, Hours: 1, Failures: 1},
		"hours":    {Profile: Profiles()[0], Nodes: 1, Hours: 0, Failures: 1},
		"failures": {Profile: Profiles()[0], Nodes: 1, Hours: 1, Failures: -1},
		"profile":  {Nodes: 1, Hours: 1, Failures: 1},
	} {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, testConfig(7))
	b := mustGenerate(t, testConfig(7))
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].Line() != b.Events[i].Line() {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestGenerateEventOrdering(t *testing.T) {
	run := mustGenerate(t, testConfig(8))
	if !sort.SliceIsSorted(run.Events, func(i, j int) bool {
		return run.Events[i].Time.Before(run.Events[j].Time)
	}) {
		t.Fatal("events must be time sorted")
	}
}

func TestGenerateFailureGroundTruth(t *testing.T) {
	cfg := testConfig(9)
	run := mustGenerate(t, cfg)
	if len(run.Failures) < cfg.Failures*8/10 {
		t.Fatalf("only %d/%d failures placed", len(run.Failures), cfg.Failures)
	}
	for _, f := range run.Failures {
		if f.FailTime.Before(f.Start) {
			t.Fatalf("chain %d: fail before start", f.ChainID)
		}
		lead := f.Lead().Seconds()
		if lead < 10 || lead > 400 {
			t.Fatalf("chain %d: implausible lead %vs", f.ChainID, lead)
		}
		// The terminal event must exist on the right node at FailTime.
		found := false
		for _, e := range run.Events {
			if e.ChainID == f.ChainID && e.Terminal {
				if e.Node != f.Node || !e.Time.Equal(f.FailTime) {
					t.Fatalf("chain %d: terminal mismatch", f.ChainID)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("chain %d: no terminal event", f.ChainID)
		}
	}
}

func TestGenerateMaskedSequencesHaveNoTerminal(t *testing.T) {
	run := mustGenerate(t, testConfig(10))
	if len(run.Masked) == 0 {
		t.Fatal("expected masked sequences")
	}
	maskedIDs := map[int]bool{}
	for _, m := range run.Masked {
		maskedIDs[m.ChainID] = true
	}
	for _, e := range run.Events {
		if maskedIDs[e.ChainID] && e.Terminal {
			t.Fatalf("masked chain %d emitted a terminal event", e.ChainID)
		}
	}
}

func TestGenerateNoOverlapPerNode(t *testing.T) {
	run := mustGenerate(t, testConfig(11))
	type window struct {
		start, end time.Time
	}
	windows := map[string][]window{}
	for _, f := range run.Failures {
		windows[f.Node] = append(windows[f.Node], window{f.Start, f.FailTime})
	}
	for _, m := range run.Masked {
		windows[m.Node] = append(windows[m.Node], window{m.Start, m.End})
	}
	for node, ws := range windows {
		sort.Slice(ws, func(i, j int) bool { return ws[i].start.Before(ws[j].start) })
		for i := 1; i < len(ws); i++ {
			if ws[i].start.Before(ws[i-1].end) {
				t.Fatalf("node %s: overlapping sequences", node)
			}
		}
	}
}

func TestGenerateRenderRoundTrip(t *testing.T) {
	run := mustGenerate(t, testConfig(12))
	for _, e := range run.Events[:min(len(run.Events), 2000)] {
		if got := catalog.Mask(e.Raw); got != e.Key {
			t.Fatalf("Mask(%q) = %q, want key %q", e.Raw, got, e.Key)
		}
	}
}

func TestGenerateClassMixRespected(t *testing.T) {
	cfg := testConfig(13)
	cfg.Failures = 300
	cfg.Nodes = 400
	cfg.Hours = 200
	run := mustGenerate(t, cfg)
	counts := map[catalog.Class]int{}
	for _, f := range run.Failures {
		counts[f.Class]++
	}
	// MCE is weighted 0.22 in M1; Job only 0.08.
	if counts[catalog.ClassMCE] <= counts[catalog.ClassJob] {
		t.Fatalf("class mix violated: MCE %d <= Job %d", counts[catalog.ClassMCE], counts[catalog.ClassJob])
	}
	for _, c := range catalog.Classes {
		if counts[c] == 0 {
			t.Errorf("class %v never generated", c)
		}
	}
}

func TestGeneratePerClassLeadStats(t *testing.T) {
	cfg := testConfig(14)
	cfg.Failures = 400
	cfg.Nodes = 500
	cfg.Hours = 300
	run := mustGenerate(t, cfg)
	leads := map[catalog.Class][]float64{}
	for _, f := range run.Failures {
		leads[f.Class] = append(leads[f.Class], f.Lead().Seconds())
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// Ground-truth ordering from Table 7: Panic shortest, MCE longest.
	if mean(leads[catalog.ClassPanic]) >= mean(leads[catalog.ClassJob]) {
		t.Errorf("Panic lead %v >= Job lead %v", mean(leads[catalog.ClassPanic]), mean(leads[catalog.ClassJob]))
	}
	if mean(leads[catalog.ClassMCE]) <= mean(leads[catalog.ClassFS]) {
		t.Errorf("MCE lead %v <= FS lead %v", mean(leads[catalog.ClassMCE]), mean(leads[catalog.ClassFS]))
	}
}

func TestEventLineFormat(t *testing.T) {
	e := Event{
		Time: time.Date(2026, 2, 3, 4, 5, 6, 123456000, time.UTC),
		Node: "c0-0c1s2n3",
		Raw:  "Setting flag",
	}
	want := "2026-02-03T04:05:06.123456 c0-0c1s2n3 Setting flag"
	if e.Line() != want {
		t.Fatalf("Line()=%q want %q", e.Line(), want)
	}
}

func TestWriteToMatchesLines(t *testing.T) {
	run := mustGenerate(t, Config{Profile: Profiles()[3], Nodes: 8, Hours: 4, Failures: 3, Seed: 15})
	var buf bytes.Buffer
	if _, err := run.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want := run.Lines()
	if len(lines) != len(want) {
		t.Fatalf("%d lines written, want %d", len(lines), len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d differs", i)
		}
	}
}

func TestBackgroundVolumeScales(t *testing.T) {
	small := mustGenerate(t, Config{Profile: Profiles()[0], Nodes: 10, Hours: 5, Failures: 0, Seed: 16})
	big := mustGenerate(t, Config{Profile: Profiles()[0], Nodes: 40, Hours: 5, Failures: 0, Seed: 16})
	if len(big.Events) < 3*len(small.Events) {
		t.Fatalf("background volume did not scale: %d vs %d", len(small.Events), len(big.Events))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// failstormConfig is the benchmark's failstorm corpus (bench/corpus.go)
// at 1/20 scale: M3 with the Unknown-stray bath turned up.
func failstormConfig(seed int64) Config {
	profile, _ := ProfileByName("M3")
	profile.NoisePerNodeHour, profile.StrayPerNodeHour = 0.2, 2.5
	return Config{Profile: profile, Nodes: 512, Hours: 4.8, Failures: 100, Seed: seed}
}

// TestGenerateOrderPinned holds Generate's output order to fingerprints
// recorded before its two merges moved from sort.SliceStable to
// slices.SortStableFunc: same comparator, both stable, so every line
// must land where it did.
func TestGenerateOrderPinned(t *testing.T) {
	for seed, want := range map[int64]uint64{1: 0x4e3c3c9be9a1f5d8, 101: 0x8f9be30a9b11cc4f} {
		h := fnv.New64a()
		lines := mustGenerate(t, failstormConfig(seed)).Lines()
		for _, line := range lines {
			h.Write([]byte(line))
			h.Write([]byte{'\n'})
		}
		if got := h.Sum64(); got != want {
			t.Errorf("seed %d: %d lines hash to %#x, want %#x", seed, len(lines), got, want)
		}
	}
}

// BenchmarkGenFailstorm is one full-scale failstorm corpus (~176k
// events), the bulk of the benchmark's setup_s.
func BenchmarkGenFailstorm(b *testing.B) {
	cfg := failstormConfig(1)
	cfg.Hours, cfg.Failures = 96, 2000
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSortByTimeIsStableSort holds sortByTime to a stable sort by
// Time.Compare: on the radix path (Unix nanoseconds, ties in plenty,
// keys spanning more than one digit) and on the Time.Compare path an
// instant outside UnixNano's range sends it to.
func TestSortByTimeIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, far := range []time.Time{{}, time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2500, 1, 1, 0, 0, 0, 0, time.UTC)} {
		for _, n := range []int{0, 1, 2, 7, 3000} {
			events := make([]Event, n)
			for i := range events {
				events[i] = Event{Time: base.Add(time.Duration(rng.Int63n(1 << uint(10+rng.Intn(40))))), ChainID: i}
				if rng.Intn(4) == 0 && i > 0 {
					events[i].Time = events[rng.Intn(i)].Time
				}
			}
			if n > 0 && !far.IsZero() {
				events[n/2].Time = far
			}
			want := slices.Clone(events)
			slices.SortStableFunc(want, byTime)
			got := sortByTime(slices.Clone(events))
			for i := range want {
				if got[i].ChainID != want[i].ChainID {
					t.Fatalf("%d events, far %v: position %d holds event %d, stable sort %d", n, far, i, got[i].ChainID, want[i].ChainID)
				}
			}
		}
	}
}
