package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestBenchmarkFileMatchesCommand holds BENCHMARK.json and the command
// together: same workloads with the same reasons, same metric names,
// units and directions in the same order, the run length the corpora
// are sized for, and every bound inside the harness's limits.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the corpora are sized for %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, declared, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: %d metrics declared, %d printed", kind, len(declared), len(printed))
		}
		for i, d := range declared {
			p := printed[i]
			if d.Name != p.Name || d.Unit != p.Unit || d.Better != p.Better {
				t.Errorf("%s %d: declared %+v, printed %+v", kind, i, d, p)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	hasSetup := false
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// TestResultLine checks the harness's last line: exactly the four keys,
// and one value with its unit per declared metric.
func TestResultLine(t *testing.T) {
	r := &result{Correct: true, Attempted: 7, values: map[string]float64{}, defs: endToEnd}
	if err := r.check(); err == nil {
		t.Error("a result with no values passed its check")
	}
	for i, d := range endToEnd {
		r.values[d.Name] = float64(i) + 0.5
	}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.line()), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result line keys: %s", r.line())
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["setup_s"] != (metricValue{Value: 0.5, Unit: "s"}) {
		t.Errorf("metrics = %v", metrics)
	}
}

// TestJudge pins the A/A rule on hand-made sets.
func TestJudge(t *testing.T) {
	flat := func(v float64) aaSide { return side([]float64{v, v, v, v, v, v, v, v, v, v}) }
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	if w, ok := judge(lower, []aaSide{flat(100), flat(109)}); !ok || w < 0.089 || w > 0.091 {
		t.Errorf("9%% slower within a 10%% bound: worse %v pass %v", w, ok)
	}
	if _, ok := judge(lower, []aaSide{flat(100), flat(111)}); ok {
		t.Error("11% slower passed a 10% bound")
	}
	if _, ok := judge(higher, []aaSide{flat(100), flat(89)}); ok {
		t.Error("an 11% lower rate passed a 10% bound")
	}
	if _, ok := judge(higher, []aaSide{flat(100), flat(150)}); !ok {
		t.Error("a better second set failed")
	}
	wide := side([]float64{80, 85, 90, 95, 100, 100, 105, 110, 115, 120})
	if _, ok := judge(lower, []aaSide{wide, wide}); ok {
		t.Errorf("a %.0f%% spread passed a 10%% bound", 100*wide.Spread)
	}
	if _, ok := judge(metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}, []aaSide{wide, wide}); !ok {
		t.Error("setup_s was judged on its spread")
	}
}
