package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json this command reads.
type benchmarkFile struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// aaSide is one set's values of one (workload, metric) pair.
type aaSide struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
}

// aaRow is the A/A verdict on one (workload, metric) pair: two sets of
// runs of the same binary must agree within the metric's bound, and
// (setup_s aside) each set's own spread must stay within it too.
type aaRow struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Bound    float64  `json:"bound"`
	Sets     []aaSide `json:"sets"`
	// Worse is how much worse the second set's median is than the
	// first's, as a share of the first's (negative = better).
	Worse float64 `json:"worse"`
	Pass  bool    `json:"pass"`
}

func side(values []float64) aaSide {
	q1, q2, q3 := quartiles(values)
	s := aaSide{Values: values, Median: q2, Q1: q1, Q3: q3}
	if q2 != 0 {
		s.Spread = (q3 - q1) / q2
	}
	return s
}

// judge applies the acceptance rule to one pair.
func judge(def metricDef, sets []aaSide) (worse float64, pass bool) {
	a, b := sets[0].Median, sets[len(sets)-1].Median
	if a != 0 {
		worse = (b - a) / a
		if def.Better == "higher" {
			worse = -worse
		}
	}
	pass = worse <= def.Bound
	if def.Name != "setup_s" {
		for _, s := range sets {
			if s.Spread > def.Bound {
				pass = false
			}
		}
	}
	return worse, pass
}

// aaRun makes one untraced run of this binary and returns its metrics.
func aaRun(self, workload string, seed, seconds int, logs string) (map[string]metricValue, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if logs != "" {
		// Best effort: the logs are for reading afterwards, the verdict
		// does not rest on them.
		_ = os.WriteFile(fmt.Sprintf("%s/%s-%d-%d.log", logs, workload, seed, time.Now().UnixNano()), stderr.Bytes(), 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %v\n%s", workload, seed, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct bool                   `json:"correct"`
		Failed  int64                  `json:"failed"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: bad result line (%v): %s", workload, seed, err, lines[len(lines)-1])
	}
	return res.Metrics, nil
}

// aaMain interleaves -sets sets of -runs runs of this same binary over
// every workload, run i of every set using seed i, and reports whether
// the sets agree within the bounds BENCHMARK.json declares.
func aaMain(args []string) int {
	fs := flag.NewFlagSet("aa", flag.ExitOnError)
	sets := fs.Int("sets", 2, "sets of runs to interleave")
	runs := fs.Int("runs", 10, "runs per set and workload, each with another seed")
	only := fs.String("workloads", "", "comma-separated subset of workloads (default all)")
	bench := fs.String("benchmark", "BENCHMARK.json", "file the bounds and the run length are read from")
	out := fs.String("out", "bench/AA_BASELINE.json", "where the record is written")
	logs := fs.String("logs", "", "existing directory to keep every run's standard error in (default: not kept)")
	_ = fs.Parse(args)
	bf, err := readBenchmarkFile(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deshbench aa:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deshbench aa:", err)
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *only == "" || strings.Contains(","+*only+",", ","+w.name+",") {
			names = append(names, w.name)
		}
	}
	// values[workload][set][metric] = one value per run
	values := map[string][]map[string][]float64{}
	for _, n := range names {
		values[n] = make([]map[string][]float64, *sets)
		for s := range values[n] {
			values[n][s] = map[string][]float64{}
		}
	}
	start, retried := time.Now(), 0
	for run := 1; run <= *runs; run++ {
		for s := 0; s < *sets; s++ {
			for _, n := range names {
				res, err := aaRun(self, n, run, bf.RunSeconds, *logs)
				if err != nil {
					// One retry, counted in the record: a run this host froze
					// in should not cost the half hour already spent.
					fmt.Fprintf(os.Stderr, "deshbench aa: %v; retrying once\n", err)
					retried++
					if res, err = aaRun(self, n, run, bf.RunSeconds, *logs); err != nil {
						fmt.Fprintln(os.Stderr, "deshbench aa:", err)
						return 2
					}
				}
				for m, v := range res {
					values[n][s][m] = append(values[n][s][m], v.Value)
				}
				fmt.Fprintf(os.Stderr, "run %d/%d set %d %s done (%.0fs elapsed)\n", run, *runs, s+1, n, time.Since(start).Seconds())
			}
		}
	}
	var rows []aaRow
	allPass := true
	fmt.Printf("%-18s %-22s %14s %8s %14s %8s %8s %6s  %s\n", "workload", "metric", "median A", "spread", "median B", "spread", "worse", "bound", "verdict")
	for _, n := range names {
		for _, def := range bf.EndToEnd {
			row := aaRow{Workload: n, Metric: def.Name, Unit: def.Unit, Better: def.Better, Bound: def.Bound}
			for s := 0; s < *sets; s++ {
				row.Sets = append(row.Sets, side(values[n][s][def.Name]))
			}
			row.Worse, row.Pass = judge(def, row.Sets)
			allPass = allPass && row.Pass
			rows = append(rows, row)
			a, b := row.Sets[0], row.Sets[len(row.Sets)-1]
			fmt.Printf("%-18s %-22s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%% %5.0f%%  %s\n", n, def.Name,
				a.Median, 100*a.Spread, b.Median, 100*b.Spread, 100*row.Worse, 100*def.Bound, map[bool]string{true: "pass", false: "FAIL"}[row.Pass])
		}
	}
	record := map[string]any{
		"command":     "deshbench aa",
		"sets":        *sets,
		"runs":        *runs,
		"run_seconds": bf.RunSeconds,
		"seeds":       fmt.Sprintf("1..%d, the same in every set", *runs),
		"rule":        "pass = second median no worse than the first by more than bound, and (setup_s aside) every set's (q3-q1)/median within bound; quartiles as Python's statistics.quantiles(n=4)",
		"wall_s":      time.Since(start).Seconds(),
		"retried":     retried,
		"all_pass":    allPass,
		"rows":        rows,
	}
	data, _ := json.MarshalIndent(record, "", " ")
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "deshbench aa:", err)
		return 2
	}
	fmt.Printf("A/A %s; record written to %s\n", map[bool]string{true: "passed", false: "FAILED"}[allPass], *out)
	if !allPass {
		return 1
	}
	return 0
}
