// Command deshtrain trains the model deshd and deshpredict serve (Phase
// 2, the ΔT regressor over failure chains) on a raw log file and writes
// it. Phase 1, the next-phrase study, is deshexp's.
//
// Usage:
//
//	deshtrain -in train.log -model desh.model [-epochs2 150 -seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"desh"
	"desh/internal/buildinfo"
)

func main() {
	in := flag.String("in", "", "training log file (required)")
	model := flag.String("model", "desh.model", "output model file")
	epochs2 := flag.Int("epochs2", 150, "Phase-2 training epochs")
	seed := flag.Int64("seed", 1, "training seed")
	showVersion := flag.Bool("version", false, "print version information and exit")
	flag.Parse()
	if *showVersion {
		buildinfo.Fprint(os.Stdout, "deshtrain")
		return
	}
	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}

	cfg := desh.DefaultConfig()
	cfg.Epochs1 = 0
	cfg.Epochs2 = *epochs2
	cfg.Seed = *seed
	p, err := desh.NewPredictor(cfg)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	report, err := p.TrainFromReader(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	out, err := os.Create(*model)
	if err != nil {
		fatal(err)
	}
	if err := p.Save(out); err != nil {
		fatal(err)
	}
	// Close can be the first to report that the data did not reach the
	// disk; unchecked, deshtrain would print "model written" and exit 0.
	if err := out.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("deshtrain: %d events, %d nodes, vocab %d, %d failure chains\n",
		report.Events, report.Nodes, report.Vocab, report.FailureChains)
	fmt.Printf("deshtrain: Phase-2 final MSE %.4f, model written to %s\n", report.Phase2Loss, *model)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deshtrain:", err)
	os.Exit(1)
}
