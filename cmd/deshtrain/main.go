// Command deshtrain runs Desh's training Phases 1 and 2 on a raw log
// file and writes the trained model.
//
// Usage:
//
//	deshtrain -in train.log -model desh.model [-epochs1 2 -epochs2 150 -batch 8]
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
	epochs1 := flag.Int("epochs1", 2, "Phase-1 training epochs (0 skips Phase 1)")
	epochs2 := flag.Int("epochs2", 150, "Phase-2 training epochs")
	batch := flag.Int("batch", 8, "Phase-1 mini-batch size (1 = one window per SGD step)")
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
	cfg.Epochs1 = *epochs1
	cfg.Epochs2 = *epochs2
	cfg.Batch = *batch
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
	if *epochs1 > 0 {
		fmt.Printf("deshtrain: Phase-1 loss %.4f, next-phrase accuracy %.1f%%\n",
			report.Phase1Loss, 100*report.Phase1Accuracy)
	}
	fmt.Printf("deshtrain: Phase-2 final MSE %.4f, model written to %s\n", report.Phase2Loss, *model)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deshtrain:", err)
	os.Exit(1)
}
