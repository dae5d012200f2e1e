// Command dpbench regenerates the tables and figures of the paper's
// evaluation (Section 7) and the supporting studies indexed in DESIGN.md.
//
// Usage:
//
//	dpbench [flags]
//
// Examples:
//
//	dpbench -experiments all -trials 500 -scale 100
//	dpbench -experiments fig1a,fig4 -format csv
//	dpbench -experiments all -paper          # full 10,000-trial, full-scale run
//
// With -paper the run matches the paper's parameters (full-size datasets,
// 10,000 trials per point); expect it to take a long time.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/freegap/freegap/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dpbench", flag.ContinueOnError)
	var (
		experimentsFlag = fs.String("experiments", "all", "comma-separated experiment ids: datasets, fig1a, fig1b, fig2a, fig2b, fig3counts, fig3quality, fig4, corollary1, svtratio, ties, lemma5, audit, alignment, or 'all'")
		trials          = fs.Int("trials", 0, "Monte-Carlo trials per plotted point (0 = default)")
		scale           = fs.Int("scale", 0, "dataset scale-down factor (0 = default, 1 = full paper scale)")
		eps             = fs.Float64("eps", 0, "total privacy budget for the k sweeps (0 = paper's 0.7)")
		seed            = fs.Uint64("seed", 1, "random seed")
		format          = fs.String("format", "table", "output format: table or csv")
		paper           = fs.Bool("paper", false, "use the paper's full-scale configuration (overrides -trials/-scale)")
		compensate      = fs.Bool("compensate-scale", true, "rescale epsilon by the dataset scale factor so scaled-down runs keep the paper's noise-to-count ratio")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiment.DefaultConfig()
	if *paper {
		cfg = experiment.PaperConfig()
	}
	cfg.Seed = *seed
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *eps > 0 {
		cfg.Epsilon = *eps
	}
	cfg.CompensateScale = *compensate && cfg.Scale > 1

	writeFigure := func(f experiment.Figure) error {
		if *format == "csv" {
			return experiment.WriteCSV(os.Stdout, f)
		}
		return experiment.WriteTable(os.Stdout, f)
	}
	writeFigures := func(fs []experiment.Figure, err error) error {
		if err != nil {
			return err
		}
		for _, f := range fs {
			if err := writeFigure(f); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	writeSingle := func(f experiment.Figure, err error) error {
		if err != nil {
			return err
		}
		if err := writeFigure(f); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	runners := map[string]func() error{
		"datasets": func() error {
			rows, err := cfg.DatasetStatsTable()
			if err != nil {
				return err
			}
			if err := experiment.WriteDatasetStats(os.Stdout, rows); err != nil {
				return err
			}
			fmt.Println()
			return nil
		},
		"fig1a":       func() error { f, err := cfg.Fig1a(); return writeSingle(f, err) },
		"fig1b":       func() error { f, err := cfg.Fig1b(); return writeSingle(f, err) },
		"fig2a":       func() error { f, err := cfg.Fig2a(); return writeSingle(f, err) },
		"fig2b":       func() error { f, err := cfg.Fig2b(); return writeSingle(f, err) },
		"fig3counts":  func() error { return writeFigures(cfg.Fig3Counts()) },
		"fig3quality": func() error { return writeFigures(cfg.Fig3Quality()) },
		"fig4":        func() error { f, err := cfg.Fig4(); return writeSingle(f, err) },
		"corollary1":  func() error { f, err := cfg.Corollary1(); return writeSingle(f, err) },
		"svtratio":    func() error { f, err := cfg.SVTCombineRatio(); return writeSingle(f, err) },
		"ties":        func() error { f, err := cfg.TieProbability(); return writeSingle(f, err) },
		"lemma5":      func() error { f, err := cfg.Lemma5Coverage(); return writeSingle(f, err) },
		"audit": func() error {
			rows, err := cfg.PrivacyAudit()
			if err != nil {
				return err
			}
			if err := experiment.WritePrivacyAudit(os.Stdout, rows); err != nil {
				return err
			}
			fmt.Println()
			return nil
		},
		"alignment": func() error {
			rows, err := cfg.AlignmentVerification()
			if err != nil {
				return err
			}
			if err := experiment.WriteAlignment(os.Stdout, rows); err != nil {
				return err
			}
			fmt.Println()
			return nil
		},
	}
	order := []string{"datasets", "fig1a", "fig1b", "fig2a", "fig2b", "fig3counts", "fig3quality", "fig4",
		"corollary1", "svtratio", "ties", "lemma5", "audit", "alignment"}

	requested := strings.Split(*experimentsFlag, ",")
	if *experimentsFlag == "all" {
		requested = order
	}
	for _, name := range requested {
		name = strings.TrimSpace(strings.ToLower(name))
		if name == "" {
			continue
		}
		runner, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(order, ", "))
		}
		if err := runner(); err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
	}
	return nil
}
