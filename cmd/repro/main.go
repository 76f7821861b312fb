// Command repro regenerates every table and figure of the paper in one run:
// the §IV-A curation funnel, Table I, Figure 2, Figure 3, and Table II.
//
// Usage:
//
//	repro [-scale 0.25] [-seed 1] [-evaln 10] [-problems 0] [-skip-eval] [-workers 0]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"freehw/internal/core"
	"freehw/internal/curation"
	"freehw/internal/veval"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "repro:", err)
		}
		os.Exit(1)
	}
}

// run is main with its arguments and streams passed in: the tables and
// figures go to stdout, progress and flag errors to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "repro: ", 0)
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Float64("scale", 0.25, "world scale (1.0 = 1:100 of the paper's GitHub snapshot)")
		seed     = fs.Int64("seed", 1, "experiment seed")
		evalN    = fs.Int("evaln", 10, "samples per VerilogEval problem")
		problems = fs.Int("problems", 0, "cap on problem count (0 = all 156)")
		skipEval = fs.Bool("skip-eval", false, "skip the (slow) Table II evaluation")
		skipFig3 = fs.Bool("skip-fig3", false, "skip the Figure 3 copyright benchmark")
		workers  = fs.Int("workers", 0, "worker goroutines for parallel stages (0 = GOMAXPROCS); results are identical for any value")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.EvalN = *evalN
	cfg.EvalProblems = *problems
	cfg.Workers = *workers

	start := time.Now()
	logger.Printf("building world at scale %.2f and scraping the simulated GitHub...", *scale)
	e, err := core.New(cfg)
	if err != nil {
		return err
	}
	logger.Printf("scrape: %d repos via %d API requests (%d date-window splits)",
		e.ScrapeStats.Repos, e.ScrapeStats.Requests, e.ScrapeStats.WindowSplits)

	fmt.Fprintln(stdout, "\n===== Funnel (paper §IV-A) =====")
	fmt.Fprint(stdout, e.FreeSet.FunnelReport(cfg.Scale))

	fmt.Fprintln(stdout, "\n===== Table I: dataset comparison =====")
	rows := curation.PriorWorkRows()
	rows = append(rows, curation.PaperFreeSetRow(), e.FreeSet.FreeSetRow("FreeSet (measured)"))
	fmt.Fprint(stdout, curation.RenderTableI(rows))

	fmt.Fprintln(stdout, "\n===== Figure 2: file-length distribution =====")
	fmt.Fprint(stdout, curation.Render(
		[]string{"FreeSet", "VeriGen-like"},
		[]curation.Histogram{
			curation.LengthHistogram(e.FreeSet.Texts()),
			curation.LengthHistogram(e.VeriGenLike.Texts()),
		}))

	logger.Printf("training the model zoo...")
	zoo, err := e.BuildZoo(core.DefaultZoo())
	if err != nil {
		return err
	}
	for _, name := range zoo.Order {
		logger.Printf("  %s", zoo.Reports[name])
	}

	if !*skipFig3 {
		fmt.Fprintln(stdout, "\n===== Figure 3: hardware copyright infringement rates =====")
		points := e.RunCopyrightBenchmark(zoo)
		fmt.Fprint(stdout, core.RenderFigure3(points))
		fmt.Fprintln(stdout, "paper: VeriGen 9%->15% over base; CodeV above base; FreeV 3% (lowest tuned, +1pt over base Llama)")
	}

	if !*skipEval {
		fmt.Fprintln(stdout, "\n===== Table II: VerilogEval =====")
		var outcomes []core.EvalOutcome
		for _, name := range []string{"Llama-3.1-8B-Instruct", "FreeV-Llama3.1"} {
			logger.Printf("evaluating %s on %d problems x %d samples x 2 temps...",
				name, nOr156(*problems), *evalN)
			outcomes = append(outcomes, e.RunVerilogEval(zoo.Models[name]))
		}
		fmt.Fprint(stdout, core.TableII(outcomes))
		for _, o := range outcomes {
			fmt.Fprintf(stdout, "  %s: solved %d/%d problems (best temp %.1f)\n",
				o.Model, o.Solved, o.ProblemsTotal, o.BestTemp)
		}
	}

	logger.Printf("done in %s", time.Since(start).Round(time.Second))
	return nil
}

func nOr156(n int) int {
	if n <= 0 {
		return veval.SuiteSize
	}
	return n
}
