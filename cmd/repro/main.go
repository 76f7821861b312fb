// Command repro prints what the paper prints. Sections are named after the
// flags and run in the order given; with none named it prints the five
// artefacts of the paper:
//
//	funnel     the §IV-A curation funnel
//	table1     Table I, the dataset comparison
//	fig2       Figure 2, file-length distributions
//	fig3       Figure 3, copyright-infringement rates over the model zoo
//	table2     Table II, VerilogEval pass@k of the base model and FreeV
//	train      §III-E: both training reports with held-out CE; saves to -out
//	ablations  A1 funnel stages, A2 4-bit quantization, A3 training budget
//
// Usage:
//
//	repro [-scale 0.25] [-seed 1] [-evaln 10] [-problems 0] [-workers 0]
//	      [-model file.lm [-v]] [-out models] [-quant 0] [section ...]
//
// With -model, fig3 and table2 probe that saved model instead of the zoo. A
// run trains only the models its sections need; stdout is the same for any
// -workers.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"

	"freehw/internal/core"
	"freehw/internal/curation"
	"freehw/internal/lm"
	"freehw/internal/similarity"
	"freehw/internal/training"
	"freehw/internal/veval"
)

// The two models Table II measures and train saves: the base and FreeV.
const baseModel, freeV = "Llama-3.1-8B-Instruct", "FreeV-Llama3.1"

var sections = map[string]func(*runner) error{
	"funnel":    (*runner).funnel,
	"table1":    (*runner).table1,
	"fig2":      (*runner).fig2,
	"fig3":      (*runner).fig3,
	"table2":    (*runner).table2,
	"train":     (*runner).train,
	"ablations": (*runner).ablations,
}

// runner is what the sections share: the experiment, the models trained for
// this run, and where to print.
type runner struct {
	e     *core.Experiment
	zoo   *core.Zoo // the models this run's sections need, trained
	model *lm.Model // the -model file; nil when none was given
	out   string    // -out
	v     bool      // -v

	stdout io.Writer
	logger *log.Logger
}

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
	r := &runner{stdout: stdout, logger: log.New(stderr, "repro: ", 0)}
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := core.DefaultConfig()
	fs.Float64Var(&cfg.Scale, "scale", cfg.Scale, "world scale (1.0 = 1:100 of the paper's GitHub snapshot)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "experiment seed")
	fs.IntVar(&cfg.EvalN, "evaln", cfg.EvalN, "samples per VerilogEval problem")
	fs.IntVar(&cfg.EvalProblems, "problems", 0, "cap on problem count (0 = all 156)")
	fs.IntVar(&cfg.Workers, "workers", 0, "worker goroutines for parallel stages (0 = GOMAXPROCS); results are identical for any value")
	fs.IntVar(&cfg.Train.QuantBits, "quant", 0, "quantize trained models to n bits (paper: 4)")
	modelPath := fs.String("model", "", "saved model file (from train) for fig3 and table2 to probe instead of the zoo")
	fs.StringVar(&r.out, "out", "models", "directory train saves the models into")
	fs.BoolVar(&r.v, "v", false, "with -model, fig3 prints each violation")

	// Flags and section names may interleave: `train -out dir`.
	var names []string
	for rest := args; ; {
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() == 0 {
			break
		}
		names, rest = append(names, fs.Arg(0)), fs.Args()[1:]
	}
	if len(names) == 0 {
		names = []string{"funnel", "table1", "fig2", "fig3", "table2"}
	}
	for _, name := range names {
		if sections[name] == nil {
			return fmt.Errorf("unknown section %q (sections: funnel table1 fig2 fig3 table2 train ablations)", name)
		}
	}
	if *modelPath != "" {
		data, err := os.ReadFile(*modelPath)
		if err != nil {
			return err
		}
		if r.model, err = lm.Load(bytes.NewReader(data)); err != nil {
			return fmt.Errorf("%s: %w", *modelPath, err)
		}
	}

	r.logger.Printf("building world at scale %.2f and scraping the simulated GitHub...", cfg.Scale)
	var err error
	if r.e, err = core.New(cfg); err != nil {
		return err
	}
	r.logger.Printf("scrape: %d repos via %d API requests (%d date-window splits)",
		r.e.ScrapeStats.Repos, r.e.ScrapeStats.Requests, r.e.ScrapeStats.WindowSplits)

	// A zoo model depends on nothing but its spec and its base, so a subset
	// of the zoo trains the same models the whole zoo would.
	has := func(name string) bool { return slices.Contains(names, name) }
	var specs []core.ModelSpec
	if has("fig3") && r.model == nil {
		specs = core.DefaultZoo()
	} else if has("train") || has("ablations") || has("table2") && r.model == nil {
		for _, spec := range core.DefaultZoo() {
			if spec.Name == baseModel || spec.Name == freeV {
				specs = append(specs, spec)
			}
		}
	}
	r.logger.Printf("training %d models...", len(specs))
	if r.zoo, err = r.e.BuildZoo(specs); err != nil {
		return err
	}

	for _, name := range names {
		if err := sections[name](r); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func (r *runner) heading(title string) {
	fmt.Fprintf(r.stdout, "\n===== %s =====\n", title)
}

// bench is the copyright benchmark's configuration, bounded by -workers.
func (r *runner) bench() similarity.BenchmarkConfig {
	cfg := r.e.Cfg.Bench
	cfg.Workers = r.e.Cfg.Workers
	return cfg
}

func (r *runner) funnel() error {
	r.heading("Funnel (paper §IV-A)")
	fmt.Fprint(r.stdout, r.e.FreeSet.FunnelReport(r.e.Cfg.Scale))
	return nil
}

func (r *runner) table1() error {
	r.heading("Table I: dataset comparison")
	rows := curation.PriorWorkRows()
	rows = append(rows, curation.PaperFreeSetRow(), r.e.FreeSet.FreeSetRow("FreeSet (measured)"))
	fmt.Fprint(r.stdout, curation.RenderTableI(rows))
	return nil
}

func (r *runner) fig2() error {
	r.heading("Figure 2: file-length distribution")
	fmt.Fprint(r.stdout, curation.Render([]string{"FreeSet", "VeriGen-like"}, []curation.Histogram{
		curation.LengthHistogram(r.e.FreeSet.Texts()),
		curation.LengthHistogram(r.e.VeriGenLike.Texts()),
	}))
	return nil
}

// fig3 probes every zoo model, or the -model file alone, with prompts cut from
// protected files; a completion scoring ≥ 0.8 against them violates (§III-A).
func (r *runner) fig3() error {
	r.heading("Figure 3: hardware copyright infringement rates")
	if m := r.model; m != nil {
		rep := similarity.RunBenchmark(m.Name, m, r.e.ProtCorpus, r.e.Prompts, r.bench())
		fmt.Fprintf(r.stdout, "%s: %d/%d violations (%.1f%%)\n", m.Name, rep.NumViolations, rep.NumPrompts, 100*rep.ViolationRate())
		for _, res := range rep.Results {
			if r.v && res.Violation {
				fmt.Fprintf(r.stdout, "  prompt %s -> best %s (%.3f)\n", res.Prompt.SourceName, res.Best.Name, res.Best.Score)
			}
		}
	} else {
		fmt.Fprint(r.stdout, core.RenderFigure3(r.e.RunCopyrightBenchmark(r.zoo)))
	}
	fmt.Fprintln(r.stdout, "paper: VeriGen 9%->15% over base; CodeV above base; FreeV 3% (lowest tuned, +1pt over base Llama)")
	return nil
}

// table2 grades the base model and FreeV, or the -model file alone: -evaln
// samples per problem at temperatures 0.2 and 0.8, the better kept (§III-E2).
func (r *runner) table2() error {
	r.heading("Table II: VerilogEval")
	models := []*lm.Model{r.model}
	if r.model == nil {
		models = []*lm.Model{r.zoo.Models[baseModel], r.zoo.Models[freeV]}
	}
	var outcomes []core.EvalOutcome
	for _, m := range models {
		r.logger.Printf("evaluating %s...", m.Name)
		outcomes = append(outcomes, r.e.RunVerilogEval(m))
	}
	fmt.Fprint(r.stdout, core.TableII(outcomes))
	for _, o := range outcomes {
		fmt.Fprintf(r.stdout, "  %s: solved %d/%d problems (best temp %.1f)\n",
			o.Model, o.Solved, o.ProblemsTotal, o.BestTemp)
	}
	return nil
}

// train reports the two training runs, with cross-entropy on the last twenty
// FreeSet files, and saves each model into -out for a later -model.
func (r *runner) train() error {
	r.heading("Training (paper §III-E)")
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	heldOut := r.e.FreeSet.Texts()
	heldOut = heldOut[max(0, len(heldOut)-20):]
	for _, name := range []string{baseModel, freeV} {
		rep := r.zoo.Reports[name]
		rep.HeldOutCE = training.HeldOutCE(r.zoo.Models[name], heldOut)
		fmt.Fprintln(r.stdout, rep)
		path := filepath.Join(r.out, name+".lm")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := errors.Join(r.zoo.Models[name].Save(f), f.Close()); err != nil {
			return err
		}
		r.logger.Printf("saved %s -> %s", name, path)
	}
	return nil
}

// ablations: what each funnel stage removes (A1), what 4-bit counts cost on
// 40 problems (A2, §III-E's inference caveat), and pass@k and violations by
// continual-pre-training budget (A3). Sample counts are fixed, not -evaln.
func (r *runner) ablations() error {
	e, workers := r.e, r.e.Cfg.Workers
	problems := veval.BuildSuite()[:40]

	r.heading("Ablation A1: funnel stages")
	for _, m := range []struct {
		name string
		mask curation.StageMask
	}{
		{"full pipeline", curation.StageMask{}},
		{"no license gate", curation.StageMask{SkipLicense: true}},
		{"no dedup", curation.StageMask{SkipDedup: true}},
		{"no copyright screen", curation.StageMask{SkipCopyright: true}},
		{"no syntax check", curation.StageMask{SkipSyntax: true}},
	} {
		opt := curation.FreeSetOptions()
		opt.Mask, opt.Workers = m.mask, workers
		res := curation.Run(e.Repos, opt)
		fmt.Fprintf(r.stdout, "%-22s final=%6d bytes=%9d copyrightRemoved=%4d syntaxRemoved=%4d\n",
			m.name, res.FinalFiles, res.Bytes, res.CopyrightRemoved, res.SyntaxRemoved)
	}

	r.heading("Ablation A2: 4-bit quantization")
	full := r.zoo.Models[freeV]
	for _, m := range []*lm.Model{full, full.Quantize("FreeV-4bit", 4)} {
		res := veval.Evaluate(m.Name, m, problems, veval.EvalConfig{N: 4, Workers: workers})
		fmt.Fprintf(r.stdout, "%-16s pass@1=%.3f pass@4=%.3f\n", m.Name+":", res.PassAtK(1), res.PassAtK(4))
	}

	r.heading("Ablation A3: training budget sweep")
	for _, kb := range []int{60, 140, 280} {
		cfg := e.Cfg.Train
		cfg.MaxCorpusBytes = kb << 10
		tuned, _ := training.ContinualPretrain(r.zoo.Models[baseModel], fmt.Sprintf("freev-%dkb", kb), e.FreeSet.Texts(), cfg)
		res := veval.Evaluate(tuned.Name, tuned, problems, veval.EvalConfig{N: 6, Workers: workers})
		rep := similarity.RunBenchmark(tuned.Name, tuned, e.ProtCorpus, e.Prompts, r.bench())
		fmt.Fprintf(r.stdout, "budget %4d KB: pass@1=%.3f pass@6=%.3f violations=%.1f%%\n",
			kb, res.PassAtK(1), res.PassAtK(6), 100*rep.ViolationRate())
	}
	return nil
}
