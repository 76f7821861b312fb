// Package core orchestrates the paper's full framework (Figure 1): the
// simulated GitHub world, the scraping client, the FreeSet curation funnel,
// base-model pre-training and continual pre-training (FreeV), the copyright
// infringement benchmark (Figure 3), and the VerilogEval-style functional
// evaluation (Table II).
package core

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"freehw/internal/corpus"
	"freehw/internal/curation"
	"freehw/internal/dedup"
	"freehw/internal/gitsim"
	"freehw/internal/lm"
	"freehw/internal/par"
	"freehw/internal/similarity"
	"freehw/internal/tokenizer"
	"freehw/internal/training"
	"freehw/internal/vcache"
	"freehw/internal/veval"
)

// Config sizes the full experiment.
type Config struct {
	Seed  int64
	Scale float64 // world scale; 1.0 = 1:100 of the paper's GitHub snapshot
	// Train bounds every model's training budget.
	Train training.Config
	// Bench is the copyright benchmark configuration.
	Bench similarity.BenchmarkConfig
	// EvalN is the sample count per VerilogEval problem.
	EvalN int
	// EvalProblems caps the problem count (0 = the full 156 suite).
	EvalProblems int
	// GitRateLimit enables server-side throttling during the scrape.
	GitRateLimit int
	// Workers bounds concurrency everywhere (0 = GOMAXPROCS). Every result
	// is identical for any worker count; see the determinism tests.
	Workers int
	// NoCache disables the process-wide content-hash verdict cache during
	// curation. Results are identical either way; repeated experiments
	// over the same world are much faster with the cache on.
	NoCache bool
	// CacheBudget bounds the verdict cache's approximate resident bytes
	// (0 leaves the store unchanged, negative removes any bound). Results
	// are identical at any budget; only cache hit rates change.
	CacheBudget int64
}

// DefaultConfig returns the flagship configuration used by the benches.
func DefaultConfig() Config {
	return Config{
		Seed:  1,
		Scale: 0.25,
		Train: training.DefaultConfig(),
		Bench: similarity.DefaultBenchmarkConfig(),
		EvalN: 10,
	}
}

// Experiment is the assembled environment all experiments run against.
type Experiment struct {
	Cfg   Config
	World *corpus.World
	Repos []gitsim.RepoData

	FreeSet     *curation.Result
	VeriGenLike *curation.Result
	// DirtyLicensed is the license-gated pipeline WITHOUT the per-file
	// copyright screen — the pipeline prior works approximate.
	DirtyLicensed *curation.Result

	Tok      *tokenizer.Tokenizer
	General  []string
	WebFiles []string // every scraped .v file (uncurated pre-training pool)

	ProtCorpus *similarity.Snapshot
	Prompts    []similarity.Prompt

	ScrapeStats ScrapeStats
}

// ScrapeStats records scraper behavior for reports.
type ScrapeStats struct {
	Repos        int
	Requests     int64
	RateWaits    int64
	WindowSplits int64
}

// New builds the world, scrapes it through the simulated GitHub API, runs
// the curation pipelines, and prepares the copyright benchmark inputs.
func New(cfg Config) (*Experiment, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.25
	}
	if cfg.EvalN <= 0 {
		cfg.EvalN = 10
	}
	wcfg := corpus.DefaultConfig(cfg.Scale)
	wcfg.Seed = cfg.Seed
	world := corpus.BuildWorld(wcfg)

	srv := gitsim.NewServer(world, cfg.GitRateLimit, 50*time.Millisecond)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := gitsim.NewClient(ts.URL)
	repos, err := client.ScrapeVerilog(context.Background(),
		time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		return nil, fmt.Errorf("core: scrape: %w", err)
	}

	e := &Experiment{Cfg: cfg, World: world, Repos: repos}
	e.ScrapeStats = ScrapeStats{
		Repos:        len(repos),
		Requests:     client.Requests,
		RateWaits:    client.RateWaits,
		WindowSplits: client.WindowSplit,
	}

	// One shared extraction feeds all three funnel variants: per-file
	// shingles, copyright scans, and syntax verdicts are computed once
	// (concurrently) instead of once per pipeline, and the three funnels
	// themselves run in parallel. The worker budget is split between the
	// two levels so total concurrency stays within cfg.Workers.
	dopt := dedup.Options{Threshold: 0.85, Seed: 1}
	var store *vcache.Store
	if !cfg.NoCache {
		store = vcache.Shared(dopt)
		if cfg.CacheBudget != 0 {
			store.SetBudget(max(cfg.CacheBudget, 0))
		}
	}
	ex := curation.ExtractWithCache(repos, dopt, cfg.Workers, store)
	funnelOpts := []curation.Options{
		curation.FreeSetOptions(),
		curation.VeriGenLikeOptions(),
		{Mask: curation.StageMask{SkipCopyright: true}},
	}
	outerWorkers, innerWorkers := par.Split(cfg.Workers, len(funnelOpts))
	funnels := par.Map(outerWorkers, len(funnelOpts), func(i int) *curation.Result {
		opt := funnelOpts[i]
		opt.Workers = innerWorkers
		return curation.RunExtracted(ex, opt)
	})
	e.FreeSet, e.VeriGenLike, e.DirtyLicensed = funnels[0], funnels[1], funnels[2]

	// Pre-training pools. The web slice excludes detectably protected files
	// so that each base model's contamination is exactly its LeakFiles knob
	// (foundation-model labs do run coarse license filters on pre-training
	// code; the residual exposure is what LeakFiles calibrates). The header
	// scans are the extraction's memoized ones, shared with the funnels.
	e.General = corpus.GeneralText(cfg.Seed+11, 400)
	files := ex.Files()
	par.ForEach(cfg.Workers, len(files), func(i int) {
		files[i].HeaderScan()
	})
	for _, f := range files {
		if f.HeaderScan().Protected {
			continue
		}
		e.WebFiles = append(e.WebFiles, f.Record().Content)
	}

	// The copyright benchmark corpus: comment-stripped bodies of the full
	// protected pool; prompts are drawn from files that exist in the world
	// (the paper's 2K-file corpus was itself collected from GitHub).
	names := make([]string, len(world.Protected))
	texts := make([]string, len(world.Protected))
	for i, pf := range world.Protected {
		names[i] = pf.Name
		texts[i] = pf.Body
	}
	e.ProtCorpus = similarity.SealCorpus(names, texts, cfg.Workers)

	var promptNames, promptTexts []string
	for _, pi := range world.PlacedProtected {
		promptNames = append(promptNames, world.Protected[pi].Name)
		promptTexts = append(promptTexts, world.Protected[pi].Source)
	}
	e.Prompts = similarity.BuildPrompts(promptNames, promptTexts, cfg.Bench)

	// One shared tokenizer trained on the mixed distribution, standing in
	// for the fixed Llama tokenizer all the paper's models inherit.
	e.Tok = training.TrainTokenizer([][]string{
		e.General,
		training.Sample(e.WebFiles, 4<<10, 256<<10),
	}, cfg.Train)
	return e, nil
}

// ---- Model zoo (Figure 3) ----

// ModelSpec declares one zoo model's training mix. Base models sample an
// uncurated web slice (their pre-training exposure); tuned models start
// from their base and continually pre-train on a dataset pipeline.
type ModelSpec struct {
	Name string
	// Base is "" for foundation models, else the base model's name.
	Base string
	// WebFiles is the number of uncurated world files in pre-training.
	WebFiles int
	// LeakFiles adds that many placed protected files to pre-training,
	// calibrating the documented pre-training exposure of each foundation
	// model family (code-heavy corpora saw more vendor IP).
	LeakFiles int
	// Dataset selects the fine-tuning pipeline: "", "freeset",
	// "dirty" (license gate only), "verigen" (no gates, ≤2022).
	Dataset string
	// DatasetBytes overrides the continual pre-training sample budget.
	DatasetBytes int
}

// DefaultZoo mirrors Figure 3's model set. LeakFiles and sample budgets are
// the calibration knobs; the causal structure
// (dirty datasets raise violation rates, FreeSet does not) is fixed.
func DefaultZoo() []ModelSpec {
	return []ModelSpec{
		{Name: "codegen-6B-multi", WebFiles: 150, LeakFiles: 1},
		{Name: "fine-tuned-codegen-6B-Verilog", Base: "codegen-6B-multi", Dataset: "verigen", DatasetBytes: 100 << 10},
		{Name: "deepseek-coder-6.7b-base", WebFiles: 140, LeakFiles: 1},
		{Name: "RTLCoder-Deepseek-v1.1", Base: "deepseek-coder-6.7b-base", Dataset: "dirty", DatasetBytes: 70 << 10},
		{Name: "CodeV-DS-6.7B", Base: "deepseek-coder-6.7b-base", Dataset: "dirty", DatasetBytes: 150 << 10},
		{Name: "OriGen", Base: "deepseek-coder-6.7b-base", Dataset: "dirty", DatasetBytes: 50 << 10},
		{Name: "Llama-3.1-8B-Instruct", WebFiles: 200, LeakFiles: 1},
		{Name: "FreeV-Llama3.1", Base: "Llama-3.1-8B-Instruct", Dataset: "freeset", DatasetBytes: 255 << 10},
	}
}

// Zoo is a built model set.
type Zoo struct {
	Models  map[string]*lm.Model
	Order   []string
	Reports map[string]training.Report
	Specs   map[string]ModelSpec
}

// BuildZoo trains every model in specs. Training runs are independent
// within a dependency level, so models train concurrently in base-first
// topological waves: wave 0 is every foundation model, wave 1 every model
// whose base trained in an earlier wave, and so on. Results are identical
// to sequential training (each run depends only on its spec and base), and
// z.Order preserves the spec order regardless of wave scheduling.
func (e *Experiment) BuildZoo(specs []ModelSpec) (*Zoo, error) {
	z := &Zoo{
		Models:  map[string]*lm.Model{},
		Reports: map[string]training.Report{},
		Specs:   map[string]ModelSpec{},
	}
	for _, spec := range specs {
		if _, dup := z.Specs[spec.Name]; dup {
			return nil, fmt.Errorf("core: duplicate model %q", spec.Name)
		}
		z.Specs[spec.Name] = spec
	}

	type trained struct {
		m   *lm.Model
		rep training.Report
		err error
	}
	pending := make([]ModelSpec, len(specs))
	copy(pending, specs)
	for len(pending) > 0 {
		// Collect the next wave: every pending spec whose base is ready.
		var wave, rest []ModelSpec
		for _, spec := range pending {
			if spec.Base == "" || z.Models[spec.Base] != nil {
				wave = append(wave, spec)
			} else {
				rest = append(rest, spec)
			}
		}
		if len(wave) == 0 {
			// No progress: the first stuck spec names a base that is
			// neither built nor buildable before it.
			spec := rest[0]
			return nil, fmt.Errorf("core: base model %q not built before %q", spec.Base, spec.Name)
		}
		results := par.MapSlice(e.Cfg.Workers, wave, func(spec ModelSpec) trained {
			m, rep, err := e.trainModel(z, spec)
			return trained{m: m, rep: rep, err: err}
		})
		for i, r := range results {
			if r.err != nil {
				return nil, r.err
			}
			z.Models[wave[i].Name] = r.m
			z.Reports[wave[i].Name] = r.rep
		}
		pending = rest
	}
	for _, spec := range specs {
		z.Order = append(z.Order, spec.Name)
	}
	return z, nil
}

func (e *Experiment) trainModel(z *Zoo, spec ModelSpec) (*lm.Model, training.Report, error) {
	cfg := e.Cfg.Train
	if spec.Base == "" {
		web := e.webSlice(spec)
		return trainBaseModel(spec.Name, e.Tok, e.General, web, cfg)
	}
	base, ok := z.Models[spec.Base]
	if !ok {
		return nil, training.Report{}, fmt.Errorf("core: base model %q not built before %q", spec.Base, spec.Name)
	}
	var dataset []string
	switch spec.Dataset {
	case "freeset":
		dataset = e.FreeSet.Texts()
	case "dirty":
		dataset = e.DirtyLicensed.Texts()
	case "verigen":
		dataset = e.VeriGenLike.Texts()
	default:
		return nil, training.Report{}, fmt.Errorf("core: model %q has no dataset", spec.Name)
	}
	if spec.DatasetBytes > 0 {
		cfg.MaxCorpusBytes = spec.DatasetBytes
	}
	m, rep := training.ContinualPretrain(base, spec.Name, dataset, cfg)
	return m, rep, nil
}

func trainBaseModel(name string, tok *tokenizer.Tokenizer, general, web []string, cfg training.Config) (*lm.Model, training.Report, error) {
	m, rep := training.TrainBase(name, tok, general, web, cfg)
	return m, rep, nil
}

// leakIndices selects which placed protected files a spec's pre-training
// leaks: spread across the placed set (distinct per base model) so
// base-model exposure is not concentrated on the benchmark's prompt head.
// Returns indices into World.PlacedProtected, in selection order.
func (e *Experiment) leakIndices(spec ModelSpec) []int {
	placed := e.World.PlacedProtected
	if spec.LeakFiles <= 0 || len(placed) == 0 {
		return nil
	}
	step := len(placed)/spec.LeakFiles | 1
	off := int(hashName(spec.Name)) % len(placed)
	var out []int
	seen := map[int]bool{}
	for i := 0; len(seen) < spec.LeakFiles && i < len(placed); i++ {
		idx := (off + i*step) % len(placed)
		if seen[idx] {
			idx = (idx + 1) % len(placed)
		}
		if seen[idx] {
			continue
		}
		seen[idx] = true
		out = append(out, idx)
	}
	return out
}

// webSlice assembles a base model's uncurated pre-training Verilog.
func (e *Experiment) webSlice(spec ModelSpec) []string {
	var out []string
	if spec.WebFiles > 0 && len(e.WebFiles) > 0 {
		stride := len(e.WebFiles) / spec.WebFiles
		if stride < 1 {
			stride = 1
		}
		// Offset by a hash of the name so different bases see different slices.
		off := int(hashName(spec.Name)) % stride
		for i := off; i < len(e.WebFiles) && len(out) < spec.WebFiles; i += stride {
			out = append(out, e.WebFiles[i])
		}
	}
	for _, idx := range e.leakIndices(spec) {
		out = append(out, e.World.Protected[e.World.PlacedProtected[idx]].Source)
	}
	return out
}

func hashName(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// ---- Figure 3: copyright benchmark ----

// CopyrightPoint is one bar of Figure 3.
type CopyrightPoint struct {
	Model         string
	Base          string // "" for base models
	ViolationRate float64
	Violations    int
	Prompts       int
}

// RunCopyrightBenchmark probes every zoo model with the protected prompts.
// Models are independent, so they fan out across workers, and each model's
// prompts fan out again inside RunBenchmark — with the two levels split so
// total concurrency stays within Cfg.Workers, not Workers². An explicitly
// set Cfg.Bench.Workers overrides the inner share (opting out of the
// bound: concurrency is then up to outer x Bench.Workers). The points keep
// zoo order.
func (e *Experiment) RunCopyrightBenchmark(z *Zoo) []CopyrightPoint {
	outer, inner := par.Split(e.Cfg.Workers, len(z.Order))
	bench := e.Cfg.Bench
	if bench.Workers == 0 {
		bench.Workers = inner
	}
	return par.MapSlice(outer, z.Order, func(name string) CopyrightPoint {
		m := z.Models[name]
		rep := similarity.RunBenchmark(name, m, e.ProtCorpus, e.Prompts, bench)
		return CopyrightPoint{
			Model:         name,
			Base:          z.Specs[name].Base,
			ViolationRate: rep.ViolationRate(),
			Violations:    rep.NumViolations,
			Prompts:       rep.NumPrompts,
		}
	})
}

// RenderFigure3 prints the violation-rate bars.
func RenderFigure3(points []CopyrightPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %-10s %10s  %s\n", "model", "kind", "violations", "rate")
	for _, p := range points {
		kind := "base"
		if p.Base != "" {
			kind = "tuned"
		}
		bar := strings.Repeat("#", int(p.ViolationRate*100+0.5))
		fmt.Fprintf(&sb, "%-32s %-10s %6d/%-4d %5.1f%% %s\n",
			p.Model, kind, p.Violations, p.Prompts, 100*p.ViolationRate, bar)
	}
	return sb.String()
}

// ---- Table II: functional evaluation ----

// EvalOutcome is one model's measured pass@k (best over temperatures, as
// the paper reports).
type EvalOutcome struct {
	Model                 string
	Pass1, Pass5, Pass10  float64
	BestTemp              float64
	Solved, ProblemsTotal int
}

// RunVerilogEval evaluates a model at temperatures 0.2 and 0.8 and keeps
// the better result per k (§III-E2). The model leaves with the temperature
// it came in with.
func (e *Experiment) RunVerilogEval(m *lm.Model) EvalOutcome {
	defer m.SetTemperature(m.Config().Temperature)
	problems := veval.BuildSuite()
	if e.Cfg.EvalProblems > 0 && e.Cfg.EvalProblems < len(problems) {
		problems = problems[:e.Cfg.EvalProblems]
	}
	cfg := veval.EvalConfig{N: e.Cfg.EvalN, MaxTokens: 768, Workers: e.Cfg.Workers}
	out := EvalOutcome{Model: m.Name, ProblemsTotal: len(problems)}
	for _, temp := range []float64{0.2, 0.8} {
		m.SetTemperature(temp)
		res := veval.Evaluate(m.Name, m, problems, cfg)
		p1, p5, p10 := res.PassAtK(1), res.PassAtK(5), res.PassAtK(10)
		if p1 > out.Pass1 {
			out.Pass1 = p1
		}
		if p5 > out.Pass5 {
			out.Pass5 = p5
		}
		if p10 > out.Pass10 {
			out.Pass10 = p10
			out.BestTemp = temp
			out.Solved = res.Solved()
		}
	}
	return out
}

// Rows renders measured outcomes alongside the paper's Table II.
func TableII(outcomes []EvalOutcome) string {
	rows := veval.PriorWorkRows()
	for _, o := range outcomes {
		rows = append(rows, veval.Row{
			Type: "This Work (measured)", Model: o.Model, OpenSource: "Yes", Size: "n-gram",
			Pass1: 100 * o.Pass1, Pass5: 100 * o.Pass5, Pass10: 100 * o.Pass10,
			Measured: true,
		})
	}
	return veval.RenderTableII(rows)
}
