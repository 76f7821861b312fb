package core

import (
	"strings"
	"sync"
	"testing"

	"freehw/internal/license"
	"freehw/internal/training"
	"freehw/internal/veval"
	"freehw/internal/vlog"
)

var (
	smallOnce sync.Once
	smallExp  *Experiment
	smallErr  error
)

// smallExperiment returns a fast, statistically meaningful environment.
// The experiment is immutable after New, so it is built once and shared by
// every test that needs it.
func smallExperiment(t testing.TB) *Experiment {
	t.Helper()
	smallOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Scale = 0.1
		cfg.EvalN = 4
		cfg.EvalProblems = 24
		smallExp, smallErr = New(cfg)
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallExp
}

func TestExperimentAssembly(t *testing.T) {
	e := smallExperiment(t)
	if e.FreeSet.FinalFiles == 0 {
		t.Fatal("empty FreeSet")
	}
	if e.VeriGenLike.FinalFiles == 0 || e.DirtyLicensed.FinalFiles == 0 {
		t.Fatal("comparison pipelines empty")
	}
	if len(e.Prompts) == 0 {
		t.Fatal("no benchmark prompts")
	}
	if e.ProtCorpus.Len() != len(e.World.Protected) {
		t.Fatal("protected corpus size mismatch")
	}
	if e.ScrapeStats.Requests == 0 {
		t.Fatal("scrape made no API requests")
	}
	// The uncurated web slice must exclude detectably protected files.
	for _, f := range e.WebFiles {
		if license.ScanHeader(vlog.HeaderComment(f)).Protected {
			t.Fatal("protected file leaked into the web slice")
		}
	}
}

func TestZooTrainingAndStructure(t *testing.T) {
	e := smallExperiment(t)
	zoo, err := e.BuildZoo([]ModelSpec{
		{Name: "base-x", WebFiles: 40, LeakFiles: 1},
		{Name: "tuned-x", Base: "base-x", Dataset: "freeset", DatasetBytes: 60 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, tuned := zoo.Models["base-x"], zoo.Models["tuned-x"]
	if base.Contexts() >= tuned.Contexts() {
		t.Fatal("continual pre-training should grow the model")
	}
	if zoo.Reports["tuned-x"].Docs == 0 {
		t.Fatal("tuned model trained on nothing")
	}
	// Unknown dataset and missing base must fail cleanly.
	if _, err := e.BuildZoo([]ModelSpec{{Name: "t", Base: "missing", Dataset: "freeset"}}); err == nil {
		t.Fatal("missing base must error")
	}
	if _, err := e.BuildZoo([]ModelSpec{{Name: "b"}, {Name: "t", Base: "b", Dataset: "nope"}}); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

// The paper's central causal claim at small scale: a model fine-tuned on a
// copyright-screened dataset violates no more than its base; the same base
// fine-tuned on the unscreened pipeline violates more.
func TestCopyrightCausalStructure(t *testing.T) {
	e := smallExperiment(t)
	zoo, err := e.BuildZoo([]ModelSpec{
		{Name: "base-m", WebFiles: 60, LeakFiles: 1},
		{Name: "clean-m", Base: "base-m", Dataset: "freeset", DatasetBytes: 120 << 10},
		{Name: "dirty-m", Base: "base-m", Dataset: "verigen", DatasetBytes: 120 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	points := e.RunCopyrightBenchmark(zoo)
	rates := map[string]float64{}
	for _, p := range points {
		rates[p.Model] = p.ViolationRate
	}
	if rates["clean-m"] > rates["base-m"]+0.031 {
		t.Errorf("clean fine-tuning raised violations: base %.3f clean %.3f", rates["base-m"], rates["clean-m"])
	}
	if rates["dirty-m"] < rates["clean-m"] {
		t.Errorf("dirty fine-tuning should violate at least as much as clean: dirty %.3f clean %.3f",
			rates["dirty-m"], rates["clean-m"])
	}
	out := RenderFigure3(points)
	if !strings.Contains(out, "base-m") || !strings.Contains(out, "rate") {
		t.Fatalf("figure rendering broken:\n%s", out)
	}
}

// Functional improvement: continual pre-training on FreeSet must not hurt,
// and generally helps, VerilogEval pass rates.
func TestVerilogEvalImprovement(t *testing.T) {
	e := smallExperiment(t)
	zoo, err := e.BuildZoo([]ModelSpec{
		{Name: "base-e", WebFiles: 60},
		{Name: "freev-e", Base: "base-e", Dataset: "freeset", DatasetBytes: 150 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	baseOut := e.RunVerilogEval(zoo.Models["base-e"])
	freevOut := e.RunVerilogEval(zoo.Models["freev-e"])
	if freevOut.Pass10 < baseOut.Pass10 {
		t.Errorf("FreeSet tuning reduced pass@10: %.3f -> %.3f", baseOut.Pass10, freevOut.Pass10)
	}
	table := TableII([]EvalOutcome{baseOut, freevOut})
	if !strings.Contains(table, "base-e") || !strings.Contains(table, "GPT-4") {
		t.Fatalf("Table II rendering broken:\n%s", table)
	}
}

// A model evaluated at the suite's two temperatures leaves with its own:
// what a later benchmark samples at must not depend on whether Table II
// ran first.
func TestVerilogEvalRestoresTemperature(t *testing.T) {
	e := smallExperiment(t)
	cfg := e.Cfg.Train
	cfg.LM.Temperature = 0.5
	m, _ := training.TrainBase("warm", e.Tok, e.General, nil, cfg)
	e.RunVerilogEval(m)
	if got := m.Config().Temperature; got != 0.5 {
		t.Fatalf("RunVerilogEval left the model at temperature %v, want the 0.5 it was built with", got)
	}
}

func TestLeakedForSpread(t *testing.T) {
	e := smallExperiment(t)
	spec := ModelSpec{Name: "spread-test", LeakFiles: 3}
	leaks := e.LeakedFor(spec)
	if len(leaks) != 3 {
		t.Fatalf("want 3 leaks, got %d", len(leaks))
	}
	seen := map[string]bool{}
	for _, l := range leaks {
		if seen[l] {
			t.Fatal("duplicate leak file")
		}
		seen[l] = true
	}
}

func TestDefaultZooShape(t *testing.T) {
	specs := DefaultZoo()
	byName := map[string]ModelSpec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	// Every tuned model's base must exist and precede it.
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Base != "" {
			if !seen[s.Base] {
				t.Fatalf("%s declared before its base %s", s.Name, s.Base)
			}
			if s.Dataset == "" {
				t.Fatalf("tuned model %s has no dataset", s.Name)
			}
		}
		seen[s.Name] = true
	}
	// FreeV must train on FreeSet; VeriGen on the unscreened pipeline.
	if byName["FreeV-Llama3.1"].Dataset != "freeset" {
		t.Fatal("FreeV must use FreeSet")
	}
	if byName["fine-tuned-codegen-6B-Verilog"].Dataset != "verigen" {
		t.Fatal("VeriGen model must use the unscreened pipeline")
	}
}

func TestSuiteCoverageOfFamilies(t *testing.T) {
	// The problem suite and corpus families must stay in sync: every
	// problem family must be generatable.
	problems := veval.BuildSuite()
	if len(problems) != veval.SuiteSize {
		t.Fatalf("suite size %d", len(problems))
	}
}

// LeakedFor exposes the leak-file names a spec would receive (diagnostics).
func (e *Experiment) LeakedFor(spec ModelSpec) []string {
	var out []string
	for _, idx := range e.leakIndices(spec) {
		out = append(out, e.World.Protected[e.World.PlacedProtected[idx]].Name)
	}
	return out
}
