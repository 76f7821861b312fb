package core

import (
	"reflect"
	"testing"

	"freehw/internal/curation"
	"freehw/internal/vcache"
	"freehw/internal/vlog"
)

// detConfig is a reduced configuration used to rebuild the experiment twice
// with different worker counts.
func detConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.08
	cfg.EvalN = 3
	cfg.EvalProblems = 16
	cfg.Workers = workers
	return cfg
}

var detZoo = []ModelSpec{
	{Name: "det-base", WebFiles: 50, LeakFiles: 1},
	{Name: "det-free", Base: "det-base", Dataset: "freeset", DatasetBytes: 80 << 10},
	{Name: "det-dirty", Base: "det-base", Dataset: "verigen", DatasetBytes: 80 << 10},
}

// The whole pipeline must produce byte-identical artifacts for workers=1
// and workers=N: funnel counts, the rendered Figure 3, and Table II.
func TestParallelDeterminism(t *testing.T) {
	type artifacts struct {
		freeSet, veriGen, dirty curation.Result
		keys                    [][]string // kept-file keys per funnel
		figure3                 string
		tableII                 string
	}
	run := func(workers int) artifacts {
		e, err := New(detConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		z, err := e.BuildZoo(detZoo)
		if err != nil {
			t.Fatal(err)
		}
		fig3 := RenderFigure3(e.RunCopyrightBenchmark(z))
		table := TableII([]EvalOutcome{e.RunVerilogEval(z.Models["det-free"])})
		strip := func(r *curation.Result) curation.Result {
			c := *r
			c.Files = nil // identity compared via keys instead
			c.CopyrightFindings = nil
			return c
		}
		a := artifacts{
			freeSet: strip(e.FreeSet),
			veriGen: strip(e.VeriGenLike),
			dirty:   strip(e.DirtyLicensed),
			keys:    [][]string{e.FreeSet.Keys(), e.VeriGenLike.Keys(), e.DirtyLicensed.Keys()},
			figure3: fig3,
			tableII: table,
		}
		return a
	}

	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial.keys, parallel.keys) {
		t.Error("kept-file keys diverged between worker counts")
	}
	if !reflect.DeepEqual(serial.freeSet, parallel.freeSet) {
		t.Errorf("FreeSet funnel diverged:\nserial   %+v\nparallel %+v", serial.freeSet, parallel.freeSet)
	}
	if !reflect.DeepEqual(serial.veriGen, parallel.veriGen) {
		t.Errorf("VeriGen-like funnel diverged:\nserial   %+v\nparallel %+v", serial.veriGen, parallel.veriGen)
	}
	if !reflect.DeepEqual(serial.dirty, parallel.dirty) {
		t.Errorf("DirtyLicensed funnel diverged:\nserial   %+v\nparallel %+v", serial.dirty, parallel.dirty)
	}
	if serial.figure3 != parallel.figure3 {
		t.Errorf("Figure 3 diverged:\nserial:\n%s\nparallel:\n%s", serial.figure3, parallel.figure3)
	}
	if serial.tableII != parallel.tableII {
		t.Errorf("Table II diverged:\nserial:\n%s\nparallel:\n%s", serial.tableII, parallel.tableII)
	}
}

// The whole pipeline must be byte-identical across verdict-cache
// temperatures, cache byte budgets (unbounded / tight / effectively zero),
// and the QuickCheck syntax pre-check on or off: kept file bytes, funnel
// counts, the rendered Figure 3, and Table II may not depend on whether
// per-file verdicts were computed or replayed from cache, on what the
// eviction clock dropped, or on which path decided a syntax verdict.
func TestCacheAndQuickCheckDeterminism(t *testing.T) {
	defer vcache.ResetShared() // budget variants mutate the shared store
	type artifacts struct {
		fileBytes []string // kept FreeSet file contents, in order
		keys      [][]string
		freeSet   curation.Result
		figure3   string
		tableII   string
	}
	run := func(noCache bool, budget int64, quickCheck bool) artifacts {
		if !quickCheck {
			vlog.SetQuickCheck(false)
			defer vlog.SetQuickCheck(true)
		}
		cfg := detConfig(4)
		cfg.NoCache = noCache
		cfg.CacheBudget = budget
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		z, err := e.BuildZoo(detZoo)
		if err != nil {
			t.Fatal(err)
		}
		strip := *e.FreeSet
		strip.Files = nil
		strip.CopyrightFindings = nil
		var contents []string
		for _, f := range e.FreeSet.Files {
			contents = append(contents, f.Content)
		}
		return artifacts{
			fileBytes: contents,
			keys:      [][]string{e.FreeSet.Keys(), e.VeriGenLike.Keys(), e.DirtyLicensed.Keys()},
			freeSet:   strip,
			figure3:   RenderFigure3(e.RunCopyrightBenchmark(z)),
			tableII:   TableII([]EvalOutcome{e.RunVerilogEval(z.Models["det-free"])}),
		}
	}

	base := run(true, 0, true) // no cache: the reference
	variants := []struct {
		name       string
		noCache    bool
		budget     int64
		quickCheck bool
	}{
		{"cache cold-or-warm", false, 0, true},
		{"cache warm", false, 0, true}, // shared store warmed by the previous run
		{"quickcheck off, cold", true, 0, false},
		{"budget tight", false, 256 << 10, true},
		{"budget zero", false, 1, true}, // every entry evicted on insert
		{"quickcheck off, budget tight", false, 256 << 10, false},
	}
	for _, v := range variants {
		got := run(v.noCache, v.budget, v.quickCheck)
		if !reflect.DeepEqual(base.fileBytes, got.fileBytes) {
			t.Errorf("%s: kept file bytes diverged", v.name)
		}
		if !reflect.DeepEqual(base.keys, got.keys) {
			t.Errorf("%s: kept-file keys diverged", v.name)
		}
		if !reflect.DeepEqual(base.freeSet, got.freeSet) {
			t.Errorf("%s: funnel counts diverged:\nbase %+v\ngot  %+v", v.name, base.freeSet, got.freeSet)
		}
		if base.figure3 != got.figure3 {
			t.Errorf("%s: Figure 3 diverged:\nbase:\n%s\ngot:\n%s", v.name, base.figure3, got.figure3)
		}
		if base.tableII != got.tableII {
			t.Errorf("%s: Table II diverged:\nbase:\n%s\ngot:\n%s", v.name, base.tableII, got.tableII)
		}
	}
}

// The curation funnel alone must keep the same files in the same order for
// any worker count, including copyright findings.
func TestCurationWorkerDeterminism(t *testing.T) {
	e := smallExperiment(t)
	runs := make([]*curation.Result, 3)
	for i, workers := range []int{1, 2, 8} {
		opt := curation.FreeSetOptions()
		opt.Workers = workers
		runs[i] = curation.Run(e.Repos, opt)
	}
	base := runs[0]
	for i, r := range runs[1:] {
		if !reflect.DeepEqual(base.Keys(), r.Keys()) {
			t.Fatalf("run %d: kept-file keys diverged", i+1)
		}
		if !reflect.DeepEqual(base.CopyrightFindings, r.CopyrightFindings) {
			t.Fatalf("run %d: copyright findings diverged", i+1)
		}
		if base.TotalFiles != r.TotalFiles || base.AfterLicense != r.AfterLicense ||
			base.AfterDedup != r.AfterDedup || base.FinalFiles != r.FinalFiles ||
			base.Bytes != r.Bytes {
			t.Fatalf("run %d: counts diverged: %+v vs %+v", i+1, base, r)
		}
	}
}

// A shared Extraction must reproduce the standalone Run results exactly for
// every funnel variant.
func TestSharedExtractionMatchesStandaloneRuns(t *testing.T) {
	e := smallExperiment(t)
	dopt := curation.FreeSetOptions().Dedup
	ex := curation.ExtractWithCache(e.Repos, dopt, 4, vcache.Shared(dopt))
	for _, opt := range []curation.Options{
		curation.FreeSetOptions(),
		curation.VeriGenLikeOptions(),
		{Mask: curation.StageMask{SkipCopyright: true}, Dedup: dopt},
		{Mask: curation.StageMask{SkipDedup: true}},
	} {
		shared := curation.RunExtracted(ex, opt)
		standalone := curation.Run(e.Repos, opt)
		if !reflect.DeepEqual(shared.Keys(), standalone.Keys()) {
			t.Fatalf("mask %+v: kept files diverged", opt.Mask)
		}
		if shared.CopyrightRemoved != standalone.CopyrightRemoved ||
			shared.SyntaxRemoved != standalone.SyntaxRemoved ||
			shared.ReposSeen != standalone.ReposSeen ||
			shared.ReposLicensed != standalone.ReposLicensed {
			t.Fatalf("mask %+v: counts diverged: %+v vs %+v", opt.Mask, shared, standalone)
		}
	}
}
