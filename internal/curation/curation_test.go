package curation

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"freehw/internal/corpus"
	"freehw/internal/dedup"
	"freehw/internal/gitsim"
	"freehw/internal/license"
	"freehw/internal/vcache"
	"freehw/internal/vlog"
)

// scrapeWorld builds a world and scrapes it through the simulated API.
func scrapeWorld(t testing.TB, scale float64) (*corpus.World, []gitsim.RepoData) {
	t.Helper()
	cfg := corpus.DefaultConfig(scale)
	cfg.ProtectedPoolSize = 100
	w := corpus.BuildWorld(cfg)
	srv := gitsim.NewServer(w, 0, 0)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := gitsim.NewClient(ts.URL)
	repos, err := c.ScrapeVerilog(context.Background(),
		time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	return w, repos
}

func TestFunnelProportions(t *testing.T) {
	w, repos := scrapeWorld(t, 0.1) // ~1,300 Verilog files
	res := RunFreeSet(repos)
	stats := w.Stats()

	if res.TotalFiles != stats.VerilogFiles {
		t.Fatalf("scrape lost files: %d vs ground truth %d", res.TotalFiles, stats.VerilogFiles)
	}
	lf := float64(res.AfterLicense) / float64(res.TotalFiles)
	if lf < 0.30 || lf > 0.65 {
		t.Errorf("license-pass share %.3f (paper: 0.468)", lf)
	}
	dr := res.DedupRemovedFraction()
	if dr < 0.45 || dr > 0.75 {
		t.Errorf("dedup removed %.3f (paper: 0.625)", dr)
	}
	if res.CopyrightRemoved == 0 {
		t.Error("no copyrighted files found; world injects ~1%")
	}
	if res.SyntaxRemoved == 0 {
		t.Error("no syntax failures found; world injects broken files")
	}
	if res.FinalFiles == 0 || res.FinalFiles != len(res.Files) {
		t.Fatalf("final dataset inconsistent: %d vs %d", res.FinalFiles, len(res.Files))
	}
	t.Logf("funnel: %d -> %d -> %d -> %d (dedup -%.1f%%, copyright %d, syntax %d)",
		res.TotalFiles, res.AfterLicense, res.AfterDedup, res.FinalFiles,
		100*dr, res.CopyrightRemoved, res.SyntaxRemoved)
}

// The safety property behind the whole paper: no protected content and no
// syntax-broken file survives into FreeSet.
func TestFreeSetIsClean(t *testing.T) {
	_, repos := scrapeWorld(t, 0.05)
	res := RunFreeSet(repos)
	for _, f := range res.Files {
		hdr := vlog.HeaderComment(f.Content)
		if scan := license.ScanHeader(hdr); scan.Protected {
			t.Fatalf("protected file in FreeSet: %s (%v)", f.Key(), scan.Reasons)
		}
		if hits := license.ScanBody(f.Content); len(hits) > 0 {
			t.Fatalf("sensitive content in FreeSet: %s (%v)", f.Key(), hits)
		}
		if err := vlog.Check(f.Content); err != nil {
			t.Fatalf("unparseable file in FreeSet: %s: %v", f.Key(), err)
		}
		if !license.Accepted(f.License) {
			t.Fatalf("unlicensed file in FreeSet: %s", f.Key())
		}
	}
}

// Ground-truth recall: every world-injected protected file that reaches the
// copyright stage must be caught.
func TestCopyrightRecall(t *testing.T) {
	w, repos := scrapeWorld(t, 0.05)
	res := RunFreeSet(repos)
	// Ground truth protected paths.
	protected := map[string]bool{}
	for _, r := range w.Repos {
		for _, f := range r.Files {
			if f.Protected {
				protected[r.FullName()+"/"+f.Path] = true
			}
		}
	}
	if len(protected) == 0 {
		t.Skip("world has no protected files at this scale")
	}
	for _, f := range res.Files {
		if protected[f.Key()] {
			t.Fatalf("ground-truth protected file survived curation: %s", f.Key())
		}
	}
	if len(res.CopyrightFindings) == 0 {
		t.Fatal("no copyright findings recorded")
	}
	// The paper highlights embedded keys: at least sometimes found.
	for _, cf := range res.CopyrightFindings {
		if cf.Key == "" {
			t.Fatal("finding without key")
		}
	}
}

func TestAblationStageMasks(t *testing.T) {
	_, repos := scrapeWorld(t, 0.05)
	full := RunFreeSet(repos)

	noLicense := Run(repos, Options{Mask: StageMask{SkipLicense: true}})
	if noLicense.AfterLicense != noLicense.TotalFiles {
		t.Fatal("SkipLicense must keep all files")
	}
	if noLicense.FinalFiles <= full.FinalFiles {
		t.Fatal("skipping the license gate must enlarge the dataset")
	}

	noDedup := Run(repos, Options{Mask: StageMask{SkipDedup: true}})
	if noDedup.AfterDedup != noDedup.AfterLicense {
		t.Fatal("SkipDedup must keep duplicates")
	}

	noCopyright := Run(repos, Options{Mask: StageMask{SkipCopyright: true}})
	if noCopyright.CopyrightRemoved != 0 {
		t.Fatal("SkipCopyright must not remove files")
	}
	// With the copyright stage off, protected files leak into the dataset.
	leaked := 0
	for _, f := range noCopyright.Files {
		if license.ScanHeader(vlog.HeaderComment(f.Content)).Protected {
			leaked++
		}
	}
	if leaked == 0 {
		t.Fatal("expected protected files to leak without the copyright stage")
	}

	noSyntax := Run(repos, Options{Mask: StageMask{SkipSyntax: true}})
	if noSyntax.SyntaxRemoved != 0 {
		t.Fatal("SkipSyntax must not remove files")
	}
}

func TestVeriGenLike(t *testing.T) {
	_, repos := scrapeWorld(t, 0.1)
	free := RunFreeSet(repos)
	vg := RunVeriGenLike(repos)
	// VeriGen-like: stale snapshot (≤2022) but no license gate.
	if vg.ReposSeen >= free.ReposSeen {
		t.Errorf("2022 cutoff should shrink the repo set: %d vs %d", vg.ReposSeen, free.ReposSeen)
	}
	if vg.CopyrightRemoved != 0 {
		t.Error("VeriGen-like pipeline must not screen copyright")
	}
	// It must contain protected material (that is the paper's point).
	leaked := 0
	for _, f := range vg.Files {
		if license.ScanHeader(vlog.HeaderComment(f.Content)).Protected {
			leaked++
		}
	}
	if leaked == 0 {
		t.Error("VeriGen-like dataset should contain protected files")
	}
}

func TestHistogram(t *testing.T) {
	texts := []string{
		strings.Repeat("x", 50),     // bin 0
		strings.Repeat("x", 500),    // bin 1
		strings.Repeat("x", 5000),   // bin 2
		strings.Repeat("x", 50000),  // bin 3
		strings.Repeat("x", 500000), // bin 4
		strings.Repeat("x", 5),      // bin 0
	}
	h := LengthHistogram(texts)
	want := [7]int{2, 1, 1, 1, 1, 0, 0}
	if h.Bins != want {
		t.Fatalf("bins = %v, want %v", h.Bins, want)
	}
	out := Render([]string{"FreeSet", "VeriGen"}, []Histogram{h, h})
	if !strings.Contains(out, "10^1-10^2") {
		t.Fatalf("render missing labels:\n%s", out)
	}
}

func TestTableIRendering(t *testing.T) {
	rows := append(PriorWorkRows(), PaperFreeSetRow())
	out := RenderTableI(rows)
	for _, want := range []string{"VeriGen", "RTLCoder", "CodeV", "BetterV", "CraftRTL", "OriGen", "FreeSet", "16.50 GB", "222624"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
	// Only BetterV and FreeSet carry a license check, per the paper.
	lines := strings.Split(out, "\n")
	for _, l := range lines {
		if strings.Contains(l, "RTLCoder") && strings.Contains(l, "Yes") && strings.HasSuffix(strings.TrimSpace(l), "Yes") {
			t.Errorf("RTLCoder must not have license check: %s", l)
		}
	}
}

// An Extraction owns its cache: RunExtracted reads through the store given
// to ExtractWithCache whatever Options says, a store built for other dedup
// parameters is replaced rather than replayed, Run's NoCache leaves the
// process-wide store alone, and none of it moves the result.
func TestExtractionOwnsItsCache(t *testing.T) {
	_, repos := scrapeWorld(t, 0.02)
	dopt := FreeSetOptions().Dedup
	store := vcache.NewStore(dopt)
	cached := ExtractWithCache(repos, dopt, 2, store)
	uncached := ExtractWithCache(repos, dopt, 2, nil)

	base := RunExtracted(uncached, Options{})
	if base.FinalFiles == 0 {
		t.Fatal("empty result")
	}
	same := func(name string, res *Result) {
		t.Helper()
		if !reflect.DeepEqual(res.Keys(), base.Keys()) || res.AfterDedup != base.AfterDedup {
			t.Fatalf("%s: result diverged from the uncached run: %d vs %d files", name, res.FinalFiles, base.FinalFiles)
		}
	}
	same("cached extraction, NoCache ignored", RunExtracted(cached, Options{NoCache: true}))
	filled := store.Stats()
	if filled.Entries == 0 || filled.Misses == 0 {
		t.Fatalf("the extraction's store was not used: %+v", filled)
	}
	same("cached extraction, warm", RunExtracted(cached, Options{}))
	if st := store.Stats(); st.Entries != filled.Entries {
		t.Fatalf("a second run over the same extraction grew the store: %d -> %d entries", filled.Entries, st.Entries)
	}

	incompatible := vcache.NewStore(dedup.Options{Threshold: 0.85, Seed: 99, ShingleK: 3})
	same("incompatible store", RunExtracted(ExtractWithCache(repos, dopt, 2, incompatible), Options{}))
	if st := incompatible.Stats(); st.Entries != 0 {
		t.Fatalf("a store keyed by other dedup parameters was filled: %+v", st)
	}

	vcache.ResetShared()
	defer vcache.ResetShared()
	same("Run, NoCache", Run(repos, Options{NoCache: true, Dedup: dopt}))
	if st := vcache.Shared(dopt).Stats(); st.Entries != 0 {
		t.Fatalf("Run with NoCache filled the shared store: %+v", st)
	}
	same("Run, shared store", Run(repos, Options{Dedup: dopt}))
	if st := vcache.Shared(dopt).Stats(); st.Entries != filled.Entries {
		t.Fatalf("Run filled the shared store with %d entries, the explicit store holds %d", st.Entries, filled.Entries)
	}
}

func TestFunnelDeterminism(t *testing.T) {
	_, repos := scrapeWorld(t, 0.03)
	a := RunFreeSet(repos)
	b := RunFreeSet(repos)
	if a.FinalFiles != b.FinalFiles || a.AfterDedup != b.AfterDedup {
		t.Fatal("curation is not deterministic")
	}
	for i := range a.Files {
		if a.Files[i].Key() != b.Files[i].Key() {
			t.Fatal("dataset order is not deterministic")
		}
	}
}

// RunVeriGenLike reproduces a VeriGen-style dataset for comparison (see
// VeriGenLikeOptions).
func RunVeriGenLike(repos []gitsim.RepoData) *Result {
	return Run(repos, VeriGenLikeOptions())
}
