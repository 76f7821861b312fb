// Package curation implements the paper's dataset-curation funnel
// (Figure 1, §III-B..D): scraped repositories → repository-license gate →
// Verilog extraction → MinHash/LSH de-duplication (Jaccard 0.85) →
// per-file copyright screening → syntax check → FreeSet.
//
// The funnel is organized around an Extraction: a scrape's Verilog files
// with lazily memoized per-file analyses (shingles + MinHash band hashes,
// header/body copyright scans, syntax verdict). The analyses live in a
// content-hash keyed vcache store, so one Extraction can feed several
// funnel variants — FreeSet, the VeriGen-style comparison corpus, the
// license-only ablation — without recomputing any per-file work, and
// repeated curation runs over overlapping corpora skip the per-file work
// entirely. Every per-file stage fans out across CPUs; LSH insertion and
// the other order-sensitive aggregation stay sequential, keeping outputs
// byte-identical to a serial run at any worker count and any cache
// temperature.
package curation

import (
	"strings"
	"time"

	"freehw/internal/dedup"
	"freehw/internal/gitsim"
	"freehw/internal/license"
	"freehw/internal/par"
	"freehw/internal/pipeline"
	"freehw/internal/vcache"
)

// FileRecord is one dataset entry with its provenance.
type FileRecord struct {
	Repo    string
	Path    string
	Content string
	License license.License
}

// Key returns repo-qualified path.
func (f FileRecord) Key() string { return f.Repo + "/" + f.Path }

// StageMask disables individual funnel stages (the stage ablation). It is
// sugar for composing a subset of the pipeline's paper stages; see
// Stages.
type StageMask struct {
	SkipLicense   bool
	SkipDedup     bool
	SkipCopyright bool
	SkipSyntax    bool
}

// Stages composes the funnel's pipeline stages for a mask: the paper's
// four stages in Figure 1 order, minus the skipped ones. dopt configures
// the dedup stage.
func (m StageMask) Stages(dopt dedup.Options) []pipeline.Stage {
	var stages []pipeline.Stage
	if !m.SkipLicense {
		stages = append(stages, pipeline.License())
	}
	if !m.SkipDedup {
		stages = append(stages, pipeline.Dedup(dopt))
	}
	if !m.SkipCopyright {
		stages = append(stages, pipeline.Copyright())
	}
	if !m.SkipSyntax {
		stages = append(stages, pipeline.Syntax())
	}
	return stages
}

// Options configures a curation run.
type Options struct {
	Mask  StageMask
	Dedup dedup.Options
	// MaxRepoYear, when nonzero, drops repositories created after this year
	// (used to build the VeriGen-like comparison dataset: its BigQuery
	// snapshot was last updated in 2022).
	MaxRepoYear int
	// Workers bounds per-file concurrency (0 = GOMAXPROCS). Any worker
	// count produces the same Result.
	Workers int
	// NoCache makes Run extract without the process-wide verdict cache
	// (per-extraction memoization still applies). Only Run reads it: an
	// Extraction owns its cache, chosen at ExtractWithCache, and whoever
	// owns a store bounds it with its SetBudget.
	NoCache bool
}

// CopyrightFinding records one removed protected file.
type CopyrightFinding struct {
	Key     string
	Reasons []string
	Company string
	// SensitiveHits lists embedded key material found in the body.
	SensitiveHits []string
}

// Result is the funnel outcome: counts for every stage plus the dataset.
type Result struct {
	ReposSeen     int
	ReposLicensed int

	TotalFiles       int // all extracted .v files
	AfterLicense     int
	AfterDedup       int
	CopyrightRemoved int
	SyntaxRemoved    int
	FinalFiles       int

	Bytes int64 // final dataset size

	Files             []FileRecord
	CopyrightFindings []CopyrightFinding
}

// DedupRemovedFraction reports the share dedup removed (paper: 62.5%).
func (r *Result) DedupRemovedFraction() float64 {
	if r.AfterLicense == 0 {
		return 0
	}
	return 1 - float64(r.AfterDedup)/float64(r.AfterLicense)
}

// CopyrightShare reports protected files found relative to the full scrape
// (paper: "nearly 1% of the original dataset").
func (r *Result) CopyrightShare() float64 {
	if r.TotalFiles == 0 {
		return 0
	}
	return float64(r.CopyrightRemoved) / float64(r.TotalFiles)
}

// Texts returns the dataset contents (training corpus form).
func (r *Result) Texts() []string {
	out := make([]string, len(r.Files))
	for i, f := range r.Files {
		out[i] = f.Content
	}
	return out
}

// Keys returns dataset file keys.
func (r *Result) Keys() []string {
	out := make([]string, len(r.Files))
	for i, f := range r.Files {
		out[i] = f.Key()
	}
	return out
}

// IsVerilogPath reports whether a path names a Verilog source file.
func IsVerilogPath(path string) bool {
	return strings.HasSuffix(path, ".v") || strings.HasSuffix(path, ".vh")
}

// repoLicense determines a repository's license from scrape metadata, with
// the LICENSE file text as fallback.
func repoLicense(r *gitsim.RepoData) license.License {
	if l := license.ClassifySPDX(r.Meta.SPDX); l != license.Unknown {
		return l
	}
	for _, f := range r.Files {
		if f.Path == "LICENSE" || f.Path == "LICENSE.md" || f.Path == "COPYING" {
			return license.Classify(f.Content)
		}
	}
	return license.Unknown
}

// ExtractedFile is one scraped Verilog file plus lazily memoized analyses.
// The analyses live in a vcache.Entry keyed by content hash, so they run
// at most once per file content — not per Extraction, funnel variant, or
// worker — and, when the Extraction uses a shared store, at most once per
// process across repeated curation runs.
type ExtractedFile struct {
	rec      FileRecord
	licensed bool
	entry    *vcache.Entry
}

// Record returns the file's dataset record.
func (f *ExtractedFile) Record() FileRecord { return f.rec }

// Licensed reports whether the file's repository passed the license gate.
func (f *ExtractedFile) Licensed() bool { return f.licensed }

// HeaderScan returns the memoized file-level copyright screen of the
// header comment.
func (f *ExtractedFile) HeaderScan() license.ScanResult {
	return f.entry.HeaderScan(f.rec.Content)
}

// BodyHits returns the memoized sensitive-content findings of the body.
func (f *ExtractedFile) BodyHits() []string {
	return f.entry.BodyHits(f.rec.Content)
}

type extractedRepo struct {
	createdAt time.Time
	licensed  bool
	files     []*ExtractedFile
}

// Extraction is a scrape's Verilog files with shared, memoized per-file
// analyses, ready to feed one or more funnel runs.
type Extraction struct {
	repos    []extractedRepo
	dedupOpt dedup.Options
	workers  int
}

// ExtractWithCache classifies repository licenses and collects Verilog
// files. dopt fixes the de-duplication parameters every subsequent
// RunExtracted uses (all funnel variants must share them for the memoized
// shingles to be valid). Repository-level work fans out across workers.
// Verdicts are cached through store for the life of the Extraction; no
// later option changes that. A nil store disables cross-run caching: each
// file gets a standalone memo entry, so behavior matches caching but
// nothing outlives the Extraction. The store must be keyed by dopt
// (vcache.Shared(dopt) or vcache.NewStore(dopt)); a store built for
// different dedup parameters would replay artifacts that are invalid here,
// so it is replaced with a fresh extraction-local store rather than
// silently corrupting the kept set.
func ExtractWithCache(repos []gitsim.RepoData, dopt dedup.Options, workers int, store *vcache.Store) *Extraction {
	if store != nil && !store.Compatible(dopt) {
		store = vcache.NewStore(dopt)
	}
	ex := &Extraction{dedupOpt: dopt, workers: workers}
	entryFor := func(content string) *vcache.Entry {
		if store == nil {
			return vcache.NewEntry()
		}
		return store.Entry(content)
	}
	ex.repos = par.Map(workers, len(repos), func(i int) extractedRepo {
		r := &repos[i]
		l := repoLicense(r)
		er := extractedRepo{
			createdAt: r.Meta.CreatedAt,
			licensed:  license.Accepted(l),
		}
		for _, f := range r.Files {
			if !IsVerilogPath(f.Path) {
				continue
			}
			er.files = append(er.files, &ExtractedFile{
				rec:      FileRecord{Repo: r.Meta.FullName, Path: f.Path, Content: f.Content, License: l},
				licensed: er.licensed,
				entry:    entryFor(f.Content),
			})
		}
		return er
	})
	return ex
}

// Files returns every extracted Verilog file in scrape order (no year
// filtering), for consumers that need the raw pool — e.g. assembling
// uncurated pre-training slices.
func (ex *Extraction) Files() []*ExtractedFile {
	var out []*ExtractedFile
	for i := range ex.repos {
		out = append(out, ex.repos[i].files...)
	}
	return out
}

// ProtectedFiles returns every extracted file the per-file copyright
// screen flags (protected header or sensitive body content), in scrape
// order, regardless of license gate or dedup outcome — the §III-A
// reference corpus hiding inside an uploaded scrape. Scans fan out across
// the extraction's workers and are memoized in its cache, so a funnel run
// over the same extraction pays nothing extra.
func (ex *Extraction) ProtectedFiles() []*ExtractedFile {
	files := ex.Files()
	flagged := par.Map(ex.workers, len(files), func(i int) bool {
		f := files[i]
		return f.HeaderScan().Protected || len(f.BodyHits()) > 0
	})
	var out []*ExtractedFile
	for i, f := range files {
		if flagged[i] {
			out = append(out, f)
		}
	}
	return out
}

// RunExtracted executes the funnel over an Extraction as a pipeline of the
// paper's stages (opt.Mask selecting the subset; see StageMask.Stages).
// The Extraction's dedup parameters and cache are authoritative (opt.Dedup
// and opt.NoCache are ignored); Mask, MaxRepoYear and Workers apply. Calls
// may run concurrently over the same Extraction.
func RunExtracted(ex *Extraction, opt Options) *Result {
	workers := opt.Workers
	if workers == 0 {
		workers = ex.workers
	}
	res := &Result{}

	// Stage 0: year filter plus repo/file accounting; everything surviving
	// the year filter becomes a pipeline candidate.
	var pool []*ExtractedFile
	for i := range ex.repos {
		r := &ex.repos[i]
		if opt.MaxRepoYear > 0 && !r.createdAt.IsZero() && r.createdAt.Year() > opt.MaxRepoYear {
			continue
		}
		res.ReposSeen++
		if r.licensed {
			res.ReposLicensed++
		}
		pool = append(pool, r.files...)
	}
	res.TotalFiles = len(pool)

	// Stages 1..4 execute as one pipeline; the memo entries are the
	// Extraction's, so every per-content analysis is shared across funnel
	// variants and (with a store) across runs. The dedup stage's own
	// Preparer computes artifacts identical to the Extraction's (same
	// options), so whichever fills an entry first wins harmlessly.
	cands := make([]*pipeline.Candidate, len(pool))
	for i, f := range pool {
		cands[i] = &pipeline.Candidate{
			Key:      f.rec.Key(),
			Content:  f.rec.Content,
			Licensed: f.licensed,
			Entry:    f.entry,
		}
	}
	rep := pipeline.Execute(workers, opt.Mask.Stages(ex.dedupOpt), cands)

	// Funnel counts derive from the stage timings (candidates in/kept),
	// byte-identical to the pre-pipeline accounting.
	res.AfterLicense = res.TotalFiles
	if t, ok := rep.Timing(pipeline.StageLicense); ok {
		res.AfterLicense = t.Kept
	}
	res.AfterDedup = res.AfterLicense
	if t, ok := rep.Timing(pipeline.StageDedup); ok {
		res.AfterDedup = t.Kept
	}

	var final []FileRecord
	for i, f := range pool {
		v := rep.Verdicts[i]
		switch {
		case v.Accept:
			final = append(final, f.rec)
			res.Bytes += int64(len(f.rec.Content))
		case v.Stage == pipeline.StageCopyright:
			res.CopyrightRemoved++
			scan := f.HeaderScan()
			res.CopyrightFindings = append(res.CopyrightFindings, CopyrightFinding{
				Key: f.rec.Key(), Reasons: scan.Reasons, Company: scan.Company, SensitiveHits: f.BodyHits(),
			})
		case v.Stage == pipeline.StageSyntax:
			res.SyntaxRemoved++
		}
	}
	res.Files = final
	res.FinalFiles = len(final)
	return res
}

// Run executes the funnel over scraped repositories, extracting through
// the process-wide shared verdict store for opt.Dedup unless opt.NoCache.
func Run(repos []gitsim.RepoData, opt Options) *Result {
	var store *vcache.Store
	if !opt.NoCache {
		store = vcache.Shared(opt.Dedup)
	}
	return RunExtracted(ExtractWithCache(repos, opt.Dedup, opt.Workers, store), opt)
}

// FreeSetOptions returns the full-funnel paper defaults.
func FreeSetOptions() Options {
	return Options{Dedup: dedup.Options{Threshold: 0.85, Seed: 1}}
}

// VeriGenLikeOptions mirrors a VeriGen-style pipeline for comparison: no
// repository-license granularization, no per-file copyright screen, and a
// corpus frozen at 2022 (the Google BigQuery snapshot VeriGen used has not
// been updated since then) — but with the same dedup and syntax checks.
func VeriGenLikeOptions() Options {
	return Options{
		Mask:        StageMask{SkipLicense: true, SkipCopyright: true},
		Dedup:       dedup.Options{Threshold: 0.85, Seed: 1},
		MaxRepoYear: 2022,
	}
}

// RunFreeSet runs the full funnel with paper defaults.
func RunFreeSet(repos []gitsim.RepoData) *Result {
	return Run(repos, FreeSetOptions())
}
