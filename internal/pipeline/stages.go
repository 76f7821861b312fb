package pipeline

import (
	"strconv"

	"freehw/internal/dedup"
	"freehw/internal/par"
	"freehw/internal/similarity"
)

// Stage names, shared by offline composition and the /v1/filter wire
// protocol.
const (
	StageLicense    = "license"
	StageDedup      = "dedup"
	StageCopyright  = "copyright"
	StageSyntax     = "syntax"
	StageSimilarity = "similarity"
)

// licenseStage rejects candidates whose origin failed the repository-level
// license gate (§III-C). The gate itself (SPDX/LICENSE classification)
// runs at extraction or upload time; the stage consults the resulting bit.
type licenseStage struct{}

func (licenseStage) Name() string { return StageLicense }

func (licenseStage) Evaluate(c *Candidate) Outcome {
	if c.Licensed {
		return Outcome{}
	}
	return Outcome{Reject: true, Reasons: []string{"license:repo-not-allowlisted"}}
}

// License returns the repository-license gate stage.
func License() Stage { return licenseStage{} }

// dedupStage removes MinHash/LSH near-duplicates (Jaccard >= threshold,
// §III-B): the first-seen candidate is kept, later ones reject with a
// reason naming the retained key — the most similar kept candidate and, on
// a Jaccard tie, the first one the index meets (dedup.AddResult). Verdicts
// depend on candidate order, so the stage is a BatchStage; a fresh index
// is built per execution.
type dedupStage struct {
	opt  dedup.Options
	prep *dedup.Preparer
}

func (d *dedupStage) Name() string { return StageDedup }

// Evaluate decides a lone candidate, which is trivially unique. Batch
// execution is the meaningful path.
func (d *dedupStage) Evaluate(c *Candidate) Outcome {
	return d.EvaluateBatch(1, []*Candidate{c})[0]
}

func (d *dedupStage) EvaluateBatch(workers int, cands []*Candidate) []Outcome {
	// Shingle + MinHash + band hashes fan out (memoized by content hash);
	// the LSH index then ingests sequentially in candidate order, so the
	// outcomes, reasons included, cannot depend on the worker count.
	par.ForEach(workers, len(cands), func(i int) {
		cands[i].memo().Prepared(cands[i].Content, d.prep)
	})
	keys := make([]string, len(cands))
	preps := make([]dedup.Prepared, len(cands))
	for i, c := range cands {
		keys[i] = c.Key
		preps[i] = c.Entry.Prepared(c.Content, d.prep)
	}
	results := dedup.NewIndex(d.opt).AddAll(keys, preps)
	outs := make([]Outcome, len(cands))
	for i, r := range results {
		if !r.Unique {
			outs[i] = Outcome{Reject: true, Reasons: []string{"dedup:duplicate-of:" + r.DupOfKey}}
		}
	}
	return outs
}

// Dedup returns the de-duplication stage for the given parameters.
// Candidates' cached dedup artifacts must have been computed under the
// same artifact-relevant options (vcache enforces this by keying stores on
// them).
func Dedup(opt dedup.Options) Stage {
	return &dedupStage{opt: opt, prep: dedup.NewPreparer(opt)}
}

// copyrightStage rejects files the per-file copyright screen flags
// (§III-C): protected header language or embedded sensitive key material.
type copyrightStage struct{}

func (copyrightStage) Name() string { return StageCopyright }

func (copyrightStage) Evaluate(c *Candidate) Outcome {
	scan := c.memo().HeaderScan(c.Content)
	hits := c.memo().BodyHits(c.Content)
	if !scan.Protected && len(hits) == 0 {
		return Outcome{}
	}
	reasons := make([]string, 0, len(scan.Reasons)+len(hits)+1)
	for _, r := range scan.Reasons {
		reasons = append(reasons, "copyright:header:"+r)
	}
	if scan.Company != "" {
		reasons = append(reasons, "copyright:company:"+scan.Company)
	}
	for _, h := range hits {
		reasons = append(reasons, "copyright:body:"+h)
	}
	return Outcome{Reject: true, Reasons: reasons}
}

// Copyright returns the per-file copyright screen stage.
func Copyright() Stage { return copyrightStage{} }

// syntaxStage rejects files the Verilog syntax filter cannot parse
// (§III-D): vlog.Check, the parser's grammar without an AST, memoized per
// content.
type syntaxStage struct{}

func (syntaxStage) Name() string { return StageSyntax }

func (syntaxStage) Evaluate(c *Candidate) Outcome {
	if c.memo().SyntaxBad(c.Content) {
		return Outcome{Reject: true, Reasons: []string{"syntax:parse-failed"}}
	}
	return Outcome{}
}

// Syntax returns the syntax-filter stage.
func Syntax() Stage { return syntaxStage{} }

// similarityStage rejects candidates whose best cosine match against a
// sealed protected-corpus snapshot reaches the violation threshold — the
// paper's §III-A infringement check as a composable stage. Batch execution
// shares one deduplicated BestBatch pass over the snapshot.
type similarityStage struct {
	snap      *similarity.Snapshot
	threshold float64
}

func (s *similarityStage) Name() string { return StageSimilarity }

func (s *similarityStage) outcome(m similarity.Match) Outcome {
	if m.Index < 0 || m.Score < s.threshold {
		return Outcome{}
	}
	return Outcome{Reject: true, Reasons: []string{
		"similarity:violation:" + m.Name + ":" + strconv.FormatFloat(m.Score, 'f', 4, 64),
	}}
}

func (s *similarityStage) Evaluate(c *Candidate) Outcome {
	return s.outcome(s.snap.Best(c.Content))
}

func (s *similarityStage) EvaluateBatch(workers int, cands []*Candidate) []Outcome {
	texts := make([]string, len(cands))
	for i, c := range cands {
		texts[i] = c.Content
	}
	matches := s.snap.BestBatch(workers, texts)
	outs := make([]Outcome, len(cands))
	for i, m := range matches {
		outs[i] = s.outcome(m)
	}
	return outs
}

// Similarity returns the §III-A infringement stage over a sealed corpus
// snapshot; threshold <= 0 selects the paper's default (0.8).
func Similarity(snap *similarity.Snapshot, threshold float64) Stage {
	if threshold <= 0 {
		threshold = similarity.DefaultThreshold
	}
	return &similarityStage{snap: snap, threshold: threshold}
}

// Paper returns the paper's four-stage funnel in Figure 1 order: license
// gate, de-duplication, copyright screen, syntax filter. The int was the
// dedup shard count and is ignored; the signature stays only because
// frozen bench/ compiles against it, and goes in the next benchmark PR.
func Paper(dopt dedup.Options, _ int) []Stage {
	return []Stage{License(), Dedup(dopt), Copyright(), Syntax()}
}
