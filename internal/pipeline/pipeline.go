// Package pipeline is the one composable stage API behind both faces of
// the paper's four-stage funnel (license gate → dedup → copyright screen →
// syntax filter): the offline curation engine (internal/curation) and the
// online audit service (internal/serve) execute the same Stage values and
// produce the same Verdict envelope, so a new workload — a stage ablation,
// an AutoVCoder-style RAG corpus screen, an agentic flow auditing every
// generation step — is a stage composition, not a parallel reimplementation.
//
// A Stage decides one Candidate at a time; a BatchStage (dedup, batched
// similarity) decides a whole surviving set in one pass. Execute threads
// candidates through a stage list in order, fanning per-candidate stages
// across workers, and returns one Verdict per input: accept/reject, the
// rejecting stage, machine-readable reason codes, and per-stage timings.
// All per-content analyses read through the shared vcache memoization, so
// a candidate that already flowed through any funnel (offline or online)
// costs a hash lookup.
//
// Determinism: verdicts, reason strings included, depend only on candidate
// content/order and stage configuration — never on worker count or cache
// temperature. The one place order decides a string is dedup's
// "duplicate-of:<key>": it names the most similar kept candidate and, when
// several tie on Jaccard, the first one the sequential LSH probe meets
// (bands ascending, then insertion order). The curation determinism suite
// pins the rest transitively.
package pipeline

import (
	"fmt"
	"time"

	"freehw/internal/par"
	"freehw/internal/vcache"
)

// Candidate is one unit flowing through a pipeline: file content plus the
// provenance bits stages consult.
type Candidate struct {
	// Key names the candidate (repo-qualified path offline, client-supplied
	// id online). Dedup reason codes reference keys.
	Key string
	// Content is the candidate Verilog source.
	Content string
	// Licensed reports whether the candidate's origin passed the
	// repository-level license gate (§III-C). Only the license stage
	// consults it; bare online candidates default to unlicensed.
	Licensed bool
	// Entry memoizes per-content analyses (scans, syntax verdict, dedup
	// artifacts). Execute fills nil entries with standalone memos; pass a
	// store-backed entry to share verdicts across runs and requests.
	Entry *vcache.Entry
}

// memo returns the candidate's analysis memo, creating a standalone one on
// first use. Execute pre-fills entries before fanning out; direct stage
// calls (one goroutine per candidate) fill lazily here.
func (c *Candidate) memo() *vcache.Entry {
	if c.Entry == nil {
		c.Entry = vcache.NewEntry()
	}
	return c.Entry
}

// Outcome is one stage's decision for one candidate.
type Outcome struct {
	Reject bool
	// Reasons are machine-readable "stage:detail" codes, deterministic in
	// content and stage configuration.
	Reasons []string
}

// Stage is one composable funnel filter. Stage values are immutable and
// safe for concurrent Execute calls; all mutable state (e.g. a dedup
// index) lives per execution.
type Stage interface {
	Name() string
	// Evaluate decides one candidate in isolation.
	Evaluate(c *Candidate) Outcome
}

// BatchStage is a stage whose verdicts depend on the whole surviving set —
// dedup (a candidate is a duplicate only relative to the candidates before
// it) — or that can answer a set much faster than one at a time (batched
// similarity). Execute prefers EvaluateBatch when a stage implements it.
type BatchStage interface {
	Stage
	// EvaluateBatch decides all candidates in one pass, returning one
	// Outcome per candidate in input order. workers bounds internal
	// concurrency (<= 0 means GOMAXPROCS); results must not depend on it.
	EvaluateBatch(workers int, cands []*Candidate) []Outcome
}

// Verdict is the structured envelope both the offline funnel and the
// online service emit for one candidate.
type Verdict struct {
	Key string `json:"key,omitempty"`
	// Accept reports whether the candidate survived every stage.
	Accept bool `json:"accept"`
	// Stage names the rejecting stage; empty when accepted.
	Stage string `json:"stage,omitempty"`
	// Reasons are the rejecting stage's machine-readable codes.
	Reasons []string `json:"reasons,omitempty"`
}

// StageTiming reports one executed stage: wall time plus the candidate
// counts in and out (the funnel shape).
type StageTiming struct {
	Stage    string
	In, Kept int
	Duration time.Duration
}

// Report is the result of one Execute: a verdict per input candidate (in
// input order) plus per-stage timings in execution order.
type Report struct {
	Verdicts []Verdict
	Stages   []StageTiming
}

// Timing returns the timing entry for the named stage, if it executed.
func (r *Report) Timing(stage string) (StageTiming, bool) {
	for _, t := range r.Stages {
		if t.Stage == stage {
			return t, true
		}
	}
	return StageTiming{}, false
}

// AcceptedCount returns how many candidates survived every stage.
func (r *Report) AcceptedCount() int {
	n := 0
	for i := range r.Verdicts {
		if r.Verdicts[i].Accept {
			n++
		}
	}
	return n
}

// Execute threads cands through stages in order. Per-candidate stages fan
// out across workers (<= 0 means GOMAXPROCS); batch stages see the whole
// surviving set at once. Rejected candidates drop out of later stages, so
// the rejecting stage in a verdict is always the earliest one that fired —
// exactly the funnel semantics of the paper's Figure 1.
func Execute(workers int, stages []Stage, cands []*Candidate) *Report {
	rep := &Report{Verdicts: make([]Verdict, len(cands))}
	for i, c := range cands {
		if c.Entry == nil {
			c.Entry = vcache.NewEntry()
		}
		rep.Verdicts[i] = Verdict{Key: c.Key, Accept: true}
	}
	alive := make([]int, len(cands))
	for i := range alive {
		alive[i] = i
	}
	for _, st := range stages {
		start := time.Now()
		sub := make([]*Candidate, len(alive))
		for j, i := range alive {
			sub[j] = cands[i]
		}
		var outs []Outcome
		if b, ok := st.(BatchStage); ok {
			outs = b.EvaluateBatch(workers, sub)
		} else {
			outs = par.Map(workers, len(sub), func(j int) Outcome {
				return st.Evaluate(sub[j])
			})
		}
		if len(outs) != len(sub) {
			panic(fmt.Sprintf("pipeline: stage %q returned %d outcomes for %d candidates", st.Name(), len(outs), len(sub)))
		}
		next := make([]int, 0, len(alive))
		for j, i := range alive {
			if outs[j].Reject {
				rep.Verdicts[i].Accept = false
				rep.Verdicts[i].Stage = st.Name()
				rep.Verdicts[i].Reasons = outs[j].Reasons
			} else {
				next = append(next, i)
			}
		}
		rep.Stages = append(rep.Stages, StageTiming{
			Stage:    st.Name(),
			In:       len(alive),
			Kept:     len(next),
			Duration: time.Since(start),
		})
		alive = next
	}
	return rep
}
