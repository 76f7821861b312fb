package pipeline

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"freehw/internal/dedup"
	"freehw/internal/similarity"
	"freehw/internal/vcache"
)

func dopt() dedup.Options { return dedup.Options{Threshold: 0.85, Seed: 1} }

// paperStages is the paper's funnel in Figure 1 order.
func paperStages() []Stage { return []Stage{License(), Dedup(dopt()), Copyright(), Syntax()} }

func cand(key, content string, licensed bool) *Candidate {
	return &Candidate{Key: key, Content: content, Licensed: licensed}
}

const cleanMod = `module adder(input [3:0] a, b, output [4:0] s);
  assign s = a + b;
endmodule
`

const protectedMod = `// Copyright (c) 2023 MegaChip Inc. All rights reserved.
// Proprietary and confidential. Do not distribute.
module secret_core(input [31:0] k, output [31:0] y);
  assign y = k ^ 32'hDEADBEEF;
endmodule
`

const brokenMod = "module broken(input a; assign y ="

// The full paper funnel rejects each candidate at the earliest firing
// stage and records machine-readable reasons.
func TestPaperFunnelVerdicts(t *testing.T) {
	cands := []*Candidate{
		cand("ok.v", cleanMod, true),
		cand("unlicensed.v", cleanMod+"// distinct trailing comment making content unique\n", false),
		cand("dup.v", cleanMod, true), // exact duplicate of ok.v
		cand("protected.v", protectedMod, true),
		cand("broken.v", brokenMod, true),
	}
	rep := Execute(2, paperStages(), cands)
	if len(rep.Verdicts) != len(cands) {
		t.Fatalf("got %d verdicts for %d candidates", len(rep.Verdicts), len(cands))
	}
	wantStage := []string{"", StageLicense, StageDedup, StageCopyright, StageSyntax}
	for i, v := range rep.Verdicts {
		if v.Key != cands[i].Key {
			t.Errorf("verdict %d key = %q, want %q", i, v.Key, cands[i].Key)
		}
		if (v.Stage == "") != v.Accept {
			t.Errorf("verdict %d: accept=%v but stage=%q", i, v.Accept, v.Stage)
		}
		if v.Stage != wantStage[i] {
			t.Errorf("verdict %d (%s): rejected by %q, want %q (reasons %v)", i, v.Key, v.Stage, wantStage[i], v.Reasons)
		}
	}
	// Reason codes are prefixed by the stage that produced them.
	if rs := rep.Verdicts[2].Reasons; len(rs) != 1 || rs[0] != "dedup:duplicate-of:ok.v" {
		t.Errorf("dedup reasons = %v", rs)
	}
	for _, r := range rep.Verdicts[3].Reasons {
		if !strings.HasPrefix(r, "copyright:") {
			t.Errorf("copyright reason %q lacks prefix", r)
		}
	}
	if rs := rep.Verdicts[4].Reasons; len(rs) != 1 || rs[0] != "syntax:parse-failed" {
		t.Errorf("syntax reasons = %v", rs)
	}
	// Stage timings record the funnel shape.
	wantShape := []struct {
		stage    string
		in, kept int
	}{
		{StageLicense, 5, 4},
		{StageDedup, 4, 3},
		{StageCopyright, 3, 2},
		{StageSyntax, 2, 1},
	}
	if len(rep.Stages) != len(wantShape) {
		t.Fatalf("stage timings = %+v", rep.Stages)
	}
	for i, w := range wantShape {
		got := rep.Stages[i]
		if got.Stage != w.stage || got.In != w.in || got.Kept != w.kept {
			t.Errorf("stage %d = %+v, want %+v", i, got, w)
		}
	}
	if rep.AcceptedCount() != 1 || !rep.Verdicts[0].Accept {
		t.Fatalf("accepted = %d, verdicts %+v", rep.AcceptedCount(), rep.Verdicts)
	}
	if tm, ok := rep.Timing(StageDedup); !ok || tm.In != 4 {
		t.Fatalf("Timing(dedup) = %+v, %v", tm, ok)
	}
	if _, ok := rep.Timing("nope"); ok {
		t.Fatal("Timing for unexecuted stage reported ok")
	}
}

// A stage subset only executes (and only rejects with) the listed stages —
// StageMask ablations are stage compositions.
func TestStageSubset(t *testing.T) {
	cands := []*Candidate{
		cand("protected.v", protectedMod, false),
		cand("broken.v", brokenMod, false),
	}
	rep := Execute(1, []Stage{Syntax()}, cands)
	if !rep.Verdicts[0].Accept {
		t.Fatalf("syntax-only run rejected a parseable protected file: %+v", rep.Verdicts[0])
	}
	if rep.Verdicts[1].Accept || rep.Verdicts[1].Stage != StageSyntax {
		t.Fatalf("syntax-only run kept broken file: %+v", rep.Verdicts[1])
	}
	if len(rep.Stages) != 1 || rep.Stages[0].Stage != StageSyntax {
		t.Fatalf("stages = %+v", rep.Stages)
	}
}

// Verdicts are identical at any worker count and with or without a shared
// store (cache temperature).
func TestExecuteDeterminism(t *testing.T) {
	build := func(store *vcache.Store) []*Candidate {
		var cands []*Candidate
		for i := 0; i < 40; i++ {
			content := cleanMod + strings.Repeat("// pad\n", i%7)
			c := cand("f"+string(rune('a'+i%26))+".v", content, i%3 != 0)
			if store != nil {
				c.Entry = store.Entry(content)
			}
			cands = append(cands, c)
		}
		return cands
	}
	var base *Report
	for _, workers := range []int{1, 2, 8} {
		for _, store := range []*vcache.Store{nil, vcache.NewStore(dopt())} {
			rep := Execute(workers, paperStages(), build(store))
			for i := range rep.Stages {
				rep.Stages[i].Duration = 0
			}
			if base == nil {
				base = rep
				continue
			}
			if !reflect.DeepEqual(base.Verdicts, rep.Verdicts) {
				t.Fatalf("workers=%d store=%v: verdicts diverged", workers, store != nil)
			}
			if !reflect.DeepEqual(base.Stages, rep.Stages) {
				t.Fatalf("workers=%d store=%v: stage shape diverged", workers, store != nil)
			}
		}
	}
}

// When two kept documents tie on Jaccard against a later duplicate, the
// reason names the same one at any worker count: Q is 111/121 from both A
// and B, which are 106/126 from each other and so both kept. The fillers
// put A 256 candidates ahead of B and Q, which is where the deleted
// wave-parallel insertion named A at four workers and B at one.
func TestDedupTieReasonIndependentOfWorkers(t *testing.T) {
	words := func(prefix string) []string {
		w := make([]string, 120)
		for i := range w {
			w[i] = fmt.Sprintf("%s%03d", prefix, i)
		}
		return w
	}
	a, b, q := words("w"), words("w"), words("w")
	b[30], b[90], q[30] = "x030", "x090", "x030"
	var texts, keys []string
	add := func(key string, w []string) {
		keys = append(keys, key)
		texts = append(texts, strings.Join(w, " "))
	}
	add("A", a)
	for i := 0; i < 255; i++ {
		add(fmt.Sprintf("filler%03d", i), words(fmt.Sprintf("f%03d_", i)))
	}
	add("B", b)
	add("Q", q)
	named := map[string]int{}
	for seed := uint64(1); seed <= 32; seed++ {
		stages := []Stage{Dedup(dedup.Options{Threshold: 0.85, Seed: seed})}
		run := func(workers int) []Verdict {
			cands := make([]*Candidate, len(texts))
			for i := range texts {
				cands[i] = cand(keys[i], texts[i], true)
			}
			return Execute(workers, stages, cands).Verdicts
		}
		one, four := run(1), run(4)
		if !reflect.DeepEqual(one, four) {
			t.Fatalf("seed %d: verdicts differ between 1 and 4 workers: Q is %+v vs %+v", seed, one[len(one)-1], four[len(four)-1])
		}
		vb, vq := one[len(one)-2], one[len(one)-1]
		if !vb.Accept || vq.Accept || len(vq.Reasons) != 1 {
			t.Fatalf("seed %d: B %+v, Q %+v; want B kept and Q a duplicate", seed, vb, vq)
		}
		named[vq.Reasons[0]]++
	}
	if named["dedup:duplicate-of:A"] == 0 || named["dedup:duplicate-of:B"] == 0 || len(named) != 2 {
		t.Fatalf("Q's reasons over the seeds = %v; want both A and B named, or the tie is not exercised", named)
	}
}

// The similarity stage implements the §III-A check: violations reject with
// the matched document and score; sub-threshold candidates pass.
func TestSimilarityStage(t *testing.T) {
	snap := similarity.SealCorpus([]string{"secret.v"}, []string{protectedMod}, 1)
	st := Similarity(snap, 0) // paper default threshold
	out := st.Evaluate(cand("regurgitated.v", protectedMod, false))
	if !out.Reject || len(out.Reasons) != 1 {
		t.Fatalf("regurgitated candidate passed: %+v", out)
	}
	if !strings.HasPrefix(out.Reasons[0], "similarity:violation:secret.v:") {
		t.Fatalf("reason = %q", out.Reasons[0])
	}
	if out := st.Evaluate(cand("fresh.v", "module fresh(output z); assign z = 1'b0; endmodule", false)); out.Reject {
		t.Fatalf("fresh candidate rejected: %+v", out)
	}
	// Batch path agrees with the per-candidate path.
	cands := []*Candidate{
		cand("a.v", protectedMod, false),
		cand("b.v", "module fresh(output z); assign z = 1'b0; endmodule", false),
		cand("c.v", protectedMod, false), // duplicate query shares the pass
	}
	outs := st.(BatchStage).EvaluateBatch(2, cands)
	for i, c := range cands {
		want := st.Evaluate(&Candidate{Key: c.Key, Content: c.Content, Entry: vcache.NewEntry()})
		if !reflect.DeepEqual(outs[i], want) {
			t.Fatalf("batch outcome %d = %+v, want %+v", i, outs[i], want)
		}
	}
	// Empty corpus: nothing can violate.
	empty := Similarity(similarity.SealCorpus(nil, nil, 1), 0.8)
	if out := empty.Evaluate(cand("x.v", protectedMod, false)); out.Reject {
		t.Fatalf("empty-corpus similarity rejected: %+v", out)
	}
}

// A lone candidate through the dedup stage is trivially unique; an
// executed empty pipeline accepts everything without stages.
func TestDegenerateExecutions(t *testing.T) {
	if out := Dedup(dopt()).Evaluate(cand("solo.v", cleanMod, true)); out.Reject {
		t.Fatalf("lone dedup candidate rejected: %+v", out)
	}
	rep := Execute(1, nil, []*Candidate{cand("a.v", brokenMod, false)})
	if !rep.Verdicts[0].Accept || len(rep.Stages) != 0 {
		t.Fatalf("stageless execution = %+v", rep)
	}
	rep = Execute(4, paperStages(), nil)
	if len(rep.Verdicts) != 0 || len(rep.Stages) != 4 {
		t.Fatalf("empty-candidate execution = %+v", rep)
	}
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
