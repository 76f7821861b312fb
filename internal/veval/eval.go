package veval

import (
	"fmt"
	"strings"

	"freehw/internal/par"
)

// Sampler draws reproducible completions (internal/lm.Model implements it).
type Sampler interface {
	Sample(prompt string, maxTokens int, seed int64) string
}

// EvalConfig parameterizes an evaluation run.
type EvalConfig struct {
	N         int // samples per problem (paper draws n, reports pass@1/5/10)
	MaxTokens int
	// Workers bounds cross-problem concurrency (0 = GOMAXPROCS). Sample i
	// of a problem is always drawn with seed i against that problem's
	// prompt, so results are identical for any worker count.
	Workers int
}

// ProblemResult is one problem's outcome.
type ProblemResult struct {
	ID      string
	N       int
	Correct int
	// FirstFailure is a sample failure reason (diagnostics).
	FirstFailure string
}

// Result is a full evaluation run.
type Result struct {
	Model    string
	Problems []ProblemResult
}

// PassAtK is the unbiased estimator of Eq. 1:
// pass@k = E[1 - C(n-c, k)/C(n, k)].
func PassAtK(n, c, k int) float64 {
	if k > n {
		k = n
	}
	if n-c < k {
		return 1
	}
	p := 1.0
	for i := 0; i < k; i++ {
		p *= float64(n-c-i) / float64(n-i)
	}
	return 1 - p
}

// PassAtK averages the per-problem estimator over the suite.
func (r Result) PassAtK(k int) float64 {
	if len(r.Problems) == 0 {
		return 0
	}
	var sum float64
	for _, p := range r.Problems {
		sum += PassAtK(p.N, p.Correct, k)
	}
	return sum / float64(len(r.Problems))
}

// Solved counts problems with at least one correct sample.
func (r Result) Solved() int {
	n := 0
	for _, p := range r.Problems {
		if p.Correct > 0 {
			n++
		}
	}
	return n
}

// Evaluate runs the benchmark: N samples per problem, graded by simulation.
// Problems are independent and fan out across cfg.Workers goroutines; each
// problem owns a private Grader (the reference trace is per-problem anyway)
// and draws its samples with seeds 0..N-1, so the Result is identical to a
// serial run. Samplers must be safe for concurrent use (internal/lm models
// are: sampling is read-only).
func Evaluate(model string, s Sampler, problems []Problem, cfg EvalConfig) Result {
	if cfg.N <= 0 {
		cfg.N = 20
	}
	if cfg.MaxTokens <= 0 {
		cfg.MaxTokens = 768
	}
	res := Result{Model: model}
	res.Problems = par.MapSlice(cfg.Workers, problems, func(p Problem) ProblemResult {
		g := NewGrader()
		pr := ProblemResult{ID: p.ID, N: cfg.N}
		prompt := p.Prompt()
		for i := 0; i < cfg.N; i++ {
			completion := s.Sample(prompt, cfg.MaxTokens, int64(i))
			gr := g.Grade(p, completion)
			if gr.Pass {
				pr.Correct++
			} else if pr.FirstFailure == "" {
				pr.FirstFailure = gr.Reason
			}
		}
		return pr
	})
	return res
}

// Row is one Table II line.
type Row struct {
	Type       string // "Foundation Models" / "Verilog-Tuned Models" / "This Work"
	Model      string
	OpenSource string
	Size       string
	Pass1      float64
	Pass5      float64
	Pass10     float64
	Measured   bool
}

// PriorWorkRows returns Table II's quoted rows.
func PriorWorkRows() []Row {
	return []Row{
		{Type: "Foundation", Model: "GPT-4", OpenSource: "No", Size: "N/A", Pass1: 43.5, Pass5: 55.8, Pass10: 58.9},
		{Type: "Foundation", Model: "Codellama", OpenSource: "Yes", Size: "7B", Pass1: 18.2, Pass5: 22.7, Pass10: 24.3},
		{Type: "Foundation", Model: "DeepSeek-Coder", OpenSource: "Yes", Size: "6.7B", Pass1: 30.2, Pass5: 33.9, Pass10: 34.9},
		{Type: "Foundation", Model: "CodeQwen", OpenSource: "Yes", Size: "7B", Pass1: 22.5, Pass5: 26.1, Pass10: 28.0},
		{Type: "Verilog-Tuned", Model: "VeriGen", OpenSource: "Yes", Size: "16B", Pass1: 30.3, Pass5: 43.9, Pass10: 49.6},
		{Type: "Verilog-Tuned", Model: "RTLCoder-DS", OpenSource: "Yes", Size: "7B", Pass1: 41.6, Pass5: 50.1, Pass10: 53.4},
		{Type: "Verilog-Tuned", Model: "BetterV-CodeQwen", OpenSource: "No", Size: "7B", Pass1: 46.1, Pass5: 53.7, Pass10: 58.2},
		{Type: "Verilog-Tuned", Model: "CodeV-CodeQwen", OpenSource: "Yes", Size: "7B", Pass1: 53.2, Pass5: 65.1, Pass10: 68.5},
		{Type: "Verilog-Tuned", Model: "OriGen-DS", OpenSource: "Yes", Size: "7B", Pass1: 54.4, Pass5: 60.1, Pass10: 64.2},
		{Type: "Verilog-Tuned", Model: "CraftRTL-StarCoder2", OpenSource: "No", Size: "15B", Pass1: 68.0, Pass5: 72.4, Pass10: 74.6},
		{Type: "Verilog-Tuned", Model: "OpenLLM-RTL", OpenSource: "N/A", Size: "6.7B", Pass1: 42.8, Pass5: 51.6, Pass10: 55.0},
		{Type: "This Work (paper)", Model: "Llama-3.1-Instruct (4-bit)", OpenSource: "Yes", Size: "8B", Pass1: 14.8, Pass5: 23.0, Pass10: 25.9},
		{Type: "This Work (paper)", Model: "FreeV-Llama3.1 (4-bit)", OpenSource: "Yes", Size: "8B", Pass1: 15.5, Pass5: 30.9, Pass10: 36.0},
	}
}

// RenderTableII formats rows as the paper's Table II.
func RenderTableII(rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %-28s %-11s %-6s %7s %7s %7s\n",
		"Type", "Model", "OpenSource", "Size", "Pass@1", "Pass@5", "Pass@10")
	for _, r := range rows {
		tag := ""
		if r.Measured {
			tag = " (measured)"
		}
		fmt.Fprintf(&sb, "%-20s %-28s %-11s %-6s %7.1f %7.1f %7.1f%s\n",
			r.Type, r.Model, r.OpenSource, r.Size, r.Pass1, r.Pass5, r.Pass10, tag)
	}
	return sb.String()
}
