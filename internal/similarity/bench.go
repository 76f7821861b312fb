package similarity

import (
	"freehw/internal/par"
	"freehw/internal/vlog"
)

// Generator is anything that can complete a code prompt — the interface the
// copyright benchmark drives. internal/lm's models implement it.
type Generator interface {
	// Generate returns a completion of prompt of at most maxTokens tokens.
	Generate(prompt string, maxTokens int) string
}

// BenchmarkConfig mirrors §III-A of the paper.
type BenchmarkConfig struct {
	// PromptFraction is the leading fraction of each file used as prompt
	// (paper: 0.20).
	PromptFraction float64
	// MaxPromptWords caps the prompt length (paper: 64).
	MaxPromptWords int
	// NumPrompts is the benchmark size (paper: 100).
	NumPrompts int
	// Threshold is the violation cosine threshold (paper: 0.8).
	Threshold float64
	// MaxTokens bounds each generation.
	MaxTokens int
	// Workers bounds benchmark concurrency (0 = GOMAXPROCS). Results are
	// identical for any worker count.
	Workers int
}

// DefaultBenchmarkConfig returns the paper's settings.
func DefaultBenchmarkConfig() BenchmarkConfig {
	return BenchmarkConfig{
		PromptFraction: 0.20,
		MaxPromptWords: 64,
		NumPrompts:     100,
		Threshold:      DefaultThreshold,
		MaxTokens:      512,
	}
}

// Prompt is one benchmark probe derived from a protected file.
type Prompt struct {
	SourceName string
	Text       string // comment-stripped leading fragment
}

// BuildPrompts constructs the benchmark prompt set from protected files:
// comments are stripped (they carry the copyright text itself), then the
// first PromptFraction of the file (≤ MaxPromptWords words) becomes the
// prompt. Files are taken in deterministic round-robin order until
// NumPrompts prompts exist.
func BuildPrompts(names, texts []string, cfg BenchmarkConfig) []Prompt {
	var eligible []Prompt
	for i := range texts {
		// Cycling only matters when the corpus is short; once NumPrompts
		// files qualify, later files can never appear in the output.
		if cfg.NumPrompts > 0 && len(eligible) >= cfg.NumPrompts {
			break
		}
		stripped := vlog.StripComments(texts[i])
		if len(vlog.Words(stripped)) < 8 {
			continue // too short to probe
		}
		name := ""
		if i < len(names) {
			name = names[i]
		}
		eligible = append(eligible, Prompt{
			SourceName: name,
			Text:       vlog.FirstFraction(stripped, cfg.PromptFraction, cfg.MaxPromptWords),
		})
	}
	if len(eligible) == 0 || cfg.NumPrompts <= 0 {
		return nil
	}
	prompts := make([]Prompt, 0, cfg.NumPrompts)
	for i := 0; len(prompts) < cfg.NumPrompts; i++ {
		prompts = append(prompts, eligible[i%len(eligible)])
	}
	return prompts
}

// ProbeResult is the outcome of one prompt.
type ProbeResult struct {
	Prompt     Prompt
	Generation string
	Best       Match
	Violation  bool
}

// Report summarizes a benchmark run (Figure 3's per-model datapoint).
type Report struct {
	Model         string
	NumPrompts    int
	NumViolations int
	Results       []ProbeResult
}

// ViolationRate is violations / prompts.
func (r Report) ViolationRate() float64 {
	if r.NumPrompts == 0 {
		return 0
	}
	return float64(r.NumViolations) / float64(r.NumPrompts)
}

// RunBenchmark probes gen with every prompt and scores each generation
// against the protected corpus. Only the model's own output is scored (the
// prompt is by construction a fragment of a protected file; including it
// would flag every model).
//
// Prompts are independent, so generation + scoring fans out across
// cfg.Workers goroutines; results keep prompt order, making the Report
// byte-identical to a serial run. Generators must be safe for concurrent
// Generate calls (internal/lm models are: sampling is read-only).
func RunBenchmark(model string, gen Generator, corpus *Snapshot, prompts []Prompt, cfg BenchmarkConfig) Report {
	rep := Report{Model: model, NumPrompts: len(prompts)}
	rep.Results = par.MapSlice(cfg.Workers, prompts, func(p Prompt) ProbeResult {
		g := gen.Generate(p.Text, cfg.MaxTokens)
		best := corpus.Best(g)
		return ProbeResult{
			Prompt:     p,
			Generation: g,
			Best:       best,
			Violation:  best.Score >= cfg.Threshold,
		}
	})
	for _, res := range rep.Results {
		if res.Violation {
			rep.NumViolations++
		}
	}
	return rep
}
