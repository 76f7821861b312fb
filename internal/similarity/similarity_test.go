package similarity

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestCosineIdentical(t *testing.T) {
	v := NewVector("module m (input a, output y); assign y = ~a; endmodule")
	if got := Cosine(v, v); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self cosine = %v", got)
	}
}

func TestCosineDisjoint(t *testing.T) {
	a := NewVector("alpha beta gamma")
	b := NewVector("delta epsilon zeta")
	if got := Cosine(a, b); got != 0 {
		t.Fatalf("disjoint cosine = %v", got)
	}
}

func TestCosineEmpty(t *testing.T) {
	e := NewVector("")
	a := NewVector("x")
	if got := Cosine(e, a); got != 0 {
		t.Fatalf("empty cosine = %v", got)
	}
}

func TestCosineFormattingInvariance(t *testing.T) {
	a := NewVector("assign y = a + b;")
	b := NewVector("assign   y=a+b ;")
	if got := Cosine(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("formatting should not matter: %v", got)
	}
}

func TestCosineDiscriminatesModules(t *testing.T) {
	counter := `module counter(input clk, rst, output reg [7:0] q);
  always @(posedge clk) if (rst) q <= 0; else q <= q + 1; endmodule`
	shifter := `module shifter(input clk, input d, output reg [7:0] q);
  always @(posedge clk) q <= {q[6:0], d}; endmodule`
	near := strings.Replace(counter, "counter", "counter2", 1)
	c := NewVector(counter)
	if s := Cosine(c, NewVector(near)); s < 0.9 {
		t.Fatalf("renamed copy similarity too low: %v", s)
	}
	if s := Cosine(c, NewVector(shifter)); s > 0.8 {
		t.Fatalf("different modules too similar: %v", s)
	}
}

func TestCorpusBest(t *testing.T) {
	corpus := NewCorpus(
		[]string{"a", "b", "c"},
		[]string{
			"module a(input x, output y); assign y = x; endmodule",
			"module b(input clk, output reg [3:0] q); always @(posedge clk) q <= q + 1; endmodule",
			"module c(input [7:0] d, output [7:0] q); assign q = ~d; endmodule",
		})
	m := corpus.Best("module b2(input clk, output reg [3:0] q); always @(posedge clk) q <= q + 1; endmodule")
	if m.Name != "b" {
		t.Fatalf("best = %+v", m)
	}
	if m.Score < 0.9 {
		t.Fatalf("score too low: %v", m.Score)
	}
}

func TestTopKOrdering(t *testing.T) {
	corpus := NewCorpus(nil, []string{"a b c d", "a b x y", "p q r s"})
	// "p q r s" shares no term with the query, so only two docs match.
	ms := corpus.TopK("a b c d", 3)
	if len(ms) != 2 {
		t.Fatalf("got %d matches", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Score > ms[i-1].Score {
			t.Fatalf("not sorted: %+v", ms)
		}
	}
	if ms[0].Index != 0 {
		t.Fatalf("wrong best: %+v", ms[0])
	}
}

func TestTokenizeNonASCIIRunes(t *testing.T) {
	toks := Tokenize("assign y = a; // 加法器")
	for _, tok := range toks {
		if !utf8.ValidString(tok) {
			t.Fatalf("tokenizer split a rune into bytes: %q in %q", tok, toks)
		}
	}
	found := false
	for _, tok := range toks {
		if tok == "加" {
			found = true
		}
	}
	if !found {
		t.Fatalf("multi-byte rune not emitted as a term: %q", toks)
	}
	// Two comments over disjoint rune sets must not correlate. The old
	// per-byte tokenizer shared UTF-8 continuation bytes between them and
	// reported a spuriously high cosine.
	a := NewVector("// 加法器模块选择")
	b := NewVector("// 乗算回路設計図")
	// Both start with "//", so strip the shared ASCII prefix influence by
	// checking the score stays far below the violation threshold.
	if got := Cosine(a, b); got >= 0.5 {
		t.Fatalf("disjoint non-ASCII comments correlate: cosine = %v", got)
	}
	// Invalid UTF-8 must not panic and must keep distinct bytes distinct.
	bad := Tokenize("\xff\xfe\xff")
	if len(bad) != 3 || bad[0] != "\xff" || bad[1] != "\xfe" {
		t.Fatalf("invalid UTF-8 tokens = %q", bad)
	}
}

func TestTopKNoZeroPadding(t *testing.T) {
	corpus := NewCorpus(
		[]string{"a", "b", "c", "d"},
		[]string{"alpha beta gamma", "alpha delta", "p q r s", "t u v w"})
	// Only two documents share any term with the query; k=4 must not pad
	// the result with score-0 entries for "c" and "d".
	ms := corpus.TopK("alpha beta", 4)
	if len(ms) != 2 {
		t.Fatalf("want 2 matches, got %+v", ms)
	}
	for _, m := range ms {
		if m.Score == 0 {
			t.Fatalf("zero-score entry reported as match: %+v", m)
		}
	}
	if ms[0].Name != "a" || ms[1].Name != "b" {
		t.Fatalf("wrong matches: %+v", ms)
	}
	// A query sharing nothing with the corpus matches nothing.
	if ms := corpus.TopK("zz yy xx", 3); len(ms) != 0 {
		t.Fatalf("disjoint query matched: %+v", ms)
	}
}

func TestBuildPrompts(t *testing.T) {
	// A protected file with a copyright header comment: the header must not
	// leak into the prompt.
	text := `// Copyright (c) MegaChip. All rights reserved. CONFIDENTIAL.
module secret_alu(input [31:0] a, b, input [2:0] op, output reg [31:0] y);
  always @* case (op)
    3'd0: y = a + b;
    3'd1: y = a - b;
    default: y = 0;
  endcase
endmodule`
	texts := make([]string, 5)
	names := make([]string, 5)
	for i := range texts {
		texts[i] = strings.Replace(text, "secret_alu", fmt.Sprintf("secret_alu_%d", i), 1)
		names[i] = fmt.Sprintf("f%d", i)
	}
	cfg := DefaultBenchmarkConfig()
	cfg.NumPrompts = 3
	prompts := BuildPrompts(names, texts, cfg)
	if len(prompts) != 3 {
		t.Fatalf("got %d prompts", len(prompts))
	}
	for _, p := range prompts {
		if strings.Contains(p.Text, "Copyright") || strings.Contains(p.Text, "CONFIDENTIAL") {
			t.Fatalf("copyright comment leaked into prompt: %q", p.Text)
		}
		if n := len(strings.Fields(p.Text)); n > cfg.MaxPromptWords {
			t.Fatalf("prompt too long: %d words", n)
		}
	}
}

// BuildPrompts promises round-robin cycling: a corpus smaller than
// NumPrompts must still yield exactly NumPrompts prompts (the paper's 100),
// repeating files in deterministic order, not silently fewer.
func TestBuildPromptsShortCorpusCycles(t *testing.T) {
	texts := []string{
		"module a(input x, output y); assign y = x & x | x; endmodule",
		"module b(input p, output q); assign q = p ^ p ^ p; endmodule",
	}
	names := []string{"a.v", "b.v"}
	cfg := DefaultBenchmarkConfig()
	cfg.NumPrompts = 5
	prompts := BuildPrompts(names, texts, cfg)
	if len(prompts) != 5 {
		t.Fatalf("want 5 prompts from 2 files, got %d", len(prompts))
	}
	order := []string{"a.v", "b.v", "a.v", "b.v", "a.v"}
	for i, p := range prompts {
		if p.SourceName != order[i] {
			t.Fatalf("prompt %d from %s, want %s", i, p.SourceName, order[i])
		}
	}
	// Cycled prompts are exact repeats of their first occurrence.
	if prompts[0].Text != prompts[2].Text || prompts[1].Text != prompts[3].Text {
		t.Fatal("cycled prompts differ from first pass")
	}
	// Degenerate inputs stay well-defined.
	if got := BuildPrompts(nil, nil, cfg); got != nil {
		t.Fatalf("no eligible files should yield nil, got %+v", got)
	}
	cfg.NumPrompts = 0
	if got := BuildPrompts(names, texts, cfg); got != nil {
		t.Fatalf("NumPrompts=0 should yield nil, got %+v", got)
	}
}

// echoGen returns a fixed continuation regardless of the prompt.
type echoGen struct{ text string }

func (g echoGen) Generate(prompt string, maxTokens int) string { return g.text }

func TestRunBenchmarkViolationDetection(t *testing.T) {
	protected := `module secret(input [7:0] k, output [7:0] y);
  wire [7:0] stage1 = k ^ 8'h5A;
  wire [7:0] stage2 = {stage1[3:0], stage1[7:4]};
  assign y = stage2 + 8'd17;
endmodule`
	corpus := NewCorpus([]string{"secret.v"}, []string{protected})
	cfg := DefaultBenchmarkConfig()
	cfg.NumPrompts = 1
	prompts := BuildPrompts([]string{"secret.v"}, []string{protected}, cfg)

	// A model that regurgitates the protected file violates.
	leak := RunBenchmark("leaky", echoGen{protected}, corpus, prompts, cfg)
	if leak.NumViolations != 1 {
		t.Fatalf("leaky model should violate: %+v", leak.Results[0].Best)
	}
	// A model producing unrelated code does not.
	clean := RunBenchmark("clean", echoGen{"always @(posedge clk) count <= count + 1; // nothing alike"}, corpus, prompts, cfg)
	if clean.NumViolations != 0 {
		t.Fatalf("clean model should not violate: score=%v", clean.Results[0].Best.Score)
	}
	if leak.ViolationRate() != 1 || clean.ViolationRate() != 0 {
		t.Fatal("violation rates wrong")
	}
}

// Property: cosine is symmetric and within [0, 1+eps].
func TestCosineProperties(t *testing.T) {
	fn := func(a, b string) bool {
		va, vb := NewVector(a), NewVector(b)
		s1, s2 := Cosine(va, vb), Cosine(vb, va)
		return math.Abs(s1-s2) < 1e-9 && s1 >= 0 && s1 <= 1+1e-9
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: self-similarity of non-empty text is 1.
func TestCosineSelfProperty(t *testing.T) {
	fn := func(words []string) bool {
		text := strings.Join(words, " ")
		v := NewVector(text)
		if strings.TrimSpace(text) == "" {
			return Cosine(v, v) == 0
		}
		return math.Abs(Cosine(v, v)-1) < 1e-9
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
