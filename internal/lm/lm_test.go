package lm

import (
	"bytes"
	"strings"
	"testing"

	"freehw/internal/tokenizer"
)

var trainDocs = []string{
	`module counter(input clk, input rst, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 8'd0;
    else q <= q + 1;
  end
endmodule`,
	`module mux2(input a, b, sel, output y);
  assign y = sel ? b : a;
endmodule`,
	`module adder(input [7:0] a, b, output [8:0] sum);
  assign sum = a + b;
endmodule`,
	`module shifter(input clk, input d, output reg [7:0] q);
  always @(posedge clk) q <= {q[6:0], d};
endmodule`,
}

func trainedModel(t testing.TB, temp float64) *Model {
	t.Helper()
	tok := tokenizer.Train(trainDocs, tokenizer.TrainConfig{VocabSize: 512})
	cfg := DefaultConfig()
	cfg.Temperature = temp
	m := NewModel("test", tok, cfg)
	m.Train(trainDocs)
	return m
}

func TestMemorizationOfTrainingText(t *testing.T) {
	// The core mechanism of the paper's copyright experiment: a low-
	// temperature model regurgitates training text from a prefix.
	m := trainedModel(t, 0.001)
	prompt := "module counter(input clk, input rst,"
	out := m.Generate(prompt, 400)
	full := prompt + out
	if !strings.Contains(full, "q <= q + 1") {
		t.Fatalf("model failed to memorize training continuation:\n%s", full)
	}
	if !strings.HasSuffix(out, "endmodule") {
		t.Fatalf("generation must stop at endmodule:\n%q", out)
	}
}

func TestNoMemorizationOfUnseenText(t *testing.T) {
	m := trainedModel(t, 0.001)
	out := m.Generate("module fifo_ctrl(input wr_en, rd_en,", 200)
	if strings.Contains(out, "secret") {
		t.Fatal("impossible")
	}
	// The continuation cannot contain tokens for code never seen; it may be
	// empty or generic, but must not panic and must terminate.
	if len(out) > 4096 {
		t.Fatal("unbounded generation")
	}
}

func TestSampleSeedsDiffer(t *testing.T) {
	m := trainedModel(t, 0.9)
	prompt := "module "
	seen := map[string]bool{}
	for i := int64(0); i < 10; i++ {
		seen[m.Sample(prompt, 60, i)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("high-temperature samples should vary, got %d distinct", len(seen))
	}
	// Same seed must reproduce exactly.
	if m.Sample(prompt, 60, 3) != m.Sample(prompt, 60, 3) {
		t.Fatal("sampling is not deterministic per seed")
	}
}

func TestContinualPretraining(t *testing.T) {
	tok := tokenizer.Train(trainDocs, tokenizer.TrainConfig{VocabSize: 512})
	base := NewModel("base", tok, DefaultConfig())
	base.Train([]string{"the quick brown fox jumps over the lazy dog. " +
		"it was the best of times, it was the worst of times."})
	tuned := base.Clone("tuned")
	tuned.TrainWeighted(trainDocs, 3)

	if base.Contexts() >= tuned.Contexts() {
		t.Fatal("continual pre-training should add contexts")
	}
	// The tuned model completes Verilog; the base cannot.
	prompt := "module counter(input clk, input rst,"
	baseOut := base.Generate(prompt, 200)
	tunedOut := tuned.Generate(prompt, 200)
	if strings.Contains(baseOut, "posedge") {
		t.Fatalf("base model should not know Verilog: %q", baseOut)
	}
	if !strings.Contains(tunedOut, "posedge") {
		t.Fatalf("tuned model should complete Verilog: %q", tunedOut)
	}
	// Cross-entropy on domain text must improve.
	ceBase := base.CrossEntropy(trainDocs[0])
	ceTuned := tuned.CrossEntropy(trainDocs[0])
	if ceTuned >= ceBase {
		t.Fatalf("cross-entropy should drop: base=%.2f tuned=%.2f", ceBase, ceTuned)
	}
}

func TestQuantization(t *testing.T) {
	m := trainedModel(t, 0.001)
	q := m.Quantize("test-4bit", 4)
	if q.Config().QuantBits != 4 {
		t.Fatal("quant bits not recorded")
	}
	if q.Contexts() != m.Contexts() {
		t.Fatal("quantization must preserve contexts")
	}
	// Quantized model still memorizes strongly-supported continuations.
	out := q.Generate("module counter(input clk, input rst,", 400)
	if !strings.Contains(out, "posedge") {
		t.Fatalf("quantized model lost domain knowledge: %q", out)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := trainedModel(t, 0.001)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Name != m.Name || m2.Contexts() != m.Contexts() || m2.TrainTokens() != m.TrainTokens() {
		t.Fatalf("metadata mismatch: %s %d %d", m2.Name, m2.Contexts(), m2.TrainTokens())
	}
	prompt := "module counter(input clk, input rst,"
	if m.Generate(prompt, 300) != m2.Generate(prompt, 300) {
		t.Fatal("loaded model generates differently")
	}
}

// Save must emit byte-identical output for the same model: artifacts are
// checksummed and diffed, and the tables are maps, so serialization walks
// them in sorted key order rather than leaking iteration order into the
// gob stream.
func TestSaveBytesDeterministic(t *testing.T) {
	m := trainedModel(t, 0.001)
	var first bytes.Buffer
	if err := m.Save(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := m.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("save %d produced different bytes (%d vs %d): map order leaked into the gob stream", i, first.Len(), again.Len())
		}
	}
}

func TestStopSequence(t *testing.T) {
	m := trainedModel(t, 0.001)
	out := m.Generate("module mux2(input a, b, sel,", 400)
	if !strings.HasSuffix(out, "endmodule") {
		t.Fatalf("should stop at endmodule: %q", out)
	}
	if strings.Count(out, "endmodule") != 1 {
		t.Fatalf("should stop at FIRST endmodule: %q", out)
	}
}

func TestTopK(t *testing.T) {
	tok := tokenizer.Train(trainDocs, tokenizer.TrainConfig{VocabSize: 512})
	cfg := DefaultConfig()
	cfg.TopK = 1
	cfg.Temperature = 2.0 // high temp, but TopK=1 forces determinism
	m := NewModel("topk", tok, cfg)
	m.Train(trainDocs)
	p := "module counter(input clk, input rst,"
	if m.Sample(p, 50, 1) != m.Sample(p, 50, 2) {
		t.Fatal("TopK=1 must be deterministic across seeds")
	}
}

func TestCrossEntropyOrdering(t *testing.T) {
	m := trainedModel(t, 0.2)
	inDomain := m.CrossEntropy(trainDocs[1])
	outDomain := m.CrossEntropy("völlig anderes deutsches Zeug ohne Verilog überhaupt 12345")
	if inDomain >= outDomain {
		t.Fatalf("in-domain CE %.2f should beat out-of-domain %.2f", inDomain, outDomain)
	}
}

func TestEmptyModelGenerates(t *testing.T) {
	tok := tokenizer.Train(trainDocs, tokenizer.TrainConfig{VocabSize: 300})
	m := NewModel("empty", tok, DefaultConfig())
	if out := m.Generate("module", 50); out != "" {
		t.Fatalf("untrained model should generate nothing, got %q", out)
	}
}

func TestTrainWeightedEquivalence(t *testing.T) {
	tok := tokenizer.Train(trainDocs, tokenizer.TrainConfig{VocabSize: 512})
	a := NewModel("a", tok, DefaultConfig())
	a.TrainWeighted(trainDocs, 2)
	b := NewModel("b", tok, DefaultConfig())
	b.Train(trainDocs)
	b.Train(trainDocs)
	if a.Contexts() != b.Contexts() {
		t.Fatalf("weight-2 should equal two epochs: %d vs %d", a.Contexts(), b.Contexts())
	}
	p := "module adder(input [7:0]"
	if a.Generate(p, 100) != b.Generate(p, 100) {
		t.Fatal("weighted training should equal repeated epochs")
	}
}
