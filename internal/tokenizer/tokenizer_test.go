package tokenizer

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

var verilogSample = []string{
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
}

func trained(t testing.TB) *Tokenizer {
	t.Helper()
	return Train(verilogSample, TrainConfig{VocabSize: 400, MaxBytes: 1 << 16})
}

func TestRoundTrip(t *testing.T) {
	tok := trained(t)
	for _, text := range verilogSample {
		if got := tok.Decode(tok.Encode(text)); got != text {
			t.Fatalf("round trip failed:\n%q\n%q", text, got)
		}
	}
}

func TestRoundTripUnseenBytes(t *testing.T) {
	tok := trained(t)
	odd := "completely unseen \x00\x01\xff bytes λ and text"
	if got := tok.Decode(tok.Encode(odd)); got != odd {
		t.Fatalf("unseen byte round trip failed: %q", got)
	}
}

func TestCompression(t *testing.T) {
	tok := trained(t)
	r := tok.CompressionRatio(verilogSample[0])
	if r <= 1.5 {
		t.Fatalf("BPE should compress trained-domain text, ratio = %v", r)
	}
	if tok.VocabSize() <= 256 {
		t.Fatal("no merges learned")
	}
}

func TestLearnsDomainTokens(t *testing.T) {
	tok := trained(t)
	joined := strings.Join(tok.Vocab(), "\x00")
	// Common Verilog fragments should become single tokens.
	for _, want := range []string{"module", "input"} {
		if !strings.Contains(joined, want) {
			t.Errorf("vocabulary should contain a token covering %q", want)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	a := Train(verilogSample, TrainConfig{VocabSize: 300})
	b := Train(verilogSample, TrainConfig{VocabSize: 300})
	va, vb := a.Vocab(), b.Vocab()
	if len(va) != len(vb) {
		t.Fatalf("sizes differ: %d vs %d", len(va), len(vb))
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("vocab diverges at %d: %q vs %q", i, va[i], vb[i])
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]string{"a"}); err == nil {
		t.Fatal("short vocab must be rejected")
	}
	tok := trained(t)
	clone, err := New(tok.Vocab())
	if err != nil {
		t.Fatal(err)
	}
	text := verilogSample[1]
	if clone.Decode(clone.Encode(text)) != text {
		t.Fatal("cloned tokenizer broken")
	}
}

func TestEmptyInput(t *testing.T) {
	tok := trained(t)
	if ids := tok.Encode(""); len(ids) != 0 {
		t.Fatalf("encode empty = %v", ids)
	}
	if got := tok.Decode(nil); got != "" {
		t.Fatalf("decode nil = %q", got)
	}
}

func TestStats(t *testing.T) {
	tok := trained(t)
	s := tok.Stats()
	if s.VocabSize != tok.VocabSize() || s.MaxTokenLen < 2 || s.MeanTokenLen <= 1 {
		t.Fatalf("stats: %+v", s)
	}
	longest := tok.LongestTokens(5)
	if len(longest) != 5 || len(longest[0]) < len(longest[4]) {
		t.Fatalf("longest tokens wrong: %q", longest)
	}
}

// Property: Encode/Decode round-trips arbitrary byte strings.
func TestRoundTripProperty(t *testing.T) {
	tok := trained(t)
	fn := func(b []byte) bool {
		s := string(b)
		return tok.Decode(tok.Encode(s)) == s
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: token count never exceeds byte count.
func TestTokenCountBoundProperty(t *testing.T) {
	tok := trained(t)
	fn := func(b []byte) bool {
		return len(tok.Encode(string(b))) <= len(b)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// trainEveryChunk is Train as it was before it counted over distinct
// chunks: every chunk of the sample keeps its own sequence and every merge
// recounts all of them. Train must learn the same vocabulary.
func trainEveryChunk(corpus []string, cfg TrainConfig) []string {
	if cfg.VocabSize < 257 {
		cfg.VocabSize = 257
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 20
	}
	var sample []byte
	for _, text := range corpus {
		if len(sample)+len(text) > cfg.MaxBytes {
			text = text[:cfg.MaxBytes-len(sample)]
		}
		sample = append(sample, text...)
		if len(sample) >= cfg.MaxBytes {
			break
		}
	}
	vocab := make([]string, 256, cfg.VocabSize)
	for i := 0; i < 256; i++ {
		vocab[i] = string([]byte{byte(i)})
	}
	chunks := preTokenize(string(sample))
	seqs := make([][]int32, len(chunks))
	for ci, ch := range chunks {
		for i := 0; i < len(ch); i++ {
			seqs[ci] = append(seqs[ci], int32(ch[i]))
		}
	}
	type pair struct{ a, b int32 }
	for len(vocab) < cfg.VocabSize {
		counts := map[pair]int{}
		for _, seq := range seqs {
			for i := 0; i+1 < len(seq); i++ {
				counts[pair{seq[i], seq[i+1]}]++
			}
		}
		var best pair
		bestCnt := 0
		for p, c := range counts {
			if c > bestCnt || (c == bestCnt && (p.a < best.a || (p.a == best.a && p.b < best.b))) {
				best, bestCnt = p, c
			}
		}
		if bestCnt < 2 {
			break
		}
		newID := int32(len(vocab))
		vocab = append(vocab, vocab[best.a]+vocab[best.b])
		for ci, seq := range seqs {
			out := seq[:0]
			for i := 0; i < len(seq); {
				if i+1 < len(seq) && seq[i] == best.a && seq[i+1] == best.b {
					out = append(out, newID)
					i += 2
				} else {
					out = append(out, seq[i])
					i++
				}
			}
			seqs[ci] = out
		}
	}
	return vocab
}

// seededSample is a few thousand words of Verilog-shaped text: a small set
// of words repeated at skewed frequencies, the shape that makes counting
// over distinct chunks pay.
func seededSample(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	words := strings.Fields(strings.Join(verilogSample, " "))
	for i := 0; i < 600; i++ {
		words = append(words, fmt.Sprintf("sig_%x", rng.Intn(1<<16)))
	}
	seps := []string{" ", " ", " ", "  ", "\n", "\n  ", "\t", "\r\n"}
	docs := make([]string, 1+rng.Intn(4))
	for d := range docs {
		var sb strings.Builder
		for i, n := 0, 2000+rng.Intn(2000); i < n; i++ {
			// Squaring the draw skews toward the head of the word list.
			u := rng.Float64()
			sb.WriteString(words[int(u*u*float64(len(words)))])
			sb.WriteString(seps[rng.Intn(len(seps))])
		}
		docs[d] = sb.String()
	}
	return docs
}

func TestTrainMatchesEveryChunkReference(t *testing.T) {
	cases := []struct {
		name   string
		corpus []string
		cfg    TrainConfig
	}{
		{"seed 1", seededSample(1), TrainConfig{VocabSize: 600}},
		{"seed 2", seededSample(2), TrainConfig{VocabSize: 1024}},
		{"seed 3", seededSample(3), TrainConfig{VocabSize: 400, MaxBytes: 3000}},
		{"verilog sample", verilogSample, TrainConfig{VocabSize: 400, MaxBytes: 1 << 16}},
		{"empty corpus", nil, TrainConfig{VocabSize: 300}},
		{"empty document", []string{""}, TrainConfig{VocabSize: 300}},
		{"MaxBytes cuts a word", []string{"module module modu", "le module"}, TrainConfig{VocabSize: 300, MaxBytes: 17}},
		{"VocabSize 257", verilogSample, TrainConfig{VocabSize: 257}},
		{"VocabSize below the byte alphabet", verilogSample, TrainConfig{VocabSize: 10}},
		{"best count falls below 2 before the vocabulary fills", []string{"ab ab cd ab\nxy"}, TrainConfig{VocabSize: 1024}},
	}
	for _, tc := range cases {
		got, want := Train(tc.corpus, tc.cfg).Vocab(), trainEveryChunk(tc.corpus, tc.cfg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Train learned %d entries, the every-chunk reference %d; first difference at %d",
				tc.name, len(got), len(want), firstDiff(got, want))
		}
	}
	// The cases must reach what they name.
	if n := len(trainEveryChunk(cases[1].corpus, cases[1].cfg)); n != 1024 {
		t.Errorf("seed 2 filled %d of 1024 entries: the sample is too small to exercise a full run", n)
	}
	if n := len(trainEveryChunk(cases[9].corpus, cases[9].cfg)); n <= 256 || n >= 1024 {
		t.Errorf("the early-stop case learned %d entries, want some merges and an early stop", n)
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
