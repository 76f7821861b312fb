// Package tokenizer implements a byte-pair-encoding tokenizer: a vocabulary
// is learned by iteratively merging the most frequent adjacent token pair
// (as in the BPE tokenizers of Llama-class models), and text is encoded by
// greedy longest-match against the learned vocabulary via a byte trie.
//
// It is the tokenization substrate for internal/lm, standing in for the
// Llama-3.1 tokenizer of the paper's fine-tuning stack.
package tokenizer

import (
	"errors"
	"sort"
)

// Tokenizer holds a trained vocabulary. The zero value is unusable; train
// with Train or load a saved vocabulary with New.
type Tokenizer struct {
	vocab []string // id -> token bytes; ids 0..255 are single bytes
	trie  []trieNode
}

type trieNode struct {
	children [256]int32 // 0 = none (node 0 is the root; valid children >0)
	tokenID  int32      // -1 when this node is not a token end
}

// TrainConfig bounds vocabulary learning.
type TrainConfig struct {
	VocabSize int // total vocabulary entries including the 256 byte tokens
	MaxBytes  int // cap on training sample size (concatenated)
}

func isSpaceByte(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// preTokenize splits text into chunks no BPE token may cross: a word with
// its single leading space, or a lone whitespace character. Concatenating
// the chunks reproduces the input exactly. Word-boundary pre-tokenization is
// what keeps prompt tokenization aligned with training tokenization (as in
// GPT/Llama-style tokenizers), which the n-gram model's verbatim-
// memorization behavior depends on.
func preTokenize(text string) []string {
	var out []string
	i := 0
	n := len(text)
	for i < n {
		c := text[i]
		switch {
		case c == ' ' && i+1 < n && !isSpaceByte(text[i+1]):
			j := i + 1
			for j < n && !isSpaceByte(text[j]) {
				j++
			}
			out = append(out, text[i:j])
			i = j
		case isSpaceByte(c):
			out = append(out, text[i:i+1])
			i++
		default:
			j := i
			for j < n && !isSpaceByte(text[j]) {
				j++
			}
			out = append(out, text[i:j])
			i = j
		}
	}
	return out
}

// Train learns a BPE vocabulary from the corpus. Merges never cross the
// word-boundary chunks produced by preTokenize.
func Train(corpus []string, cfg TrainConfig) *Tokenizer {
	if cfg.VocabSize < 257 {
		cfg.VocabSize = 257
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 20
	}
	// Build the training sample.
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
	// Merges never cross a chunk, so a pair's count is its occurrences in
	// each distinct chunk times that chunk's frequency: one sequence per
	// distinct chunk (a few thousand) instead of one per chunk.
	index := map[string]int{}
	var seqs [][]int32
	var freq []int
	for _, ch := range preTokenize(string(sample)) {
		si, seen := index[ch]
		if !seen {
			si = len(seqs)
			index[ch] = si
			s := make([]int32, len(ch))
			for i := 0; i < len(ch); i++ {
				s[i] = int32(ch[i])
			}
			seqs = append(seqs, s)
			freq = append(freq, 0)
		}
		freq[si]++
	}

	type pair struct{ a, b int32 }
	for len(vocab) < cfg.VocabSize {
		counts := map[pair]int{}
		for si, seq := range seqs {
			for i := 0; i+1 < len(seq); i++ {
				counts[pair{seq[i], seq[i+1]}] += freq[si]
			}
		}
		// Deterministic best pair: max count, lexicographic tiebreak.
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
		// Rewrite every chunk sequence with the merged token.
		for ci, seq := range seqs {
			out := seq[:0]
			i := 0
			for i < len(seq) {
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
	t := &Tokenizer{vocab: vocab}
	t.buildTrie()
	return t
}

// New builds a tokenizer from a saved vocabulary (ids 0..255 must be the
// single-byte tokens).
func New(vocab []string) (*Tokenizer, error) {
	if len(vocab) < 256 {
		return nil, errors.New("tokenizer: vocabulary must include the 256 byte tokens")
	}
	for i := 0; i < 256; i++ {
		if vocab[i] != string([]byte{byte(i)}) {
			return nil, errors.New("tokenizer: ids 0..255 must be single bytes")
		}
	}
	t := &Tokenizer{vocab: append([]string(nil), vocab...)}
	t.buildTrie()
	return t, nil
}

func (t *Tokenizer) buildTrie() {
	t.trie = t.trie[:0]
	t.trie = append(t.trie, trieNode{tokenID: -1}) // root
	for id, tok := range t.vocab {
		cur := int32(0)
		for i := 0; i < len(tok); i++ {
			b := tok[i]
			next := t.trie[cur].children[b]
			if next == 0 {
				t.trie = append(t.trie, trieNode{tokenID: -1})
				next = int32(len(t.trie) - 1)
				t.trie[cur].children[b] = next
			}
			cur = next
		}
		t.trie[cur].tokenID = int32(id)
	}
}

// VocabSize returns the number of tokens.
func (t *Tokenizer) VocabSize() int { return len(t.vocab) }

// Vocab returns a copy of the vocabulary strings.
func (t *Tokenizer) Vocab() []string { return append([]string(nil), t.vocab...) }

// Token returns the byte string of a token id.
func (t *Tokenizer) Token(id int) string {
	if id < 0 || id >= len(t.vocab) {
		return ""
	}
	return t.vocab[id]
}

// Encode converts text into token ids by greedy longest match within each
// pre-tokenized chunk; every byte is always encodable because ids 0..255
// cover the byte alphabet.
func (t *Tokenizer) Encode(text string) []int32 {
	out := make([]int32, 0, len(text)/3+1)
	for _, chunk := range preTokenize(text) {
		i := 0
		for i < len(chunk) {
			cur := int32(0)
			bestID := int32(chunk[i]) // single byte fallback
			bestLen := 1
			for j := i; j < len(chunk); j++ {
				next := t.trie[cur].children[chunk[j]]
				if next == 0 {
					break
				}
				cur = next
				if id := t.trie[cur].tokenID; id >= 0 {
					bestID = id
					bestLen = j - i + 1
				}
			}
			out = append(out, bestID)
			i += bestLen
		}
	}
	return out
}

// Decode converts token ids back to text.
func (t *Tokenizer) Decode(ids []int32) string {
	var n int
	for _, id := range ids {
		if int(id) < len(t.vocab) {
			n += len(t.vocab[id])
		}
	}
	buf := make([]byte, 0, n)
	for _, id := range ids {
		if int(id) < len(t.vocab) {
			buf = append(buf, t.vocab[id]...)
		}
	}
	return string(buf)
}

// Stats summarizes the learned vocabulary for reports.
type Stats struct {
	VocabSize    int
	MaxTokenLen  int
	MeanTokenLen float64
}

// Stats computes vocabulary statistics.
func (t *Tokenizer) Stats() Stats {
	s := Stats{VocabSize: len(t.vocab)}
	total := 0
	for _, tok := range t.vocab {
		total += len(tok)
		if len(tok) > s.MaxTokenLen {
			s.MaxTokenLen = len(tok)
		}
	}
	if len(t.vocab) > 0 {
		s.MeanTokenLen = float64(total) / float64(len(t.vocab))
	}
	return s
}

// CompressionRatio reports bytes-per-token on a text (≥1; higher is better).
func (t *Tokenizer) CompressionRatio(text string) float64 {
	if len(text) == 0 {
		return 1
	}
	ids := t.Encode(text)
	if len(ids) == 0 {
		return 1
	}
	return float64(len(text)) / float64(len(ids))
}

// LongestTokens returns the n longest vocabulary entries (diagnostics).
func (t *Tokenizer) LongestTokens(n int) []string {
	v := append([]string(nil), t.vocab...)
	sort.Slice(v, func(i, j int) bool {
		if len(v[i]) != len(v[j]) {
			return len(v[i]) > len(v[j])
		}
		return v[i] < v[j]
	})
	if n > len(v) {
		n = len(v)
	}
	return v[:n]
}
