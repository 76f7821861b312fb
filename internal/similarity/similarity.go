// Package similarity implements the paper's copyright-infringement metric
// (§III-A): generated code is compared against a corpus of copyright-
// protected files using cosine similarity over term-frequency vectors; a
// score of 0.8 or higher marks the generation as originating from the
// protected corpus.
//
// Corpus lookups run on an inverted index (term -> postings with
// precomputed unit-normalized weights) with accumulator-based scoring, so a
// query touches only the postings of its own terms instead of intersecting
// its term map against every document vector. Cosine and NewVector remain
// as the reference implementation; index_test.go proves the index
// equivalent to a brute-force cosine scan on random corpora.
package similarity

import (
	"math"
	"strings"
	"sync"
	"unicode/utf8"
)

// DefaultThreshold is the paper's violation threshold.
const DefaultThreshold = 0.8

// Vector is a sparse TF vector keyed by term hash, pre-normalized to unit
// length at construction.
type Vector struct {
	terms map[string]float64
	norm  float64
}

// tokensRaw streams the raw comparison terms to fn without materializing
// a slice or lowercasing: word tokens are reported verbatim with a flag
// saying whether they carry upper case (word bytes are pure ASCII, so
// lowering is a byte map the caller can apply into scratch). Non-ASCII
// runes are lowered here — they are rare enough that the allocation does
// not matter — and reported with hasUpper=false.
func tokensRaw(text string, fn func(tok string, hasUpper bool)) {
	i := 0
	n := len(text)
	isWord := func(c byte) bool {
		return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '\''
	}
	for i < n {
		c := text[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isWord(c):
			start := i
			hasUpper := false
			for i < n && isWord(text[i]) {
				if text[i] >= 'A' && text[i] <= 'Z' {
					hasUpper = true
				}
				i++
			}
			fn(text[start:i], hasUpper)
		case c < utf8.RuneSelf:
			fn(text[i:i+1], false)
			i++
		default:
			r, size := utf8.DecodeRuneInString(text[i:])
			if r == utf8.RuneError && size <= 1 {
				fn(text[i:i+1], false) // invalid byte, kept verbatim
				i++
				break
			}
			fn(strings.ToLower(text[i:i+size]), false)
			i += size
		}
	}
}

// tokens streams Tokenize's terms to fn without materializing the slice —
// the zero-allocation core the indexing path iterates (substrings share
// the input's backing array; ToLower only allocates when a token actually
// carries upper case). For pure-ASCII word tokens strings.ToLower is
// exactly the A–Z byte map, so this emits the same terms the query path
// resolves through its scratch-buffer lowering.
func tokens(text string, fn func(string)) {
	tokensRaw(text, func(t string, hasUpper bool) {
		if hasUpper {
			t = strings.ToLower(t)
		}
		fn(t)
	})
}

// Tokenize splits code into comparison terms: identifiers/keywords, numbers,
// and operator glyphs. Whitespace and formatting differences vanish, so
// reformatted copies still match. Non-ASCII runes (comments, exotic
// identifiers) are emitted whole, one term per rune — splitting them into
// bytes would make every multi-byte script share continuation-byte terms
// and spuriously correlate unrelated files. Invalid UTF-8 bytes stay
// single-byte terms.
func Tokenize(text string) []string { return appendTokens(nil, text) }

// appendTokens is Tokenize into a caller's buffer.
func appendTokens(out []string, text string) []string {
	tokens(text, func(t string) { out = append(out, t) })
	return out
}

// termCounts builds the unigram+bigram term frequencies of text. order
// lists the distinct terms in first-appearance order, giving every
// consumer a deterministic iteration sequence.
func termCounts(text string) (counts map[string]float64, order []string) {
	toks := Tokenize(text)
	counts = make(map[string]float64, len(toks)*2)
	order = make([]string, 0, len(toks)*2)
	bump := func(t string) {
		if _, ok := counts[t]; !ok {
			order = append(order, t)
		}
		counts[t]++
	}
	for i, t := range toks {
		bump(t)
		if i+1 < len(toks) {
			bump(t + "\x00" + toks[i+1])
		}
	}
	return counts, order
}

func normOf(counts map[string]float64) float64 {
	var sum float64
	for _, f := range counts {
		sum += f * f //freehw:nolint mapord -- term counts are integer-valued; float64 sums of small ints are exact in any order
	}
	return math.Sqrt(sum)
}

// NewVector builds a unit-normalized TF vector over word unigrams and
// bigrams. Bigrams give the metric sensitivity to local structure so that
// different modules built from the same keyword vocabulary do not collide.
func NewVector(text string) Vector {
	counts, _ := termCounts(text)
	return Vector{terms: counts, norm: normOf(counts)}
}

// Cosine returns the cosine similarity in [0,1].
func Cosine(a, b Vector) float64 {
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	small, large := a.terms, b.terms
	if len(small) > len(large) {
		small, large = large, small
	}
	var dot float64
	for t, f := range small {
		if g, ok := large[t]; ok {
			dot += f * g //freehw:nolint mapord -- raw counts are integers, products and sums stay exact in any order
		}
	}
	return dot / (a.norm * b.norm)
}

// Match is the best corpus match for a query.
type Match struct {
	Name  string
	Index int
	Score float64
}

// query is a query text parsed once, before any segment sees it: its
// distinct unigrams (lowered, as Tokenize lowers them) and bigrams interned
// into a dictionary of its own under ids in first-appearance order — the
// canonical accumulation order every scoring path shares, which is what keeps
// Best, TopK and BestBatch byte-identical to each other. The order is a
// property of the query alone, not of any dictionary it resolves against: a
// document's contributions sum in the same sequence whether its postings live
// in one big segment or a small one, which keeps segmented scoring
// bit-identical to a one-segment rebuild. keys[id] is 0 for a unigram (their
// ordinals ascend with id, as in a segment) and pairKey+1 for a bigram, keyed
// by its unigrams' query ids; cnt[id] is the term's count, saturating at
// 2^32-1 rather than wrapping, and norm is the 2-norm of every count, the
// terms no segment knows included. A segment resolves it with one lookup per
// distinct unigram and one findPair per distinct bigram whose two unigrams it
// knows (Segment.cursors).
type query struct {
	d    dict
	keys []uint64
	cnt  []uint32
	norm float64
	low  []byte // scratch for lowering a word token
}

// queryPool holds parsed queries for reuse, their tables sized for a typical
// candidate: bench/'s have at most 104 distinct unigrams and 193 bigrams.
var queryPool = sync.Pool{New: func() any { return &query{d: newDict(128, 1024, 256)} }}

// parseQuery returns text parsed into a pooled query, which putQuery returns.
func parseQuery(text string) *query {
	q := queryPool.Get().(*query)
	prev := int32(-1)
	tokensRaw(text, func(t string, hasUpper bool) {
		if hasUpper {
			b := q.low[:0]
			for i := 0; i < len(t); i++ {
				ch := t[i]
				if ch >= 'A' && ch <= 'Z' {
					ch += 'a' - 'A'
				}
				b = append(b, ch)
			}
			q.low, t = b, bstr(b) // internTerm copies a new term out of the scratch
		}
		id := q.d.internTerm(t, q.d.next())
		q.add(id, 0)
		if prev >= 0 {
			k := pairKey(prev, id)
			q.add(q.d.internPair(k, q.d.next()), k+1)
		}
		prev = id
	})
	var sum float64
	for _, c := range q.cnt {
		v := float64(c)
		sum += v * v // integer counts: exact in any order
	}
	q.norm = math.Sqrt(sum)
	return q
}

// add counts one occurrence of term id, whose key is key1 if it is new.
func (q *query) add(id int32, key1 uint64) {
	if int(id) == len(q.cnt) {
		q.keys, q.cnt = append(q.keys, key1), append(q.cnt, 0)
	}
	if q.cnt[id] != math.MaxUint32 {
		q.cnt[id]++
	}
}

// putQuery returns q to the pool, empty. A query whose tables an outsized
// text grew past 4 096 slots is left to the collector instead, so that no
// query after it clears them.
func putQuery(q *query) {
	if len(q.d.ttab) > 1<<12 || len(q.d.pkey) > 1<<12 {
		return
	}
	q.d.reset()
	q.keys, q.cnt, q.norm = q.keys[:0], q.cnt[:0], 0
	queryPool.Put(q)
}

// matchWorse orders matches weakest-first: lower score, then higher index
// (ties keep the lower document index).
func matchWorse(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Index > b.Index
}

// matchHeap is a bounded min-heap whose root is the weakest kept match.
type matchHeap []Match

func (h matchHeap) Len() int           { return len(h) }
func (h matchHeap) Less(i, j int) bool { return matchWorse(h[i], h[j]) }
func (h matchHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *matchHeap) Push(x any)        { *h = append(*h, x.(Match)) }
func (h *matchHeap) Pop() any {
	old := *h
	n := len(old)
	m := old[n-1]
	*h = old[:n-1]
	return m
}
