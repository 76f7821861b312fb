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

// Byte classes of the term scanner: an ASCII word byte (identifier, keyword
// or number), cUpper also set on A–Z, and cSpace; every other ASCII byte is a
// term of its own, and a byte from 0x80 up starts a rune.
const (
	cWord = 1 << iota
	cUpper
	cSpace
)

var termClass = func() (c [256]uint8) {
	for _, b := range "abcdefghijklmnopqrstuvwxyz0123456789_$'" {
		c[b] = cWord
	}
	for b := 'A'; b <= 'Z'; b++ {
		c[b] = cWord | cUpper
	}
	for _, b := range " \t\n\r" {
		c[b] = cSpace
	}
	return c
}()

// termScanner is the one tokenizer: the builder, the query parser and
// Tokenize each drive its next loop over a text. A term is a substring of the
// text unless a word carries ASCII upper case, which is lowered into the reused
// scratch low, valid until the next call (the dictionaries copy what they
// keep); only a non-ASCII rune goes through strings.ToLower.
type termScanner struct {
	text string
	i    int
	low  []byte
}

// next returns the next term, or false at the end of the text.
func (s *termScanner) next() (string, bool) {
	text, i := s.text, s.i
	for i < len(text) && termClass[text[i]] == cSpace {
		i++
	}
	if i == len(text) {
		return "", false
	}
	start, up := i, uint8(0)
	for ; i < len(text) && termClass[text[i]]&cWord != 0; i++ {
		up |= termClass[text[i]]
	}
	switch s.i = i; {
	case up&cUpper != 0:
		s.low = append(s.low[:0], text[start:i]...)
		for j, c := range s.low {
			if termClass[c]&cUpper != 0 {
				s.low[j] = c + 'a' - 'A'
			}
		}
		return bstr(s.low), true
	case i > start:
		return text[start:i], true
	}
	size := 1 // not a word: an ASCII byte, a rune or an invalid byte, each a term
	if text[i] >= utf8.RuneSelf {
		_, size = utf8.DecodeRuneInString(text[i:])
	}
	if s.i = i + size; size > 1 {
		return strings.ToLower(text[i:s.i]), true
	}
	return text[i:s.i], true
}

// Tokenize splits code into comparison terms: identifiers/keywords, numbers,
// and operator glyphs, lowered. Whitespace and formatting differences vanish,
// so reformatted copies still match. Non-ASCII runes (comments, exotic
// identifiers) are emitted whole, one term per rune — splitting them into
// bytes would make every multi-byte script share continuation-byte terms
// and spuriously correlate unrelated files. Invalid UTF-8 bytes stay
// single-byte terms.
func Tokenize(text string) []string {
	out, s := []string(nil), termScanner{text: text}
	for t, ok := s.next(); ok; t, ok = s.next() {
		out = append(out, t)
		s.low = nil // each lowered term keeps its own bytes
	}
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
	low  []byte // the term scanner's scratch
}

// queryPool holds parsed queries for reuse, their tables sized for a typical
// candidate: bench/'s have at most 104 distinct unigrams and 193 bigrams.
var queryPool = sync.Pool{New: func() any { return &query{d: newDict(128, 1024, 256)} }}

// parseQuery returns text parsed into a pooled query, which putQuery returns.
func parseQuery(text string) *query {
	q := queryPool.Get().(*query)
	prev := int32(-1)
	s := termScanner{text: text, low: q.low}
	for t, ok := s.next(); ok; t, ok = s.next() {
		id := q.d.internTerm(t, q.d.next())
		q.add(id, 0)
		if prev >= 0 {
			k := pairKey(prev, id)
			q.add(q.d.internPair(k, q.d.next()), k+1)
		}
		prev = id
	}
	q.low = s.low
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
