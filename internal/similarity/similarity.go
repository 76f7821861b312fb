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

// unknownBase is the first effective id assigned to query tokens absent
// from the corpus dictionary (corpus ids are int32, so they stay below).
const unknownBase = uint64(1) << 31

// maxUnknownIDs caps how many distinct unknown query tokens receive their
// own effective id. Unigram effective ids must stay strictly below 2^32-1
// or a bigram occurrence key (prev+1)<<32|e would overflow into — or wrap
// past — the bigram key range and collide with unrelated terms. Tokens
// beyond the cap share one overflow id: for such degenerate queries
// (billions of distinct unknown tokens) the query norm merges their
// counts, which can only lower reported scores, never corrupt the key
// space. A variable, not a const, so tests can lower it.
var maxUnknownIDs = uint64(1) << 30

// A resolved query term packs a postings id (upper 32 bits) and its
// integer query count (lower 32 bits) into one uint64 — one word per term,
// no interface or closure per comparison.
func qtermID(qt uint64) int32  { return int32(qt >> 32) }
func qtermW(qt uint64) float64 { return float64(uint32(qt)) }

// packQterm clamps the count into the packed field's uint32 range instead
// of letting uint32(float64) truncate: a count beyond 2^32-1 (or below 0)
// would otherwise wrap to an arbitrary small weight — or, worse, leak into
// the id bits — for adversarially repetitive queries.
func packQterm(id int32, w float64) uint64 {
	if !(w > 0) {
		w = 0
	} else if w >= 1<<32 {
		w = 1<<32 - 1
	}
	return uint64(uint32(id))<<32 | uint64(uint32(w))
}

// qtab is a reusable open-addressed hash table counting query term keys
// (effective unigram ids and packed bigram occurrence keys). It replaces
// the PR 5 emit-sort-and-run-length scheme: counting ~2 tokens' worth of
// keys per token through a small linear-probe table is cheaper than
// sorting every occurrence, and only the distinct terms — typically a
// fraction of the occurrences — reach the final canonical sort. used
// records occupied slots in first-insertion order, so iteration is
// deterministic for a given query; nothing observable depends on table
// capacity.
type qtab struct {
	keys []uint64
	cnts []uint32
	used []int32
	low  []byte // scratch for lowercasing word tokens without allocating
}

func newQtab(capPow2 int) *qtab {
	return &qtab{keys: make([]uint64, capPow2), cnts: make([]uint32, capPow2), used: make([]int32, 0, capPow2/2)}
}

// bump increments key k's count, saturating at the packed-count ceiling
// instead of wrapping.
func (t *qtab) bump(k uint64) {
	if len(t.used)*2 >= len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	slot := (k * 0x9e3779b97f4a7c15) >> 32 & mask
	for {
		if t.cnts[slot] == 0 {
			t.keys[slot] = k
			t.cnts[slot] = 1
			t.used = append(t.used, int32(slot))
			return
		}
		if t.keys[slot] == k {
			if t.cnts[slot] != ^uint32(0) {
				t.cnts[slot]++
			}
			return
		}
		slot = (slot + 1) & mask
	}
}

// grow doubles capacity, preserving insertion order in used.
func (t *qtab) grow() {
	oldKeys, oldCnts, oldUsed := t.keys, t.cnts, t.used
	t.keys = make([]uint64, 2*len(oldKeys))
	t.cnts = make([]uint32, len(t.keys))
	t.used = make([]int32, 0, len(t.keys)/2)
	mask := uint64(len(t.keys) - 1)
	for _, s := range oldUsed {
		k := oldKeys[s]
		slot := (k * 0x9e3779b97f4a7c15) >> 32 & mask
		for t.cnts[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.keys[slot] = k
		t.cnts[slot] = oldCnts[s]
		t.used = append(t.used, int32(slot))
	}
}

// reset clears counts for reuse without touching capacity.
func (t *qtab) reset() {
	for _, s := range t.used {
		t.cnts[s] = 0
	}
	t.used = t.used[:0]
}

var qtabPool = sync.Pool{New: func() any { return newQtab(1024) }}

// unknownPool recycles the query-local unknown-token intern maps: clear()
// keeps the buckets, so steady-state queries with out-of-dictionary
// identifiers (every fresh candidate) stop paying a map allocation each.
var unknownPool = sync.Pool{New: func() any { return make(map[string]uint64) }}

// resolveQuery streams a query's tokens and resolves them against the
// index in one pass: the returned terms are the query's corpus-known
// unigrams and bigrams with their counts, in the query's first-appearance
// order — the canonical accumulation order every scoring path shares,
// which is what keeps Best, TopK, and BestBatch byte-identical to each
// other. Crucially that order is a property of the QUERY alone, not of
// the dictionary it resolved against: a document's contributions sum in
// the same sequence whether its postings live in one big corpus or in a
// small segment, which is what keeps segmented scoring (see Snapshot)
// bit-identical to a single-segment full rebuild. qnorm is
// the norm over ALL query terms, corpus-known or not. A token the corpus
// has never seen cannot appear in any corpus bigram either, so its
// bigrams are skipped without a lookup. qts reuses buf's capacity when it
// fits, so a pooled caller pays no per-query slice allocation.
func (g *Segment) resolveQuery(text string, buf []uint64) (qts []uint64, qnorm float64) {
	// Count one key per unigram and bigram occurrence. Unigram keys are
	// the effective id (< 2^32, dictionary id or interned unknown), bigram
	// keys pack the pair shifted into the upper half (>= 2^32) — the
	// unknown-id cap guarantees prev+1 < 2^32, so the two ranges cannot
	// collide.
	tab := qtabPool.Get().(*qtab)
	var unknown map[string]uint64
	defer func() {
		tab.reset()
		qtabPool.Put(tab)
		if unknown != nil {
			clear(unknown)
			unknownPool.Put(unknown)
		}
	}()
	// newUnknown interns a distinct out-of-dictionary token under a fresh
	// local id. Keys may alias the query text or copy scratch — the
	// deferred clear() drops every entry before the map returns to the
	// pool, so nothing outlives the call.
	newUnknown := func(key string) uint64 {
		lid := unknownBase + uint64(len(unknown))
		if lid >= unknownBase+maxUnknownIDs {
			lid = unknownBase + maxUnknownIDs // shared overflow id
		}
		unknown[key] = lid
		return lid
	}
	prev, seen := uint64(0), false
	tokensRaw(text, func(t string, hasUpper bool) {
		var e uint64
		if len(t) == 1 {
			ch := t[0]
			if hasUpper {
				ch += 'a' - 'A' // a 1-byte token with upper IS a single A-Z letter
			}
			if id := g.byteIDs[ch]; id >= 0 {
				e = uint64(id)
				tab.bump(e)
				if seen {
					tab.bump((prev+1)<<32 | e)
				}
				prev, seen = e, true
				return
			}
			// Out-of-dictionary single byte: rare — fall through to the
			// generic unknown-token path below.
		}
		if hasUpper {
			// Lower into scratch: the dictionary reads it in place and the map
			// probe below compiles to an allocation-free lookup; only a distinct
			// unknown token pays a string copy when it is interned.
			b := tab.low[:0]
			for i := 0; i < len(t); i++ {
				ch := t[i]
				if ch >= 'A' && ch <= 'Z' {
					ch += 'a' - 'A'
				}
				b = append(b, ch)
			}
			tab.low = b
			if id, _ := g.dict.findTerm(bstr(b)); id >= 0 {
				e = uint64(id)
			} else {
				if unknown == nil {
					unknown = unknownPool.Get().(map[string]uint64)
				}
				lid, have := unknown[string(b)]
				if !have {
					lid = newUnknown(string(b))
				}
				e = lid
			}
		} else if id, _ := g.dict.findTerm(t); id >= 0 {
			e = uint64(id)
		} else {
			if unknown == nil {
				unknown = unknownPool.Get().(map[string]uint64)
			}
			lid, have := unknown[t]
			if !have {
				lid = newUnknown(t)
			}
			e = lid
		}
		tab.bump(e)
		if seen {
			tab.bump((prev+1)<<32 | e)
		}
		prev, seen = e, true
	})
	if !seen {
		return nil, 0
	}
	var sum float64
	qts = buf[:0]
	if cap(qts) < len(tab.used) {
		qts = make([]uint64, 0, len(tab.used))
	}
	for _, slot := range tab.used {
		k, v := tab.keys[slot], float64(tab.cnts[slot])
		sum += v * v // integer counts: exact in any order
		switch {
		case k < unknownBase: // corpus-known unigram
			qts = append(qts, packQterm(int32(k), v))
		case k < 1<<32: // unknown unigram
		default: // bigram
			a, b := (k>>32)-1, k&0xffffffff
			if a < unknownBase && b < unknownBase {
				if id, _ := g.dict.findPair(a<<32 | b); id >= 0 {
					qts = append(qts, packQterm(id, v))
				}
			}
		}
	}
	return qts, math.Sqrt(sum)
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
