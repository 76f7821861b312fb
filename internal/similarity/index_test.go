package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// randDoc draws words from a small vocabulary so documents share many terms
// and the index's accumulators actually merge postings from most documents.
func randDoc(rng *rand.Rand, vocab, words int) string {
	var sb strings.Builder
	for i := 0; i < words; i++ {
		fmt.Fprintf(&sb, "tok%d ", rng.Intn(vocab))
		if rng.Intn(6) == 0 {
			sb.WriteString("; ")
		}
	}
	return sb.String()
}

// bruteBest is the reference implementation: full cosine scan, first
// strictly-greater score wins.
func bruteBest(names, texts []string, query string) Match {
	q := NewVector(query)
	best := Match{Index: -1}
	for i, text := range texts {
		s := Cosine(q, NewVector(text))
		if s > best.Score {
			best = Match{Name: names[i], Index: i, Score: s}
		}
	}
	return best
}

// The indexed Best must match a brute-force cosine scan on random corpora:
// same score within float tolerance, and the same document unless two
// documents tie at the top. Each corpus is built twice — batch and by
// incremental SegmentBuilder.Add — and the two must agree exactly.
func TestIndexBestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(60)
		names := make([]string, n)
		texts := make([]string, n)
		for i := range texts {
			names[i] = fmt.Sprintf("d%d", i)
			texts[i] = randDoc(rng, 30+rng.Intn(100), 20+rng.Intn(150))
		}
		// Force duplicates so top-ties exercise the tie-break.
		if n > 10 {
			texts[7] = texts[2]
		}
		corpus := NewCorpus(names, texts)
		inc := SnapshotOf(buildSegmented(names, texts, []int{n}), nil)
		if inc.Len() != corpus.Len() {
			t.Fatalf("trial %d: incremental build has %d docs, batch %d", trial, inc.Len(), corpus.Len())
		}
		for q := 0; q < 10; q++ {
			var query string
			if q%3 == 0 {
				query = texts[rng.Intn(n)] // exact hit
			} else {
				query = randDoc(rng, 60, 10+rng.Intn(80))
			}
			got := corpus.Best(query)
			if ib := inc.Best(query); ib != got {
				t.Fatalf("trial %d query %d: incremental %+v != batch %+v", trial, q, ib, got)
			}
			want := bruteBest(names, texts, query)
			if math.Abs(got.Score-want.Score) > 1e-9 {
				t.Fatalf("trial %d query %d: score %v != brute %v", trial, q, got.Score, want.Score)
			}
			if got.Index != want.Index {
				// Allowed only when the brute scores genuinely tie.
				qv := NewVector(query)
				alt := Cosine(qv, NewVector(texts[got.Index]))
				if math.Abs(alt-want.Score) > 1e-9 {
					t.Fatalf("trial %d query %d: index %d (%v) != brute %d (%v)",
						trial, q, got.Index, got.Score, want.Index, want.Score)
				}
			}
		}
	}
}

// The indexed TopK must return the same score sequence as sorting a full
// brute-force scan, for k below, at, and above the corpus size.
func TestIndexTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 40
	names := make([]string, n)
	texts := make([]string, n)
	for i := range texts {
		names[i] = fmt.Sprintf("d%d", i)
		texts[i] = randDoc(rng, 50, 30+rng.Intn(100))
	}
	texts[9] = texts[4] // exact duplicate: guaranteed score tie
	corpus := NewCorpus(names, texts)
	for q := 0; q < 15; q++ {
		query := randDoc(rng, 70, 10+rng.Intn(60))
		qv := NewVector(query)
		brute := make([]float64, n)
		for i, text := range texts {
			brute[i] = Cosine(qv, NewVector(text))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(brute)))
		// Zero-cosine documents are not matches: TopK must truncate
		// rather than pad with arbitrary corpus entries.
		positive := 0
		for _, s := range brute {
			if s > 0 {
				positive++
			}
		}
		for _, k := range []int{1, 3, n, n + 5} {
			ms := corpus.TopK(query, k)
			wantLen := k
			if wantLen > positive {
				wantLen = positive
			}
			if len(ms) != wantLen {
				t.Fatalf("k=%d: got %d matches, want %d", k, len(ms), wantLen)
			}
			for i, m := range ms {
				if math.Abs(m.Score-brute[i]) > 1e-9 {
					t.Fatalf("k=%d rank %d: score %v != brute %v", k, i, m.Score, brute[i])
				}
				// Deterministic ordering contract: descending score, then
				// ascending index.
				if i > 0 {
					prev := ms[i-1]
					if m.Score > prev.Score+1e-12 ||
						(m.Score == prev.Score && m.Index < prev.Index) {
						t.Fatalf("k=%d: ordering violated at rank %d: %+v after %+v", k, i, m, prev)
					}
				}
			}
		}
	}
}

// Empty queries and empty corpora must stay well-defined.
func TestIndexDegenerateCases(t *testing.T) {
	empty := NewCorpus(nil, nil)
	if m := empty.Best("module m; endmodule"); m.Index != -1 || m.Score != 0 {
		t.Fatalf("empty corpus best = %+v", m)
	}
	if ms := empty.TopK("x", 3); len(ms) != 0 {
		t.Fatalf("empty corpus topk = %+v", ms)
	}
	c := NewCorpus([]string{"a"}, []string{"module a; endmodule"})
	if m := c.Best(""); m.Index != -1 || m.Score != 0 {
		t.Fatalf("empty query best = %+v", m)
	}
	// An empty query matches nothing; it must not surface score-0 entries.
	if ms := c.TopK("", 2); len(ms) != 0 {
		t.Fatalf("empty query topk = %+v", ms)
	}
	// A corpus containing an empty document must never match it.
	c2 := NewCorpus([]string{"e", "x"}, []string{"", "alpha beta gamma"})
	if m := c2.Best("alpha beta"); m.Index != 1 {
		t.Fatalf("best should skip empty doc: %+v", m)
	}
}
