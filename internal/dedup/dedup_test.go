package dedup

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestJaccardIdentical(t *testing.T) {
	a := Shingles("module counter input clk output q endmodule", 3)
	if got := Jaccard(a, a); got != 1 {
		t.Fatalf("self Jaccard = %f", got)
	}
}

func TestJaccardDisjoint(t *testing.T) {
	a := Shingles("alpha beta gamma delta epsilon zeta", 3)
	b := Shingles("one two three four five six", 3)
	if got := Jaccard(a, b); got != 0 {
		t.Fatalf("disjoint Jaccard = %f", got)
	}
}

func TestJaccardEmpty(t *testing.T) {
	e := Shingles("", 3)
	a := Shingles("x y z w", 3)
	if got := Jaccard(e, e); got != 1 {
		t.Fatalf("empty-empty = %f", got)
	}
	if got := Jaccard(e, a); got != 0 {
		t.Fatalf("empty-nonempty = %f", got)
	}
}

func randWords(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("w%03d", rng.Intn(500))
	}
	return out
}

// MinHash signature similarity should estimate Jaccard within tolerance.
func TestMinHashEstimatesJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewMinHasher(256, 42)
	for trial := 0; trial < 20; trial++ {
		base := randWords(rng, 300)
		mutated := make([]string, len(base))
		copy(mutated, base)
		// Mutate a fraction of words.
		for i := 0; i < trial*10; i++ {
			mutated[rng.Intn(len(mutated))] = fmt.Sprintf("mut%04d", rng.Intn(10000))
		}
		ta, tb := strings.Join(base, " "), strings.Join(mutated, " ")
		sa, sb := Shingles(ta, 5), Shingles(tb, 5)
		exact := Jaccard(sa, sb)
		est := SigSimilarity(h.Sign(sa), h.Sign(sb))
		if diff := est - exact; diff > 0.12 || diff < -0.12 {
			t.Errorf("trial %d: exact=%.3f est=%.3f", trial, exact, est)
		}
	}
}

func TestIndexExactDuplicates(t *testing.T) {
	idx := NewIndex(Options{Seed: 1})
	text := "module m (input a, output y); assign y = ~a; endmodule " +
		strings.Repeat("wire pad_signal_for_shingles; ", 20)
	r1 := idx.Add("first", text)
	if !r1.Unique {
		t.Fatal("first doc must be unique")
	}
	r2 := idx.Add("second", text)
	if r2.Unique {
		t.Fatal("exact duplicate not caught")
	}
	if r2.DupOfKey != "first" || r2.Similarity != 1 {
		t.Fatalf("dup result: %+v", r2)
	}
}

func TestIndexNearDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := randWords(rng, 400)
	idx := NewIndex(Options{Seed: 1, Threshold: 0.85})
	idx.Add("orig", strings.Join(base, " "))

	// ~2% mutation: should still be a duplicate at 0.85.
	near := make([]string, len(base))
	copy(near, base)
	for i := 0; i < 4; i++ {
		near[rng.Intn(len(near))] = "changed"
	}
	if r := idx.Add("near", strings.Join(near, " ")); r.Unique {
		t.Fatalf("near duplicate not caught (sim=%.3f)", idx.PairSimilarity(strings.Join(base, " "), strings.Join(near, " ")))
	}

	// Heavy mutation: must be unique.
	far := randWords(rng, 400)
	if r := idx.Add("far", strings.Join(far, " ")); !r.Unique {
		t.Fatalf("unrelated doc flagged as dup of %s (%.3f)", r.DupOfKey, r.Similarity)
	}
}

// keptIndices feeds texts through a fresh index and returns the indices of
// the retained documents, in order.
func keptIndices(texts []string, opt Options) []int {
	idx := NewIndex(opt)
	var kept []int
	for i, t := range texts {
		if idx.Add("", t).Unique {
			kept = append(kept, i)
		}
	}
	return kept
}

func TestDedupOrderPreserved(t *testing.T) {
	texts := []string{
		"aaa bbb ccc ddd eee fff ggg hhh",
		"one two three four five six seven eight",
		"aaa bbb ccc ddd eee fff ggg hhh", // dup of 0
		"nine ten eleven twelve thirteen fourteen fifteen sixteen",
	}
	kept := keptIndices(texts, Options{Seed: 9})
	want := []int{0, 1, 3}
	if len(kept) != len(want) {
		t.Fatalf("kept %v", kept)
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Fatalf("kept %v, want %v", kept, want)
		}
	}
}

func TestIndexDeterminism(t *testing.T) {
	texts := make([]string, 50)
	rng := rand.New(rand.NewSource(11))
	for i := range texts {
		texts[i] = strings.Join(randWords(rng, 100), " ")
	}
	// Inject duplicates.
	texts[10] = texts[3]
	texts[40] = texts[22]
	a := keptIndices(texts, Options{Seed: 5})
	b := keptIndices(texts, Options{Seed: 5})
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
	if len(a) != 48 {
		t.Fatalf("want 48 unique, got %d", len(a))
	}
}

// Property: Jaccard is symmetric and bounded in [0,1].
func TestJaccardProperties(t *testing.T) {
	fn := func(a, b string) bool {
		sa, sb := Shingles(a, 3), Shingles(b, 3)
		j1, j2 := Jaccard(sa, sb), Jaccard(sb, sa)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a document is always a duplicate of itself once added.
func TestIndexSelfDuplicateProperty(t *testing.T) {
	fn := func(words []string) bool {
		if len(words) == 0 {
			return true
		}
		text := strings.Join(words, " ")
		idx := NewIndex(Options{Seed: 2})
		idx.Add("a", text)
		r := idx.Add("b", text)
		return !r.Unique
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// corpusWithDups builds a synthetic corpus with exact duplicates, near
// duplicates (including duplicates-of-duplicates, which exercise the
// "only kept documents are candidates" rule), and unique documents.
func corpusWithDups(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	fresh := func() []string {
		words := make([]string, 120)
		for i := range words {
			words[i] = fmt.Sprintf("w%04d", rng.Intn(3000))
		}
		return words
	}
	var bases [][]string
	for len(out) < n {
		switch {
		case len(bases) == 0 || rng.Float64() < 0.4:
			b := fresh()
			bases = append(bases, b)
			out = append(out, strings.Join(b, " "))
		case rng.Float64() < 0.5:
			// Exact duplicate of a prior document.
			out = append(out, out[rng.Intn(len(out))])
		default:
			// Near duplicate of a prior base, mutation rate around the
			// threshold so some land just above and some just below.
			b := bases[rng.Intn(len(bases))]
			m := make([]string, len(b))
			copy(m, b)
			for k := 0; k < 1+rng.Intn(8); k++ {
				m[rng.Intn(len(m))] = fmt.Sprintf("mut%05d", rng.Intn(99999))
			}
			bases = append(bases, m)
			out = append(out, strings.Join(m, " "))
		}
	}
	return out
}

// AddAll must decide every document as the quadratic definition does: kept
// iff no *kept* earlier document reaches the threshold on exact Jaccard. A
// rejected document is not a candidate, so a duplicate of a duplicate is
// kept when it matches no kept document; the corpora must contain such a
// case or the test proves nothing.
func TestAddAllOnlyKeptDocumentsAreCandidates(t *testing.T) {
	dupOfDupKept := 0
	for _, seed := range []int64{1, 2, 3} {
		texts := corpusWithDups(seed, 700)
		opt := Options{Seed: 1, Threshold: 0.85}
		idx := NewIndex(opt)
		prep := idx.Preparer()
		keys := make([]string, len(texts))
		preps := make([]Prepared, len(texts))
		for i, tx := range texts {
			keys[i] = fmt.Sprintf("doc%04d", i)
			preps[i] = prep.Prepare(tx)
		}
		got := idx.AddAll(keys, preps)

		var kept, rejected []int
		var wantKeys []string
		for i := range texts {
			best := 0.0
			for _, j := range kept {
				best = max(best, Jaccard(preps[i].Shingles, preps[j].Shingles))
			}
			unique := best < opt.Threshold
			if got[i].Unique != unique {
				t.Fatalf("seed %d doc %d: unique=%v, quadratic reference says %v (best %.3f)", seed, i, got[i].Unique, unique, best)
			}
			if !unique {
				if got[i].Similarity != best {
					t.Fatalf("seed %d doc %d: similarity %v, want %v", seed, i, got[i].Similarity, best)
				}
				rejected = append(rejected, i)
				continue
			}
			for _, j := range rejected {
				if Jaccard(preps[i].Shingles, preps[j].Shingles) >= opt.Threshold {
					dupOfDupKept++
					break
				}
			}
			kept = append(kept, i)
			wantKeys = append(wantKeys, keys[i])
		}
		if !reflect.DeepEqual(idx.Keys(), wantKeys) || idx.Len() != len(wantKeys) {
			t.Fatalf("seed %d: kept keys diverged from the quadratic reference", seed)
		}
	}
	if dupOfDupKept == 0 {
		t.Fatal("no kept document duplicates a rejected one; the corpora do not exercise the rule")
	}
}

// A batch consisting only of duplicates of a kept document must not grow
// the index, and each result names that document.
func TestAddAllAllDuplicates(t *testing.T) {
	idx := NewIndex(Options{Seed: 1})
	prep := idx.Preparer()
	text := strings.Repeat("some padded verilog-ish words here ", 30)
	idx.AddPrepared("orig", prep.Prepare(text))
	keys := []string{"a", "b", "c"}
	preps := []Prepared{prep.Prepare(text), prep.Prepare(text), prep.Prepare(text)}
	for i, r := range idx.AddAll(keys, preps) {
		if r.Unique || r.DupOfKey != "orig" {
			t.Fatalf("doc %d: %+v", i, r)
		}
	}
	if idx.Len() != 1 {
		t.Fatalf("index grew to %d", idx.Len())
	}
}

// refAddPrepared is AddPrepared as it was before the size bound: every
// candidate verified, a map for the ones already met.
func refAddPrepared(x *Index, key string, p Prepared) AddResult {
	seen := map[int]bool{}
	bestSim, bestID := 0.0, -1
	for b := range x.buckets {
		for _, id := range x.buckets[b][p.Bands[b]] {
			if seen[id] {
				continue
			}
			seen[id] = true
			if sim := Jaccard(p.Shingles, x.docs[id].shingles); sim > bestSim {
				bestSim, bestID = sim, id
			}
		}
	}
	if bestID >= 0 && bestSim >= x.threshold {
		return AddResult{DupOfKey: x.docs[bestID].key, Similarity: bestSim}
	}
	id := len(x.docs)
	x.docs = append(x.docs, doc{key: key, shingles: p.Shingles})
	x.seen = append(x.seen, 0)
	for b := range x.buckets {
		x.buckets[b][p.Bands[b]] = append(x.buckets[b][p.Bands[b]], id)
	}
	return AddResult{Unique: true}
}

// The size bound skips only candidates that could not change the result:
// the same fate, dup-of key and similarity as verifying every candidate, over
// near-duplicates of many lengths, empty documents among them, at a high
// and a low threshold, and one low enough that the best so far decides.
func TestSizeBoundIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := strings.Fields("module wire reg assign always begin end if else case input output clk rst q d en")
	var texts []string
	for i := 0; i < 600; i++ {
		var toks []string
		if len(texts) > 0 && rng.Intn(4) > 0 { // a near-duplicate of an earlier text, a few tokens longer or shorter
			toks = strings.Fields(texts[rng.Intn(len(texts))])
			for k := rng.Intn(4); k > 0 && len(toks) > 0; k-- {
				toks = append(toks[:rng.Intn(len(toks))], toks[rng.Intn(len(toks)):]...)
			}
			for k := rng.Intn(4); k > 0; k-- {
				toks = append(toks, vocab[rng.Intn(len(vocab))])
			}
		} else if rng.Intn(20) > 0 { // else fresh, or now and then empty
			for k := rng.Intn(60); k > 0; k-- {
				toks = append(toks, vocab[rng.Intn(len(vocab))])
			}
		}
		texts = append(texts, strings.Join(toks, " "))
	}
	for _, threshold := range []float64{0.85, 0.3, 0.01} {
		opt := Options{Threshold: threshold, Seed: 3}
		got, want := NewIndex(opt), NewIndex(opt)
		dups := 0
		for i, text := range texts {
			p := got.Preparer().Prepare(text)
			key := fmt.Sprint("f", i)
			g, w := got.AddPrepared(key, p), refAddPrepared(want, key, p)
			if g != w {
				t.Fatalf("threshold %v, text %d %q: %+v, verifying every candidate %+v", threshold, i, text, g, w)
			}
			if !g.Unique {
				dups++
			}
		}
		if dups < len(texts)/10 {
			t.Fatalf("threshold %v: only %d duplicates of %d; the test exercises too little", threshold, dups, len(texts))
		}
	}
}

// The bound's edges, on hand-made candidates that share a band with the
// document offered: a candidate whose bound is only just above the best so
// far is still verified and wins; two empty documents are duplicates
// (Jaccard 1, bound 0/0), an empty and a non-empty one are not; and a
// generation counter that wraps forgets the stamps it made.
func TestSizeBoundEdges(t *testing.T) {
	span := func(lo, hi int) (s ShingleSet) {
		for v := lo; v <= hi; v++ {
			s = append(s, uint64(v))
		}
		return s
	}
	x := NewIndex(Options{})
	unique := uint64(1 << 32)
	prep := func(sh ShingleSet, shared map[int]uint64) Prepared {
		p := Prepared{Shingles: sh, Bands: make([]uint64, len(x.buckets))}
		for b := range p.Bands {
			if h, ok := shared[b]; ok {
				p.Bands[b] = h
			} else {
				unique++
				p.Bands[b] = unique
			}
		}
		return p
	}
	for _, step := range []struct {
		key    string
		p      Prepared
		want   AddResult
		before func()
	}{
		{key: "d90", p: prep(span(1, 90), map[int]uint64{0: 7}), want: AddResult{Unique: true}},
		{key: "d91", p: prep(span(1, 91), map[int]uint64{1: 8}), want: AddResult{Unique: true}},
		{key: "p", p: prep(span(1, 100), map[int]uint64{0: 7, 1: 8}), want: AddResult{DupOfKey: "d91", Similarity: 0.91}},
		{key: "e", p: prep(nil, map[int]uint64{2: 9}), want: AddResult{Unique: true}},
		{key: "f", p: prep(span(1, 3), map[int]uint64{2: 9}), want: AddResult{Unique: true}},
		{key: "g", p: prep(nil, map[int]uint64{2: 9}), want: AddResult{DupOfKey: "e", Similarity: 1}},
		{key: "h", p: prep(span(1, 90), map[int]uint64{0: 7}), want: AddResult{DupOfKey: "d90", Similarity: 1},
			before: func() { x.seen[0], x.gen = 1, ^uint32(0) }},
	} {
		if step.before != nil {
			step.before()
		}
		if got := x.AddPrepared(step.key, step.p); got != step.want {
			t.Fatalf("%s: %+v, want %+v", step.key, got, step.want)
		}
	}
}

// overlap against the plain merge: for random sorted sets and every need up
// to min(|a|,|b|), empty sets included, it stops (false) exactly when the
// intersection is below need, and otherwise returns the intersection.
func TestOverlapStopsOnlyWhenShort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randSet := func() ShingleSet {
		s := ShingleSet{}
		for v := uint64(0); v < 30; v++ {
			if rng.Intn(3) == 0 {
				s = append(s, v)
			}
		}
		return s[:rng.Intn(len(s)+1)]
	}
	for trial := 0; trial < 3000; trial++ {
		a, b := randSet(), randSet()
		exact := 0
		for _, v := range a {
			if b.Contains(v) {
				exact++
			}
		}
		for need := 0; need <= min(len(a), len(b)); need++ {
			if got, ok := overlap(a, b, need); ok != (exact >= need) || ok && got != exact {
				t.Fatalf("overlap(%v, %v, %d) = %d, %v; the intersection is %d", a, b, need, got, ok, exact)
			}
		}
	}
}

// Positional filtering's edges, every candidate sharing band 0 with every
// other and each step checked against verifying every candidate and against
// the fate worked out by hand: a candidate that passes the size bound but
// falls short mid-merge; one whose only mismatch is its last shingle; a
// Jaccard of exactly the threshold (17/20), which is a duplicate; and a
// second candidate that only ties the best so far, which must not displace
// the first one met.
func TestPositionalFilterEdges(t *testing.T) {
	span := func(lo, hi int) (s ShingleSet) {
		for v := lo; v <= hi; v++ {
			s = append(s, uint64(v))
		}
		return s
	}
	x, ref := NewIndex(Options{}), NewIndex(Options{})
	prep := func(sh ShingleSet) Prepared {
		p := Prepared{Shingles: sh, Bands: make([]uint64, len(x.buckets))}
		for b := 1; b < len(p.Bands); b++ {
			p.Bands[b] = uint64(len(sh))<<8 | uint64(b)
		}
		return p
	}
	for _, step := range []struct {
		key  string
		sh   ShingleSet
		want AddResult
	}{
		{"a", span(1, 100), AddResult{Unique: true}},
		{"shifted", span(16, 115), AddResult{Unique: true}}, // size bound 1, Jaccard 85/115
		{"last-off", append(span(1, 99), 1000), AddResult{DupOfKey: "a", Similarity: 99.0 / 101}},
		{"b", span(500, 519), AddResult{Unique: true}},
		{"at-threshold", span(500, 516), AddResult{DupOfKey: "b", Similarity: 17.0 / 20}},
		{"c1", append(span(2001, 2095), span(2201, 2205)...), AddResult{Unique: true}},
		{"c2", append(span(2006, 2100), span(2301, 2305)...), AddResult{Unique: true}}, // 90/110 to c1
		{"tie", span(2001, 2100), AddResult{DupOfKey: "c1", Similarity: 95.0 / 105}},
	} {
		p := prep(step.sh)
		want := refAddPrepared(ref, step.key, p)
		if got := x.AddPrepared(step.key, p); got != want || got != step.want {
			t.Fatalf("%s: %+v, verifying every candidate %+v, by hand %+v", step.key, got, want, step.want)
		}
	}
}

// SigSimilarity estimates Jaccard similarity from two signatures.
func SigSimilarity(a, b Signature) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// PairSimilarity computes the exact Jaccard similarity of two texts using
// the index's shingling parameters.
func (x *Index) PairSimilarity(a, b string) float64 {
	return Jaccard(Shingles(a, x.prep.shingleK), Shingles(b, x.prep.shingleK))
}
