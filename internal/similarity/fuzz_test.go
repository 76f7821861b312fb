package similarity

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzScoringEquivalence pins the pruned scorer to two references on
// arbitrary corpora and queries:
//
//  1. The exhaustive accumulator must agree bit for bit — same indices,
//     same float64 scores, zero tolerance. Pruning's claim is that it
//     computes the identical sums in the identical order, just skipping
//     documents it can prove lose.
//  2. The public map-based oracle (NewVector + Cosine) must agree within
//     float tolerance. The oracle shares no code with the postings index —
//     it recomputes tf vectors in hash-map order — so it catches indexing
//     bugs (dropped terms, wrong counts, bad norms) that both index paths
//     would share. Map iteration randomizes addition order, hence the
//     small epsilon.
//
// The corpus mixes diverse documents, forced duplicates (tie pressure),
// and a document derived from the query itself (near-dup pressure). It is
// built with a fuzzed worker count, which BuildSegment now ignores.
//
// A third phase pins the segmented index: the same documents
// appended as a fuzzed number of segments, a fuzzed tombstone pattern
// removed and a fuzzed adjacent run merged, as the publisher derives its
// snapshots, must return Best/TopK BIT-identical (== on the float64 scores)
// to a single-segment full rebuild of the live documents — and BestBatch
// over the query and three siblings must return what Best returns for each.
// oracleTopK, which shares no code with the query parser or the resolver,
// must agree bit for bit with Best and TopK on that snapshot, on the rebuild
// and on the live documents split into two and into eight segments, so some
// terms are in one segment only.
func FuzzScoringEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), "module top(input clk); wire a = b ^ c; endmodule")
	f.Add(int64(42), uint8(3), "assign out = in1 & in2;")
	f.Add(int64(7), uint8(20), "zzz unknown tokens only qqq")
	f.Add(int64(99), uint8(1), "")
	f.Add(int64(5), uint8(12), "always @(posedge clk) q <= d;")
	f.Add(int64(3), uint8(9), "MODULE Mod_1(INPUT CLK_1); WIRE SIG_1_0 = CLK_1 ^ SIG_1_0; // größe ÜBER \xff\xfe ` # ~")

	f.Fuzz(func(t *testing.T, seed int64, nDocs uint8, query string) {
		n := int(nDocs)%24 + 2
		rng := rand.New(rand.NewSource(seed))
		names := make([]string, n)
		texts := make([]string, n)
		for i := range texts {
			names[i] = fmt.Sprintf("d%d.v", i)
			texts[i] = diverseVerilog(rng, int(seed&0xffff)+i)
		}
		// Tie pressure: duplicate one document.
		texts[n-1] = texts[rng.Intn(n)]
		// Near-dup pressure: one document borrows the query's text.
		if len(query) > 0 {
			texts[rng.Intn(n)] = query + "\nwire fuzz_tail = 1'b1;\n"
		}
		workers := 1 + int(seed&3)
		c := BuildSegment(names, texts, workers)

		for _, k := range []int{1, 3, n} {
			pruned := c.searchTopK(query, k, searchPruned, nil)
			exhaustive := c.searchTopK(query, k, searchExhaustive, nil)
			if len(pruned) != len(exhaustive) {
				t.Fatalf("k=%d: pruned %d matches, exhaustive %d", k, len(pruned), len(exhaustive))
			}
			for i := range pruned {
				if pruned[i] != exhaustive[i] {
					t.Fatalf("k=%d rank %d: pruned %+v != exhaustive %+v", k, i, pruned[i], exhaustive[i])
				}
			}
		}

		// Independent oracle: brute-force cosine over public vectors.
		const tol = 1e-9
		qv := NewVector(query)
		oracle := make([]float64, n)
		var oracleMax float64
		for i, txt := range texts {
			oracle[i] = Cosine(qv, NewVector(txt))
			if oracle[i] > oracleMax {
				oracleMax = oracle[i]
			}
		}
		best := SnapshotOf([]*Segment{c}, nil).Best(query)
		if best.Index < 0 {
			if oracleMax > tol {
				t.Fatalf("Best found nothing but oracle max is %v", oracleMax)
			}
			return
		}
		if d := math.Abs(best.Score - oracle[best.Index]); d > tol {
			t.Fatalf("Best doc %d: index score %v vs oracle %v (Δ%g)", best.Index, best.Score, oracle[best.Index], d)
		}
		if best.Score < oracleMax-tol {
			t.Fatalf("Best score %v but oracle says doc scoring %v exists", best.Score, oracleMax)
		}
		// Ties resolve to the lowest index: no earlier doc may score
		// meaningfully >= the winner.
		for i := 0; i < best.Index; i++ {
			if oracle[i] > best.Score+tol {
				t.Fatalf("doc %d scores %v > winner %d at %v", i, oracle[i], best.Index, best.Score)
			}
		}

		// Phase 3: segmented snapshot equivalence. Split, tombstone, merge —
		// then demand bit-identity against the filtered full rebuild.
		srng := rand.New(rand.NewSource(seed ^ 0x5e9))
		parts := 1 + srng.Intn(n)
		snap := new(Snapshot)
		off := 0
		for p := 0; p < parts; p++ {
			sz := (n - off) / (parts - p)
			if p == parts-1 {
				sz = n - off
			}
			b := NewSegmentBuilder()
			for i := off; i < off+sz; i++ {
				b.Add(names[i], texts[i])
			}
			if b.Len() > 0 {
				snap = snap.Append(b.Seal())
			}
			off += sz
		}
		dead := make([]bool, n)
		var removeNames []string
		for i := range names {
			if srng.Intn(3) == 0 {
				removeNames = append(removeNames, names[i])
				dead[i] = true
			}
		}
		snap, _ = snap.Remove(removeNames)
		if snap.Segments() > 1 && srng.Intn(2) == 0 {
			lo := srng.Intn(snap.Segments() - 1)
			snap = snap.ReplaceRun(snap, lo, lo+1, MergeSegments(
				[]*Segment{snap.Segment(lo), snap.Segment(lo + 1)}, [][]uint64{snap.SegmentDead(lo), snap.SegmentDead(lo + 1)}))
		}
		var liveNames, liveTexts []string
		for i := range names {
			if !dead[i] {
				liveNames = append(liveNames, names[i])
				liveTexts = append(liveTexts, texts[i])
			}
		}
		full := SealCorpus(liveNames, liveTexts, workers)
		if snap.Len() != full.Len() {
			t.Fatalf("segmented live %d != rebuilt %d", snap.Len(), full.Len())
		}
		if sb, fb := snap.Best(query), full.Best(query); sb != fb {
			t.Fatalf("segmented Best %+v != rebuilt %+v (parts=%d)", sb, fb, parts)
		}
		// The query among three siblings, as a generation harness sends them:
		// one pass per segment for the group, the same answers one by one.
		group := []string{
			texts[srng.Intn(n)] + "\nwire sibling_tail;",
			query,
			diverseVerilog(srng, int(seed&0xffff)+n),
			query + " " + texts[srng.Intn(n)],
		}
		for i, m := range snap.BestBatch(workers, group) {
			if sb, fb := snap.Best(group[i]), full.Best(group[i]); m != sb || m != fb {
				t.Fatalf("BestBatch slot %d %+v != segmented Best %+v / rebuilt Best %+v (parts=%d)", i, m, sb, fb, parts)
			}
		}
		parts2, parts8 := splitSizes(len(liveNames), 2, srng), splitSizes(len(liveNames), 8, srng)
		for _, s := range []*Snapshot{snap, full, appendSegs(buildSegmented(liveNames, liveTexts, parts2)), appendSegs(buildSegmented(liveNames, liveTexts, parts8))} {
			segs := oracleSegs(s)
			for _, q := range append(group, query) {
				want := oracleTopK(segs, q, 3)
				matchesEqual(t, fmt.Sprintf("%d segments, TopK(%q, 3) against the oracle", s.Segments(), q), s.TopK(q, 3), want)
				if best := s.Best(q); len(want) > 0 && best != want[0] || len(want) == 0 && best.Index >= 0 {
					t.Fatalf("%d segments: Best(%q) = %+v, the oracle's top %+v", s.Segments(), q, best, want)
				}
			}
		}
		for _, k := range []int{1, 3, n} {
			sk, fk := snap.TopK(query, k), full.TopK(query, k)
			if len(sk) != len(fk) {
				t.Fatalf("k=%d: segmented %d matches, rebuilt %d", k, len(sk), len(fk))
			}
			for i := range sk {
				if sk[i] != fk[i] {
					t.Fatalf("k=%d rank %d: segmented %+v != rebuilt %+v", k, i, sk[i], fk[i])
				}
			}
		}
	})
}

// FuzzDecodeSegment feeds DecodeSegment bytes it did not write. Seeds are
// valid encodings (built, merged, empty); for any mutation either the
// decoder rejects it with ErrCorruptSnapshot, or what it accepted is a
// segment every consumer can use: Best and TopK run, it merges with
// itself, and it re-encodes to exactly the input (so an accepted encoding
// is canonical). Either way decoding allocates no more than a small
// multiple of the input — a count field cannot make it reserve memory the
// sections do not back.
//
// Run with -fuzzminimizetime 0: the engine otherwise spends its default 60 s
// per interesting input shrinking four byte slices one byte at a time, and
// a short run executes nothing else.
func FuzzDecodeSegment(f *testing.F) {
	addSeed := func(g *Segment) {
		secs := g.EncodeSections()
		f.Add(secs[0], secs[1], secs[2], secs[3])
	}
	g := BuildSegment(
		[]string{"a.v", "b.v", "empty.v"},
		[]string{
			"module a(input x, output y); assign y = ~x; endmodule",
			"module b(input x, output y); assign y = x & x; endmodule",
			"", // a name with no postings
		}, 1)
	addSeed(g)
	addSeed(MergeSegments([]*Segment{g, g}, [][]uint64{{0b001}, nil}))
	addSeed(BuildSegment(nil, nil, 1))

	f.Fuzz(func(t *testing.T, s0, s1, s2, s3 []byte) {
		in := [][]byte{s0, s1, s2, s3}
		size := uint64(len(s0) + len(s1) + len(s2) + len(s3))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := DecodeSegment(in)
		runtime.ReadMemStats(&after)
		// Worst ratios: an offset, a tmax and an isUni flag (13 bytes) per
		// 4-byte empty list; 1.25 to 2.5 presized table slots of 12 bytes (the
		// table is a power of two at most 4/5 full) per claimed bigram, which
		// costs 12 bytes of dictionary and 4 of the list count it may not
		// exceed. A list's postings cost 12·df bytes of section and take 12·df
		// of arena, or, dense (2·df >= docs), a row of 8·docs <= 16·df bytes
		// and 8 of dense and ddf: at most 2× the 4+12·df bytes that pay. The
		// constant covers the 256-entry byte table, the empty tables and the
		// fuzz worker's own noise.
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*size+64<<10 {
			t.Fatalf("decoding %d input bytes allocated %d", size, got)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("decode error %v is not ErrCorruptSnapshot", err)
			}
			return
		}

		// Queries made of the segment's own terms, in id order (roughly the
		// first document's token order, so bigrams resolve too).
		terms := make([]string, g.lists())
		for o, id := range g.dict.tid {
			terms[id] = string(g.dict.termBytes(o))
		}
		all := strings.Join(terms, " ")
		snap := SnapshotOf([]*Segment{g}, nil)
		for _, q := range []string{all, all[:len(all)/2], "module m(input clk); endmodule", ""} {
			best := snap.Best(q)
			top := snap.TopK(q, 5)
			if len(top) > 0 && best.Index < 0 {
				t.Fatalf("TopK found %+v but Best found nothing", top[0])
			}
			for _, m := range append(top, best) {
				if m.Index >= g.Docs() {
					t.Fatalf("match %+v outside the segment's %d docs", m, g.Docs())
				}
			}
		}

		// MergeSegments returns nil when no document is live.
		if merged := MergeSegments([]*Segment{g, g}, nil); merged == nil {
			if g.Docs() != 0 {
				t.Fatalf("self-merge of %d docs produced no segment", g.Docs())
			}
		} else if got := merged.Docs(); got != 2*g.Docs() {
			t.Fatalf("self-merge holds %d docs, want %d", got, 2*g.Docs())
		}

		out := g.EncodeSections()
		for i := range in {
			if !bytes.Equal(out[i], in[i]) {
				t.Fatalf("section %d re-encodes differently: accepted %x, wrote %x", i, in[i], out[i])
			}
		}
	})
}

// refTokens is the tokenizer the term scanner replaced, kept as its
// reference: word runs of [A-Za-z0-9_$'] lowered by strings.ToLower, every
// other ASCII byte but whitespace a term, a valid non-ASCII rune a term
// lowered by strings.ToLower, an invalid byte a term as it is.
func refTokens(text string) []string {
	isWord := func(c byte) bool {
		return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '\''
	}
	var out []string
	for i := 0; i < len(text); {
		c := text[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isWord(c):
			start := i
			for i < len(text) && isWord(text[i]) {
				i++
			}
			out = append(out, strings.ToLower(text[start:i]))
		case c < utf8.RuneSelf:
			out = append(out, text[i:i+1])
			i++
		default:
			r, size := utf8.DecodeRuneInString(text[i:])
			if r == utf8.RuneError && size <= 1 {
				out = append(out, text[i:i+1])
				i++
				break
			}
			out = append(out, strings.ToLower(text[i:i+size]))
			i += size
		}
	}
	return out
}

// FuzzTermScanner pins the term scanner to refTokens on arbitrary bytes:
// Tokenize returns the same terms; driven with its scratch reused, as the
// builder and the query parser drive it, each term is the reference's until
// the next call; and both dictionaries fed by it — a one-document segment's
// and a parsed query's — hold the reference's distinct terms in
// first-appearance order, copied out of the scratch.
func FuzzTermScanner(f *testing.F) {
	for _, seed := range []string{
		"", "module Top(input CLK, output [7:0] Q); assign Q = 8'hFF; endmodule",
		"wire A$b_C'd = x\t\r\n\vy\f;", "// Ärger ÜBER Σίσυφος İstanbul ǅ K", "\xff\xfe\xc3\xed\xa0\x80 ok",
		"\xef\xbf\xbd\xc3(\xc3\xa9\x00\x7f", "ABC abc ABC aBc Abc", "a\u0130B\u212aC",
		"THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG the quick brown fox jumps over the lazy dog 0123456789 $_' @[`{",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want := refTokens(text)
		if got := Tokenize(text); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", text, got, want)
		}
		s := termScanner{text: text, low: make([]byte, 0, 1)}
		n := 0
		for term, ok := s.next(); ok; term, ok = s.next() {
			if n >= len(want) || term != want[n] {
				t.Fatalf("term %d of %q is %q, want %q", n, text, term, want)
			}
			n++
		}
		if n != len(want) {
			t.Fatalf("%q: scanned %d terms, want %d", text, n, len(want))
		}
		var distinct []string
		for _, term := range want {
			if !slices.Contains(distinct, term) {
				distinct = append(distinct, term)
			}
		}
		q := parseQuery(text)
		defer putQuery(q)
		g := BuildSegment([]string{"d"}, []string{text}, 0)
		for i, term := range distinct {
			if got := string(q.d.termBytes(i)); got != term {
				t.Fatalf("query unigram %d of %q is %q, want %q", i, text, got, term)
			}
			if got := string(g.dict.termBytes(i)); got != term {
				t.Fatalf("segment unigram %d of %q is %q, want %q", i, text, got, term)
			}
		}
		if len(q.d.tid) != len(distinct) || len(g.dict.tid) != len(distinct) {
			t.Fatalf("%q: %d query and %d segment unigrams, want %d", text, len(q.d.tid), len(g.dict.tid), len(distinct))
		}
	})
}
