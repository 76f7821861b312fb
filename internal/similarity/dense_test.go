package similarity

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"freehw/internal/corpus"
)

// requireAxpyRunEqual runs axpyRun (the assembly on amd64), axpyRunGo and one
// acc[i] += q*w loop per row over copies of acc and demands the same bits in
// every slot, the guard slots either side of acc included.
func requireAxpyRunEqual(t *testing.T, ctx string, acc, rows []float64, offs []int, qs []float64) {
	t.Helper()
	const pad = 3
	n := len(acc)
	padded := func() []float64 {
		buf := make([]float64, n+2*pad)
		for i := range buf {
			buf[i] = -7
		}
		copy(buf[pad:], acc)
		return buf
	}
	got, viaGo, want := padded(), padded(), padded()
	axpyRun(got[pad:pad+n], rows, offs, qs)
	axpyRunGo(viaGo[pad:pad+n], rows, offs, qs)
	for r, off := range offs {
		for i, w := range rows[off : off+n] {
			want[pad+i] += float64(qs[r] * w)
		}
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(viaGo[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: slot %d: axpyRun %x (%g), axpyRunGo %x (%g), row-at-a-time reference %x (%g)", ctx, i-pad,
				math.Float64bits(got[i]), got[i], math.Float64bits(viaGo[i]), viaGo[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// The assembly, the Go loop and a row-at-a-time pass are the same function:
// every tail length around the 16-wide body, a tile and a corpus-sized row,
// runs of no rows up to a novel query's 38, operands that start on odd
// 8-byte boundaries, +0 slots, subnormal weights and the largest query count
// a qterm can carry. A row that would end past rows is a panic, not a read.
func TestAxpyRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	weight := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0 // a document outside the list
		case 1:
			return math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
		case 2:
			return 1
		}
		return 1 / math.Sqrt(float64(1+rng.Intn(1<<20)))
	}
	counts := []float64{1, 2, 3, 17, 1 << 20, math.MaxUint32}
	lengths := []int{1024, 8000}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, nRows := range []int{0, 1, 2, 3, 5, 8, 38} {
			accBuf := make([]float64, n+2)
			rows := make([]float64, nRows*(n+3)+1)
			for i := range rows {
				rows[i] = weight()
			}
			offs, qs := make([]int, nRows), make([]float64, nRows+1)
			for ao := 0; ao < 3; ao++ {
				acc := accBuf[ao : ao+n]
				for i := range acc {
					acc[i] = 0
					if rng.Intn(3) > 0 {
						acc[i] = float64(rng.Intn(1000)) * weight()
					}
				}
				for r := range offs {
					offs[r] = rng.Intn(len(rows) - n + 1) // any 8-byte boundary; rows may overlap or repeat
					qs[r] = counts[rng.Intn(len(counts))]
				}
				requireAxpyRunEqual(t, fmt.Sprintf("n=%d rows=%d acc+%d", n, nRows, ao), acc, rows, offs, qs)
			}
		}
	}

	rows := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, bad := range []struct {
		name string
		offs []int
		qs   []float64
	}{
		{"one slot past rows", []int{0, 6}, []float64{1, 1}},
		{"negative offset", []int{2, -1}, []float64{1, 1}},
		{"fewer counts than rows", []int{0, 1}, []float64{1}},
	} {
		acc := []float64{-7, 10, 20, 30, -7}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: axpyRun returned", bad.name)
				}
			}()
			axpyRun(acc[1:4], rows, bad.offs, bad.qs)
		}()
		if !slices.Equal(acc, []float64{-7, 10, 20, 30, -7}) {
			t.Fatalf("%s: acc is %v after the panic", bad.name, acc)
		}
	}
}

// FuzzAxpyRun: any finite non-negative operands, any length, alignment, row
// count and row placement.
func FuzzAxpyRun(f *testing.F) {
	f.Add([]byte{}, uint32(1), uint8(0), uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5)), uint32(3), uint8(1), uint8(1))
	f.Add(make([]byte, 16*19*4), uint32(math.MaxUint32), uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, q uint32, off, nRows uint8) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = v
		}
		n := len(vals) / 3
		o := min(int(off%4), n)
		acc, rows := vals[o:n], vals[n:]
		offs, qs := make([]int, nRows%40), make([]float64, nRows%40)
		for r := range offs {
			offs[r] = (int(off) + 7*r) % (len(rows) - len(acc) + 1)
			qs[r] = float64(q >> (r % 32))
		}
		requireAxpyRunEqual(t, "fuzz", acc, rows, offs, qs)
	})
}

// BenchmarkAxpyRun adds runs of 1, 5 and 38 rows — a lone row, a mean run,
// every dense list of a novel query on bench/'s corpus — to one accTile
// accumulator from tiles that stay in L2 (what the 2nd to 16th query of a
// group see) and to a corpus-sized accumulator from 8 000-slot rows streamed
// out of 5 MB (what a lone query sees). A slot is one multiply-add.
func BenchmarkAxpyRun(b *testing.B) {
	const nDocs, nDense = 8000, 79 // bench/'s corpus: 79 dense lists
	dws := make([]float64, nDense*nDocs)
	for i := range dws {
		dws[i] = 1 / float64(i%nDocs+2)
	}
	for _, nRows := range []int{1, 5, 38} {
		qs := make([]float64, nRows)
		for r := range qs {
			qs[r] = float64(r + 1)
		}
		for _, bc := range []struct {
			name  string
			slots int
		}{{"tile", accTile}, {"stream", nDocs}} {
			b.Run(fmt.Sprintf("rows=%d/%s", nRows, bc.name), func(b *testing.B) {
				acc := make([]float64, bc.slots)
				offs := make([]int, nRows)
				for i := 0; i < b.N; i++ {
					for r := range offs {
						offs[r] = r * nDocs // tile: the same 8 KB of each row every time
						if bc.slots == nDocs {
							offs[r] = (i*nRows + r) % nDense * nDocs
						}
					}
					axpyRun(acc, dws, offs, qs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nRows*bc.slots), "ns/slot")
			})
		}
	}
}

// posting is one (document, weight) pair of a list.
type posting struct {
	doc int32
	w   float64
}

// termLists is every non-empty list of g as postings yields it, keyed by its
// term (a bigram by its two unigrams joined with a NUL, termCounts' key):
// what two segments over the same documents must agree on whatever ids their
// dictionaries assign.
func termLists(g *Segment) map[string][]posting {
	terms := make([]string, g.lists())
	for o, id := range g.dict.tid {
		terms[id] = string(g.dict.termBytes(o))
	}
	for id, k1 := range g.dict.pairsByID(g.lists()) {
		if k1 != 0 {
			terms[id] = terms[(k1-1)>>32] + "\x00" + terms[uint32(k1-1)]
		}
	}
	out := map[string][]posting{}
	for id, term := range terms {
		list := g.list(int32(id))
		for d, w := range list.postings {
			out[term] = append(out[term], posting{d, w})
		}
	}
	return out
}

// requireListsOf demands that g's lists be, bit for bit, the ones a rebuild
// of texts computes with termCounts — count over the norm of every count in
// the document — which shares no code with the builder's log or the arenas.
func requireListsOf(t *testing.T, ctx string, g *Segment, texts []string) {
	t.Helper()
	want := map[string][]posting{}
	for d, text := range texts {
		counts, order := termCounts(text)
		norm := normOf(counts)
		for _, term := range order {
			want[term] = append(want[term], posting{int32(d), counts[term] / norm})
		}
	}
	got := termLists(g)
	if len(got) != len(want) {
		t.Fatalf("%s: %d non-empty lists, a rebuild has %d", ctx, len(got), len(want))
	}
	same := func(a, b posting) bool { return a.doc == b.doc && math.Float64bits(a.w) == math.Float64bits(b.w) }
	for term, ps := range want {
		if !slices.EqualFunc(got[term], ps, same) {
			t.Fatalf("%s: list %q yields %v, a rebuild's is %v", ctx, term, got[term], ps)
		}
	}
}

// isDense reports whether unigram term's list is one of g's rows.
func isDense(g *Segment, term string) bool {
	id, _ := g.dict.findTerm(term)
	return id >= 0 && slices.Contains(g.dense, id)
}

// requireDenseForm checks g's layout against the postings its lists yield:
// dense is exactly the non-empty lists holding at least half the documents,
// each stored only as its row (no arena posting, ddf its document
// frequency), every other list only in the arenas; tmax is each list's
// largest weight, dnorm the 2-norm of each document's column of the rows
// (never below the norm big.Float computes, never more than a few ulps of
// slack above it) and dnormMax its largest entry.
func requireDenseForm(t *testing.T, ctx string, g *Segment) {
	t.Helper()
	n := g.Docs()
	var wantDense []int32
	var wantDdf []uint32
	arena := 0
	sq := make([]*big.Float, n)
	for d := range sq {
		sq[d] = new(big.Float).SetPrec(200)
	}
	for id := 0; id < g.lists(); id++ {
		var ps []posting
		list := g.list(int32(id))
		for d, w := range list.postings {
			if len(ps) > 0 && d <= ps[len(ps)-1].doc {
				t.Fatalf("%s: list %d yields document %d after %d", ctx, id, d, ps[len(ps)-1].doc)
			}
			ps = append(ps, posting{d, w})
		}
		df, inArena := len(ps), int(g.off[id+1]-g.off[id])
		if int(list.df) != df {
			t.Fatalf("%s: list %d: df %d, it yields %d postings", ctx, id, list.df, df)
		}
		if df > 0 && g.tmax[id] != slices.MaxFunc(ps, func(a, b posting) int { return cmp.Compare(a.w, b.w) }).w {
			t.Fatalf("%s: list %d: tmax %v is not its largest weight", ctx, id, g.tmax[id])
		}
		if df == 0 || 2*df < n {
			if inArena != df {
				t.Fatalf("%s: sparse list %d has %d arena postings of %d", ctx, id, inArena, df)
			}
			arena += df
			continue
		}
		if inArena != 0 {
			t.Fatalf("%s: dense list %d (df %d of %d docs) holds %d arena postings", ctx, id, df, n, inArena)
		}
		wantDense, wantDdf = append(wantDense, int32(id)), append(wantDdf, uint32(df))
		for _, p := range ps {
			w := new(big.Float).SetPrec(200).SetFloat64(p.w)
			sq[p.doc].Add(sq[p.doc], w.Mul(w, w))
		}
	}
	if !slices.Equal(g.dense, wantDense) || !slices.Equal(g.ddf, wantDdf) {
		t.Fatalf("%s: dense = %v with ddf %v, lists with 2·df >= %d docs are %v with %v", ctx, g.dense, g.ddf, n, wantDense, wantDdf)
	}
	if len(g.docs) != arena || len(g.ws) != arena || len(g.dws) != len(g.dense)*n || len(g.dnorm) != n {
		t.Fatalf("%s: %d/%d arena slots for %d sparse postings, %d dws slots and %d dense norms for %d dense lists over %d docs",
			ctx, len(g.docs), len(g.ws), arena, len(g.dws), len(g.dnorm), len(g.dense), n)
	}
	wantMax := 0.0
	for d, s := range sq {
		exact, _ := s.Sqrt(s).Float64() // nearest float64 to the exact norm: at most half an ulp under it
		if g.dnorm[d] < exact || g.dnorm[d] > exact*(1+float64(len(g.dense)+8)*epsUlp) {
			t.Fatalf("%s: dnorm[%d] = %v, the column's norm is %v", ctx, d, g.dnorm[d], exact)
		}
		wantMax = max(wantMax, g.dnorm[d])
	}
	if g.dnormMax != wantMax {
		t.Fatalf("%s: dnormMax = %v, largest dnorm %v", ctx, g.dnormMax, wantMax)
	}
}

// One definition of dense, applied by every way of making a segment — built,
// decoded, split and merged, merged with a tombstone — and one layout: a
// dense list is its row and nothing else, and every list yields the postings
// a rebuild of the live documents computes, bit for bit. Each corpus puts a
// term exactly on the boundary (df = docs/2), one just under it
// (docs/2 - 1) and one just over an odd count's half.
func TestSealDerivesDenseForm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 10, 128, 129, 130} {
		names := make([]string, n)
		texts := make([]string, n)
		for d := range texts {
			names[d] = fmt.Sprintf("d%d", d)
			var sb strings.Builder
			fmt.Fprintf(&sb, "all own%d ", d)
			if d < n/2 {
				sb.WriteString("floorhalf ")
			}
			if d >= n-(n/2-1) { // the LAST docs/2-1 documents: rows that start with zeros
				sb.WriteString("under ")
			}
			if d%2 == 0 {
				sb.WriteString("ceilhalf ")
			}
			texts[d] = sb.String()
		}
		built := BuildSegment(names, texts, 2)
		if n > 0 && (!isDense(built, "all") || !isDense(built, "ceilhalf")) {
			t.Fatalf("%d docs: a list in every document or in ceil(docs/2) of them is not dense (%v)", n, built.dense)
		}
		if n >= 2 && isDense(built, "floorhalf") != (n%2 == 0) {
			t.Fatalf("%d docs: df = %d dense = %v", n, n/2, isDense(built, "floorhalf"))
		}
		if n >= 5 && isDense(built, "under") {
			t.Fatalf("%d docs: df = %d is dense", n, n/2-1)
		}
		check := func(ctx string, g *Segment, texts []string) {
			t.Helper()
			ctx = fmt.Sprintf("%d docs %s", n, ctx)
			requireDenseForm(t, ctx, g)
			requireListsOf(t, ctx, g, texts)
		}
		check("built", built, texts)
		dec, err := DecodeSegment(built.EncodeSections())
		if err != nil {
			t.Fatal(err)
		}
		check("decoded", dec, texts)
		if n < 2 {
			continue
		}
		segs := buildSegmented(names, texts, []int{n / 3, n - n/3})
		check("part 0", segs[0], texts[:n/3])
		check("part 1", segs[1], texts[n/3:])
		merged := MergeSegments(segs, [][]uint64{nil, nil})
		check("merged", merged, texts)
		if !slices.Equal(merged.dense, built.dense) || !slices.Equal(merged.dws, built.dws) {
			t.Fatalf("%d docs: merged dense form differs from the built segment's", n)
		}
		// Without document 1 the merged segment's half is not the sources'.
		dead, live := []uint64{0b10}, slices.Delete(slices.Clone(texts), 1, 2)
		if n/3 < 2 {
			dead, live = nil, texts
		}
		if m := MergeSegments(segs, [][]uint64{dead, nil}); m != nil {
			check("merged without doc 1", m, live)
		}
	}
}

// The one dense bound the gather engine uses is sound: for every document of
// every segment — homogeneous and diverse, built, decoded, and merged with a
// third of the documents tombstoned, which moves which lists are dense — and
// every query, the float sum of the document's dense contributions in
// canonical order, exactly as evalCanonical adds them, is at most
// ‖q_dense‖·dnorm[d] as searchPrunedBest computes it, before any inflation.
func TestDenseNormBoundsDenseContribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2200))
	for ci := 0; ci < 12; ci++ {
		n := 3 + rng.Intn(300)
		names := make([]string, n)
		texts := make([]string, n)
		for d := range texts {
			names[d] = fmt.Sprintf("p%d", d)
			if ci%2 == 0 {
				texts[d] = "module m ; " + randDoc(rng, 10+rng.Intn(40), 1+rng.Intn(200))
			} else {
				texts[d] = diverseVerilog(rng, rng.Intn(n)) // some documents share every identifier
			}
		}
		parts := buildSegmented(names, texts, splitSizes(n, 1+rng.Intn(3), rng))
		deads := make([][]uint64, len(parts))
		for i, g := range parts {
			deads[i] = make([]uint64, (g.Docs()+63)/64)
			for d := 0; d < g.Docs(); d++ {
				if rng.Intn(3) == 0 {
					deads[i][d>>6] |= 1 << (d & 63)
				}
			}
		}
		built := BuildSegment(names, texts, 1)
		decoded, err := DecodeSegment(built.EncodeSections())
		if err != nil {
			t.Fatal(err)
		}
		segs := append(parts, built, decoded, MergeSegments(parts, nil))
		if m := MergeSegments(parts, deads); m != nil {
			segs = append(segs, m)
		}
		queries := []string{texts[rng.Intn(n)], texts[rng.Intn(n)] + " wire extra ; ; ;", randDoc(rng, 40, 80), diverseVerilog(rng, n+1), strings.Repeat("; ", 500)}
		for si, g := range segs {
			nd := g.Docs()
			for qi, q := range queries {
				qts, _ := g.resolveQuery(q, nil)
				sums := make([]float64, nd)
				qd2 := 0.0
				for _, qt := range qts {
					if i, ok := slices.BinarySearch(g.dense, qtermID(qt)); ok {
						qw := qtermW(qt)
						qd2 += float64(qw * qw)
						for d, w := range g.dws[i*nd : (i+1)*nd] {
							sums[d] += float64(qw * w)
						}
					}
				}
				qdn := math.Sqrt(qd2)
				for d, sum := range sums {
					if bound := qdn * g.dnorm[d]; sum > bound || g.dnorm[d] > g.dnormMax {
						t.Fatalf("corpus %d segment %d query %d doc %d: dense lists contribute %v, bound %v (dnorm %v, max %v)", ci, si, qi, d, sum, bound, g.dnorm[d], g.dnormMax)
					}
				}
			}
		}
	}
}

// canonicalOracle scores every live document of g from per-document maps
// of its postings: the query's terms in canonical order, one rounded
// product added at a time. It shares resolveQuery with the engines and
// nothing else — no dense form, no accumulator, no heap.
func canonicalOracle(g *Segment, query string, k int, dead []uint64) []Match {
	return oracleTopK(g, oracleDocs(g), query, k, dead)
}

// oracleDocs is g's postings as one term -> weight map per document.
func oracleDocs(g *Segment) []map[int32]float64 {
	byDoc := make([]map[int32]float64, g.Docs())
	for d := range byDoc {
		byDoc[d] = map[int32]float64{}
	}
	for id := 0; id < g.lists(); id++ {
		list := g.list(int32(id))
		for d, w := range list.postings {
			byDoc[d][int32(id)] = w
		}
	}
	return byDoc
}

func oracleTopK(g *Segment, byDoc []map[int32]float64, query string, k int, dead []uint64) []Match {
	qts, qnorm := g.resolveQuery(query, nil)
	out := []Match{}
	for d, m := range byDoc {
		acc := 0.0
		for _, qt := range qts {
			if w, ok := m[qtermID(qt)]; ok {
				acc += float64(qtermW(qt) * w)
			}
		}
		if acc > 0 && !deadBit(dead, int32(d)) {
			out = append(out, Match{Name: g.names[d], Index: d, Score: acc / qnorm})
		}
	}
	sort.Slice(out, func(i, j int) bool { return matchWorse(out[j], out[i]) })
	return out[:min(k, len(out))]
}

// A homogeneous corpus whose every term sits in 50-99 % of the documents:
// nearly all lists are dense without being total, so rows are full of +0
// slots, the gather engine's bounds come from partial lists, and documents
// outside a list — tombstoned ones among them — pass through axpy. Both
// engines and the oracle agree bit for bit, and the tombstoned segment
// agrees with a rebuild of its live documents, whose dense set differs.
func TestMajorityListsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1550))
	const n, vocab = 203, 40
	names := make([]string, n)
	texts := make([]string, n)
	for d := range texts {
		names[d] = fmt.Sprintf("h%d", d)
		var sb strings.Builder
		for range 1 + rng.Intn(3) {
			for v := 0; v < vocab; v++ {
				if rng.Intn(100) < 50+(49*v)/(vocab-1) { // term v: 50 % ... 99 % of documents
					fmt.Fprintf(&sb, "t%d ", v)
				}
			}
		}
		texts[d] = sb.String()
	}
	texts[n-1] = texts[11] // a top tie
	g := BuildSegment(names, texts, 1)
	partial := 0
	for _, df := range g.ddf {
		if int(df) < n {
			partial++
		}
	}
	if partial < vocab/2 {
		t.Fatalf("only %d of %d dense lists are partial: the corpus does not exercise +0 slots", partial, len(g.dense))
	}
	// Tombstones: the top-tie pair's first member and a third of the rest.
	dead := make([]uint64, (n+63)/64)
	dead[11>>6] |= 1 << (11 & 63)
	var liveNames, liveTexts []string
	for d := range texts {
		if d != 11 && rng.Intn(3) == 0 {
			dead[d>>6] |= 1 << (d & 63)
		}
		if !deadBit(dead, int32(d)) {
			liveNames, liveTexts = append(liveNames, names[d]), append(liveTexts, texts[d])
		}
	}
	queries := []string{
		texts[11],                     // exact copy of a tombstoned document and its live twin
		texts[50] + " t3 t3 unseen_x", // near-duplicate
		"t0 t1 t2 t39 t38 t0 t7",      // short probe
		"t5 unseen_a unseen_b t6 t5",  // mostly out of dictionary
		strings.Repeat("t20 t21 ", 9), // one bigram repeated
	}
	for qi, q := range queries {
		for _, dd := range [][]uint64{nil, dead} {
			for _, k := range []int{1, 5, n} {
				ctx := fmt.Sprintf("query %d k=%d tombstones=%v", qi, k, dd != nil)
				want := canonicalOracle(g, q, k, dd)
				if len(want) == 0 {
					t.Fatalf("%s: oracle found nothing", ctx)
				}
				matchesEqual(t, ctx+" pruned", g.searchTopK(q, k, searchPruned, dd), want)
				matchesEqual(t, ctx+" exhaustive", g.searchTopK(q, k, searchExhaustive, dd), want)
			}
		}
	}
	assertSnapshotEquiv(t, "tombstoned", SnapshotOf([]*Segment{g}, [][]uint64{dead}), liveNames, liveTexts, queries)
}

// A group of queries shares one tiled pass, a lone one takes the untiled
// pass, and neither changes a bit. Homogeneous corpora — every query bails
// to the accumulator — one document short of a tile, exactly one tile, one
// document over, and two and a half tiles; as one segment and as three;
// a fifth of the documents tombstoned, among them the one the near-duplicate
// queries would win with and the documents either side of the first tile
// edge. Every BestBatch slot equals Best of its text, and every Best and
// TopK equals the map-based canonical-order oracle over a rebuild of the
// live documents, which shares no code with the accumulator.
func TestBatchSharesOnePass(t *testing.T) {
	EnablePruneStats(true)
	ResetPruneStats()
	defer EnablePruneStats(false)
	same := func(a, b Match) bool {
		return a.Name == b.Name && a.Index == b.Index && math.Float64bits(a.Score) == math.Float64bits(b.Score)
	}
	for _, n := range []int{accTile - 1, accTile, accTile + 1, 2500} {
		rng := rand.New(rand.NewSource(int64(1700 + n)))
		names := make([]string, n)
		texts := make([]string, n)
		for d := range texts {
			names[d] = fmt.Sprintf("h%d", d)
			var sb strings.Builder
			for range 1 + rng.Intn(3) {
				for v := 0; v < 30; v++ {
					if rng.Intn(100) < 50+(49*v)/29 { // majority term v: 50 % ... 99 % of documents
						fmt.Fprintf(&sb, "t%d ", v)
					}
					if rng.Intn(100) < 1+v { // minority term v: sparse lists resumed at every tile edge
						fmt.Fprintf(&sb, "s%d ", v)
					}
				}
			}
			fmt.Fprintf(&sb, "own%d", d)
			texts[d] = sb.String()
		}
		const winner = 700
		twin := n - 3 // the tombstoned winner's live copy: never a tile-edge document
		texts[twin] = texts[winner]
		dead := make([]bool, n)
		for _, d := range []int{winner, accTile - 1, accTile} {
			if d < n {
				dead[d] = true
			}
		}
		var liveNames, liveTexts []string
		for d := range texts {
			if !dead[d] && d != twin && rng.Intn(5) == 0 {
				dead[d] = true
			}
			if !dead[d] {
				liveNames, liveTexts = append(liveNames, names[d]), append(liveTexts, texts[d])
			}
		}
		bitmap := func(lo, hi int) []uint64 {
			bm := make([]uint64, (hi-lo+63)/64)
			for d := lo; d < hi; d++ {
				if dead[d] {
					bm[(d-lo)>>6] |= 1 << ((d - lo) & 63)
				}
			}
			return bm
		}
		cuts := []int{0, n / 2, n/2 + n/3, n}
		var segs []*Segment
		var deads [][]uint64
		for i := 0; i+1 < len(cuts); i++ {
			segs = append(segs, BuildSegment(names[cuts[i]:cuts[i+1]], texts[cuts[i]:cuts[i+1]], 1))
			deads = append(deads, bitmap(cuts[i], cuts[i+1]))
		}
		snaps := []struct {
			name string
			*Snapshot
		}{
			{"one segment", SnapshotOf([]*Segment{BuildSegment(names, texts, 1)}, [][]uint64{bitmap(0, n)})},
			{"three segments", SnapshotOf(segs, deads)},
		}

		pool := []string{"", "zz_unknown qq_unknown", texts[winner], texts[winner] + " t3 t3 unseen_x", texts[accTile-2] + " s4"}
		for len(pool) < 24 {
			var sb strings.Builder
			for range 20 + rng.Intn(60) {
				switch v := rng.Intn(30); rng.Intn(5) {
				case 0:
					fmt.Fprintf(&sb, "s%d ", v)
				case 1:
					fmt.Fprintf(&sb, "novel%d ", rng.Intn(1000))
				default:
					fmt.Fprintf(&sb, "t%d ", v)
				}
			}
			pool = append(pool, sb.String())
		}
		live := BuildSegment(liveNames, liveTexts, 1)
		liveDocs := oracleDocs(live)
		wantBest := map[string]Match{}
		for _, q := range pool {
			top := oracleTopK(live, liveDocs, q, 5, nil)
			wantBest[q] = Match{Index: -1}
			if len(top) > 0 {
				wantBest[q] = top[0]
			}
			for _, snap := range snaps {
				ctx := fmt.Sprintf("%d docs, %s, %q", n, snap.name, q)
				if got := snap.Best(q); !same(got, wantBest[q]) {
					t.Fatalf("%s: Best %+v, oracle %+v", ctx, got, wantBest[q])
				}
				matchesEqual(t, ctx+" TopK(5)", snap.TopK(q, 5), top)
			}
		}
		if w := wantBest[texts[winner]]; w.Name != names[twin] || w.Score < 0.999 {
			t.Fatalf("%d docs: a copy of tombstoned document %d matches %+v, want its twin %s", n, winner, w, names[twin])
		}

		for _, size := range []int{1, 2, accBatch - 1, accBatch, accBatch + 1, 2*accBatch + 1} {
			group := make([]string, size)
			for i := range group {
				group[i] = pool[rng.Intn(len(pool))]
			}
			if size > 2 {
				group[size-1] = group[1] // a repeated text, whatever the draw
			}
			for _, snap := range snaps {
				for _, workers := range []int{1, 2, 0} {
					got := snap.BestBatch(workers, group)
					for i, q := range group {
						if !same(got[i], wantBest[q]) || !same(got[i], snap.Best(q)) {
							t.Fatalf("%d docs, %s, group of %d, workers %d: slot %d is %+v, Best %+v, oracle %+v",
								n, snap.name, size, workers, i, got[i], snap.Best(q), wantBest[q])
						}
					}
				}
			}
		}
	}
	if st := ReadPruneStats(); st.Bailouts*2 < st.Queries {
		t.Fatalf("only %d of %d pruned searches ended in the accumulator: the corpora are not homogeneous", st.Bailouts, st.Queries)
	}
}

// benchNearDupOf is bench/'s near-duplicate candidate (bench/inputs.go's
// coldStream): a protected file with one line replaced and a trailing tag.
func benchNearDupOf(rng *rand.Rand, texts []string, i int) string {
	lines := strings.Split(texts[rng.Intn(len(texts))], "\n")
	lines[rng.Intn(len(lines))] = fmt.Sprintf("  // local edit %d", rng.Int63())
	return fmt.Sprintf("%s\n// cand 0.%d\n", strings.Join(lines, "\n"), i)
}

// BenchmarkBestBenchCorpus is Snapshot.Best on bench/'s corpus with
// bench/'s two candidate shapes (bench/inputs.go's coldStream): a freshly
// generated module, and a protected file with one line replaced. ns/posting
// divides by the postings of the query's resolved terms — what the
// exhaustive accumulator would read. batch16 is BestBatch over the same
// shapes.
func BenchmarkBestBenchCorpus(b *testing.B) {
	names, texts := protectedDocs(8000)
	g := BuildSegment(names, texts, 0)
	snap := SnapshotOf([]*Segment{g}, nil)
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func(i int) string{
		"novel": func(i int) string {
			return fmt.Sprintf("%s\n// cand 0.%d\n", corpus.Generate(rng, "", false).Source, i)
		},
		"neardup": func(i int) string { return benchNearDupOf(rng, texts, i) },
	}
	for _, shape := range []string{"novel", "neardup"} {
		queries := make([]string, 256)
		postings := make([]int, len(queries))
		for i := range queries {
			queries[i] = shapes[shape](i)
			qts, _ := g.resolveQuery(queries[i], nil)
			for _, qt := range qts {
				postings[i] += int(g.list(qtermID(qt)).df)
			}
		}
		b.Run(shape, func(b *testing.B) {
			read := 0
			for i := 0; i < b.N; i++ {
				if m := snap.Best(queries[i%len(queries)]); m.Index < 0 {
					b.Fatal("no match")
				}
				read += postings[i%len(queries)]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(read), "ns/posting")
		})
	}
	// publish_mixed's request: 16 sibling candidates, one in ten a near-
	// duplicate, through BestBatch on one worker.
	batches := make([][]string, 16)
	for bi := range batches {
		for i := 0; i < accBatch; i++ {
			shape := "novel"
			if rng.Intn(10) == 0 {
				shape = "neardup"
			}
			batches[bi] = append(batches[bi], shapes[shape](bi*accBatch+i))
		}
	}
	b.Run("batch16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ms := snap.BestBatch(1, batches[i%len(batches)]); ms[0].Index < 0 {
				b.Fatal("no match")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*accBatch), "µs/candidate")
	})
}
