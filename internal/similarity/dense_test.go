package similarity

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"freehw/internal/corpus"
)

// requireAxpyEqualsGo runs axpy and axpyGo over copies of acc and demands
// the same bits in every slot, the slots around the operands included.
func requireAxpyEqualsGo(t *testing.T, ctx string, acc, ws []float64, q float64) {
	t.Helper()
	const pad = 3
	got := make([]float64, len(acc)+2*pad)
	for i := range got {
		got[i] = -7
	}
	copy(got[pad:], acc)
	want := slices.Clone(got)
	axpy(got[pad:pad+len(acc)], ws, q)
	axpyGo(want[pad:pad+len(acc)], ws, q)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: slot %d: axpy %x (%g), reference %x (%g)", ctx, i-pad,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// The assembly and the Go loop are the same function: every tail length
// around the 8-wide body, a corpus-sized row, operands that start on odd
// 8-byte boundaries, +0 slots, subnormal weights and the largest query
// count a qterm can carry.
func TestAxpyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
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
	qs := []float64{1, 2, 3, 17, 1 << 20, math.MaxUint32}
	lengths := []int{8000}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		accBuf := make([]float64, n+4)
		wsBuf := make([]float64, n+4)
		for ao := 0; ao < 3; ao++ {
			for wo := 0; wo < 3; wo++ {
				acc, ws := accBuf[ao:ao+n], wsBuf[wo:wo+n]
				for i := range ws {
					ws[i] = weight()
					acc[i] = 0
					if rng.Intn(3) > 0 {
						acc[i] = float64(rng.Intn(1000)) * weight()
					}
				}
				q := qs[rng.Intn(len(qs))]
				requireAxpyEqualsGo(t, fmt.Sprintf("n=%d acc+%d ws+%d q=%g", n, ao, wo, q), acc, ws, q)
			}
		}
	}
	// ws longer than acc is the contract's other legal shape.
	requireAxpyEqualsGo(t, "long ws", []float64{1, 2, 3}, []float64{.5, .25, .125, 9, 9, 9, 9, 9, 9}, 3)
}

// FuzzAxpy: any finite non-negative operands, any length and alignment.
func FuzzAxpy(f *testing.F) {
	f.Add([]byte{}, uint32(1), uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5)), uint32(3), uint8(1))
	f.Add(make([]byte, 16*19), uint32(math.MaxUint32), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, q uint32, off uint8) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = v
		}
		n := len(vals) / 2
		o := min(int(off%4), n)
		requireAxpyEqualsGo(t, "fuzz", vals[o:n], vals[n+o:], float64(q))
	})
}

// BenchmarkAxpy is one dense row of bench/'s 8 000-document corpus through
// the accumulator, counting 24 bytes moved per slot (two loads, one store).
func BenchmarkAxpy(b *testing.B) {
	const n = 8000
	acc, ws := make([]float64, n), make([]float64, n)
	for i := range ws {
		ws[i] = 1 / float64(i+2)
	}
	for _, bc := range []struct {
		name string
		fn   func(acc, ws []float64, q float64)
	}{{"axpy", axpy}, {"go", axpyGo}} { // the same loop twice where axpy has no assembly
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.fn(acc, ws, 3)
			}
			b.ReportMetric(24*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}

// requireDenseForm checks everything seal derives for dense lists against
// the arenas: dense is exactly the non-empty lists holding at least half
// the documents, dws their weights scattered by document with +0 elsewhere,
// bmax the block maxima of that.
func requireDenseForm(t *testing.T, ctx string, g *Segment) {
	t.Helper()
	n := g.Docs()
	blocks := (n + blockMask) >> blockShift
	var wantDense []int32
	var wantDws, wantBmax []float64
	for id := 0; id < g.lists(); id++ {
		lo, hi := g.off[id], g.off[id+1]
		if df := int(hi - lo); df == 0 || 2*df < n {
			continue
		}
		wantDense = append(wantDense, int32(id))
		row := make([]float64, n)
		for p := lo; p < hi; p++ {
			row[g.docs[p]] = g.ws[p]
		}
		wantDws = append(wantDws, row...)
		for b := 0; b < blocks; b++ {
			wantBmax = append(wantBmax, slices.Max(row[b*blockSize:min((b+1)*blockSize, n)]))
		}
	}
	if !slices.Equal(g.dense, wantDense) {
		t.Fatalf("%s: dense = %v, lists with 2·df >= %d docs are %v", ctx, g.dense, n, wantDense)
	}
	if len(g.dws) != len(wantDws) || len(g.bmax) != len(wantBmax) {
		t.Fatalf("%s: %d dws slots and %d block maxima for %d dense lists over %d docs", ctx, len(g.dws), len(g.bmax), len(g.dense), n)
	}
	for i := range wantDws {
		if math.Float64bits(g.dws[i]) != math.Float64bits(wantDws[i]) {
			t.Fatalf("%s: dws[%d] (list %d, doc %d) = %v, arenas say %v", ctx, i, g.dense[i/n], i%n, g.dws[i], wantDws[i])
		}
	}
	if !slices.Equal(g.bmax, wantBmax) {
		t.Fatalf("%s: bmax differs from the rows' block maxima", ctx)
	}
}

// One definition of dense, applied by every way of making a segment. Each
// corpus puts a term exactly on the boundary (df = docs/2), one just under
// it (docs/2 - 1) and one just over an odd count's half.
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
		isDense := func(term string) bool {
			id, ok := built.termIDs[term]
			return ok && slices.Contains(built.dense, id)
		}
		if n > 0 && (!isDense("all") || !isDense("ceilhalf")) {
			t.Fatalf("%d docs: a list in every document or in ceil(docs/2) of them is not dense (%v)", n, built.dense)
		}
		if n >= 2 && isDense("floorhalf") != (n%2 == 0) {
			t.Fatalf("%d docs: df = %d dense = %v", n, n/2, isDense("floorhalf"))
		}
		if n >= 5 && isDense("under") {
			t.Fatalf("%d docs: df = %d is dense", n, n/2-1)
		}
		requireDenseForm(t, fmt.Sprintf("%d docs built", n), built)
		dec, err := DecodeSegment(built.EncodeSections())
		if err != nil {
			t.Fatal(err)
		}
		requireDenseForm(t, fmt.Sprintf("%d docs decoded", n), dec)
		if n < 2 {
			continue
		}
		segs := buildSegmented(names, texts, []int{n / 3, n - n/3})
		for i, g := range segs {
			requireDenseForm(t, fmt.Sprintf("%d docs part %d", n, i), g)
		}
		merged := MergeSegments(segs, [][]uint64{nil, nil})
		requireDenseForm(t, fmt.Sprintf("%d docs merged", n), merged)
		if !slices.Equal(merged.dense, built.dense) || !slices.Equal(merged.dws, built.dws) {
			t.Fatalf("%d docs: merged dense form differs from the built segment's", n)
		}
		// Without document 1 the merged segment's half is not the sources'.
		dead := []uint64{0b10}
		if n/3 < 2 {
			dead = nil
		}
		if m := MergeSegments(segs, [][]uint64{dead, nil}); m != nil {
			requireDenseForm(t, fmt.Sprintf("%d docs merged without doc 1", n), m)
		}
	}
}

// canonicalOracle scores every live document of g from per-document maps
// of its postings: the query's terms in canonical order, one rounded
// product added at a time. It shares resolveQuery with the engines and
// nothing else — no dense form, no accumulator, no heap.
func canonicalOracle(g *Segment, query string, k int, dead []uint64) []Match {
	qts, qnorm := g.resolveQuery(query, nil)
	byDoc := make([]map[int32]float64, g.Docs())
	for d := range byDoc {
		byDoc[d] = map[int32]float64{}
	}
	for id := 0; id < g.lists(); id++ {
		for p := g.off[id]; p < g.off[id+1]; p++ {
			byDoc[g.docs[p]][int32(id)] = g.ws[p]
		}
	}
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
	for _, id := range g.dense {
		if df := int(g.off[id+1] - g.off[id]); df < n {
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

// BenchmarkBestBenchCorpus is Snapshot.Best on bench/'s corpus with
// bench/'s two candidate shapes (bench/inputs.go's coldStream): a freshly
// generated module, and a protected file with one line replaced. ns/posting
// divides by the postings of the query's resolved terms — what the
// exhaustive accumulator would read.
func BenchmarkBestBenchCorpus(b *testing.B) {
	names, texts := protectedDocs(8000)
	g := BuildSegment(names, texts, 0)
	snap := SnapshotOf([]*Segment{g}, nil)
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func(i int) string{
		"novel": func(i int) string {
			return fmt.Sprintf("%s\n// cand 0.%d\n", corpus.Generate(rng, "", false).Source, i)
		},
		"neardup": func(i int) string {
			lines := strings.Split(texts[rng.Intn(len(texts))], "\n")
			lines[rng.Intn(len(lines))] = fmt.Sprintf("  // local edit %d", rng.Int63())
			return fmt.Sprintf("%s\n// cand 0.%d\n", strings.Join(lines, "\n"), i)
		},
	}
	for _, shape := range []string{"novel", "neardup"} {
		queries := make([]string, 256)
		postings := make([]int, len(queries))
		for i := range queries {
			queries[i] = shapes[shape](i)
			qts, _ := g.resolveQuery(queries[i], nil)
			for _, qt := range qts {
				postings[i] += int(g.off[qtermID(qt)+1] - g.off[qtermID(qt)])
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
}
