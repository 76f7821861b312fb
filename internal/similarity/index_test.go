package similarity

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The index model. TestIndexAgainstModel keeps, for each fixed seed, the
// documents of a run (name, text, live) in snapshot order, drives a snapshot
// through every way the publisher and a restart derive one, and after each
// step holds every scoring path to one oracle built from the live texts
// alone: termCounts lists scored with oracleTopK's canonical sum and tie
// rule, bit for bit. That is ROADMAP's "Exact verdicts" contract: a verdict
// is the same at every physical state of the index.

// Corpus shapes. Each draws the i-th document of a run.

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

// diverseVerilog emits a small synthetic module whose token mix varies per
// index — unlike randDoc's shared vocabulary, documents are mostly
// dissimilar, so threshold-based pruning has something to prune. This is
// the realistic audit shape: a generated file either plagiarizes one
// protected file (near-dup, scores ~1.0) or none (scores well below the
// 0.8 threshold).
func diverseVerilog(rng *rand.Rand, idx int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module mod_%d(input wire clk_%d, output reg [7:0] out_%d);\n", idx, idx%97, idx)
	for j := 0; j < 8+rng.Intn(12); j++ {
		fmt.Fprintf(&sb, "  wire [7:0] sig_%d_%d = reg_%d ^ 8'h%02X;\n", idx, j, rng.Intn(50), rng.Intn(256))
	}
	fmt.Fprintf(&sb, "  always @(posedge clk_%d) out_%d <= sig_%d_0;\nendmodule\n", idx%97, idx, idx)
	return sb.String()
}

// buildDiverse builds an n-document corpus of diverse modules, seeded
// deterministically.
func buildDiverse(seed int64, n int) ([]string, []string, *Corpus) {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, n)
	texts := make([]string, n)
	for i := range texts {
		names[i] = fmt.Sprintf("d%d.v", i)
		texts[i] = diverseVerilog(rng, i)
	}
	return names, texts, NewCorpus(names, texts)
}

// benchPool is 400 documents of bench/'s protected-corpus shape, built once.
var benchPool = sync.OnceValue(func() []string { _, texts := protectedDocs(400); return texts })

// modelShapes are the corpus shapes a run draws from: shared vocabulary (the
// gather engine bails to the accumulator), diverse modules (it prunes),
// bench/'s corpus with one-line edits, terms in 50–99 % of the documents
// (dense lists full of zeros), and a list on the dense threshold holding a
// count above 32 767 (a row cannot hold it).
var modelShapes = []struct {
	name string
	doc  func(rng *rand.Rand, i int) string
}{
	{"homog", func(rng *rand.Rand, i int) string { return randDoc(rng, 30+rng.Intn(30), 10+rng.Intn(120)) }},
	{"diverse", diverseVerilog},
	{"bench", func(rng *rand.Rand, i int) string {
		pool := benchPool()
		if rng.Intn(4) == 0 {
			return benchMutate(rng, pool[rng.Intn(len(pool))])
		}
		return pool[i%len(pool)]
	}},
	{"majority", func(rng *rand.Rand, i int) string {
		var sb strings.Builder
		for range 1 + rng.Intn(3) {
			for v := 0; v < 40; v++ {
				if rng.Intn(100) < 50+(49*v)/39 {
					fmt.Fprintf(&sb, "t%d ", v)
				}
			}
		}
		return sb.String()
	}},
	{"wide", func(rng *rand.Rand, i int) string {
		text := fmt.Sprintf("module w%d ; wire [%d:0] v ;", i, rng.Intn(8))
		if i%4 == 0 {
			text += " big row"
		}
		if i == 0 {
			text += strings.Repeat(" big", 33000)
		}
		return text
	}},
}

// modelSeeds are TestIndexAgainstModel's runs; seed s draws shape s mod 5.
var modelSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// modelSeg is one segment as the model holds it: its documents in doc-id
// order, which are live, and the termCounts lists of all of them.
type modelSeg struct {
	names, texts []string
	live         []bool
	lists        map[string][]posting
	merged, wide bool // made by MergeSegments; holds a count above maxRowCount
}

// newModelSeg is a segment of the documents, all live. lists is textLists of
// the texts, or nil to compute it.
func newModelSeg(names, texts []string, lists map[string][]posting, merged bool) modelSeg {
	if lists == nil {
		lists = textLists(texts)
	}
	ms := modelSeg{names: names, texts: texts, live: make([]bool, len(names)), lists: lists, merged: merged}
	for d, text := range texts {
		ms.live[d] = true
		if len(text) > maxRowCount { // no shorter text holds a term that often
			counts, order := termCounts(text)
			for _, term := range order {
				ms.wide = ms.wide || counts[term] > maxRowCount
			}
		}
	}
	return ms
}

// oracle is the segment as oracleTopK reads it, its tombstones the model's.
func (ms *modelSeg) oracle() oracleSeg {
	dead := make([]uint64, (len(ms.live)+63)/64)
	for d, l := range ms.live {
		if !l {
			dead[d>>6] |= 1 << (d & 63)
		}
	}
	return oracleSeg{ms.names, ms.lists, dead}
}

// modelPast is a snapshot of the run with what it answered when it was made.
type modelPast struct {
	snap    *Snapshot
	queries []string
	top     [][]Match // per query: TopK(Len()+2), the oracle's whole ranking
}

// modelCoverage is the set of shapes a run met, of those the seeds must
// reach together.
type modelCoverage uint

const (
	covSmall             modelCoverage = 1 << iota // a segment below pruneMinDocs documents
	covLarge                                       // a segment of pruneMinDocs documents or more
	covWideMergedDecoded                           // a count above maxRowCount, merged and then decoded
	covCrossTie                                    // one text live in two segments
	covDupName                                     // one name on two live documents
	covDead63and64                                 // documents 63 and 64 of a segment tombstoned
	covStaleBitmap                                 // a plan refused for a changed bitmap
	covPastEnd                                     // a plan refused for a run past the end
	covDroppedRun                                  // a run with no live document merged away
	covMajorityRow                                 // a row holding 50–99 % of its segment's documents
	covAll               = 1<<iota - 1
)

// modelRun is one run: the served snapshot, the model of it and the past.
type modelRun struct {
	t      *testing.T
	rng    *rand.Rand
	doc    func(rng *rand.Rand, i int) string
	drawn  int // documents drawn so far
	snap   *Snapshot
	m      []modelSeg
	past   []modelPast
	listed map[*Segment]bool // segments whose lists were held to the model's
	cov    modelCoverage
	ctx    string
}

func newModelRun(t *testing.T, rng *rand.Rand) *modelRun {
	return &modelRun{t: t, rng: rng, snap: new(Snapshot), listed: map[*Segment]bool{}}
}

// appendDocs appends the documents as one segment (the publisher's delta),
// sealed by BuildSegment or by the builder.
func (r *modelRun) appendDocs(names, texts []string) {
	var g *Segment
	if r.rng.Intn(2) == 0 {
		g = BuildSegment(names, texts, 0)
	} else {
		b := NewSegmentBuilder()
		for i, text := range texts {
			b.Add(names[i], text)
		}
		g = b.Seal()
	}
	r.snap = r.snap.Append(g)
	r.m = append(slices.Clip(r.m), newModelSeg(names, texts, nil, false))
}

// remove tombstones every live document named in names: Remove returns how
// many, and a repeated Remove returns 0 and the same snapshot.
func (r *modelRun) remove(names []string) {
	m, want := slices.Clone(r.m), 0
	for si := range m {
		cloned := false
		for d, name := range m[si].names {
			if m[si].live[d] && slices.Contains(names, name) {
				if !cloned {
					m[si].live, cloned = slices.Clone(m[si].live), true
				}
				m[si].live[d] = false
				want++
			}
		}
	}
	next, n := r.snap.Remove(names)
	if n != want || n == 0 && next != r.snap {
		r.t.Fatalf("%s: Remove(%q) = %d (same snapshot %v), the model removes %d", r.ctx, names, n, next == r.snap, want)
	}
	if again, n := next.Remove(names); n != 0 || again != next {
		r.t.Fatalf("%s: a repeated Remove(%q) = %d (same snapshot %v)", r.ctx, names, n, again == next)
	}
	r.snap, r.m = next, m
}

// merge compacts segments [i, j] as the merger does, after showing that a
// plan the served snapshot no longer holds is refused: one a tombstone in
// the run has since changed, and one the snapshot has no segment j for.
func (r *modelRun) merge(i, j int) {
	plan := r.snap
	var segs []*Segment
	var deads [][]uint64
	var names, texts []string
	lists := map[string][]posting{} // the run's lists, renumbered to the live documents
	for k := i; k <= j; k++ {
		segs, deads = append(segs, plan.Segment(k)), append(deads, plan.SegmentDead(k))
		ms, ids := &r.m[k], make([]int32, len(r.m[k].live))
		for d, l := range ms.live {
			if ids[d] = int32(len(names)); l {
				names, texts = append(names, ms.names[d]), append(texts, ms.texts[d])
			}
		}
		for term, ps := range ms.lists {
			for _, p := range ps {
				if ms.live[p.doc] {
					lists[term] = append(lists[term], posting{ids[p.doc], p.w})
				}
			}
		}
	}
	merged := MergeSegments(segs, deads)
	if (merged == nil) != (len(names) == 0) {
		r.t.Fatalf("%s: merging segments %d-%d with %d live documents returned %v", r.ctx, i, j, len(names), merged)
	}
	for _, p := range r.past {
		if p.snap.Segments() <= j {
			if p.snap.ReplaceRun(plan, i, j, merged) != nil {
				r.t.Fatalf("%s: ReplaceRun of segments %d-%d on a snapshot of %d segments", r.ctx, i, j, p.snap.Segments())
			}
			r.cov |= covPastEnd
			break
		}
	}
	if len(names) > 0 {
		if moved, _ := plan.Remove(names[:1]); moved.ReplaceRun(plan, i, j, merged) != nil {
			r.t.Fatalf("%s: ReplaceRun accepted a plan whose run lost %q since", r.ctx, names[0])
		}
		r.cov |= covStaleBitmap
	}
	if r.snap = plan.ReplaceRun(plan, i, j, merged); r.snap == nil {
		r.t.Fatalf("%s: ReplaceRun refused the plan it was made from", r.ctx)
	}
	var run []modelSeg
	if merged != nil {
		run = []modelSeg{newModelSeg(names, texts, lists, true)}
	} else {
		r.cov |= covDroppedRun
	}
	r.m = slices.Concat(r.m[:i], run, r.m[j+1:])
}

// decode swaps segment i for its decoded encoding, the way a restart loads
// a store: the bitmaps are shared with the source snapshot.
func (r *modelRun) decode(i int) {
	g, err := DecodeSegment(r.snap.Segment(i).EncodeSections())
	if err != nil {
		r.t.Fatalf("%s: decoding segment %d: %v", r.ctx, i, err)
	}
	segs, deads := make([]*Segment, r.snap.Segments()), make([][]uint64, r.snap.Segments())
	for k := range segs {
		segs[k], deads[k] = r.snap.Segment(k), r.snap.SegmentDead(k)
	}
	segs[i] = g
	r.snap = SnapshotOf(segs, deads)
	if r.m[i].wide && r.m[i].merged {
		r.cov |= covWideMergedDecoded
	}
}

// check holds the served snapshot to the model on queries, bit for bit:
// segments, tombstones, live counts, Len and Name; each new segment's lists
// against the termCounts rebuild of its documents; Best, TopK (k = 1, 3,
// Len()+2) and BestBatch (1 and 4 workers, every query at least twice, more
// than 16 texts) against oracleTopK over the model's live texts; and
// each segment's two engines, forced, against the oracle over that segment's
// live documents. The snapshot and its answers join the past.
func (r *modelRun) check(queries []string) {
	t, snap := r.t, r.snap
	t.Helper()
	if snap.Segments() != len(r.m) {
		t.Fatalf("%s: %d segments, the model has %d", r.ctx, snap.Segments(), len(r.m))
	}
	var names []string
	segs := make([]oracleSeg, len(r.m))
	for si := range r.m {
		ms, g, dead := &r.m[si], snap.Segment(si), snap.SegmentDead(si)
		if g.Docs() != len(ms.names) {
			t.Fatalf("%s: segment %d holds %d documents, the model %d", r.ctx, si, g.Docs(), len(ms.names))
		}
		before := len(names)
		for d, l := range ms.live {
			if deadBit(dead, int32(d)) == l {
				t.Fatalf("%s: segment %d document %d: tombstoned %v, live in the model %v", r.ctx, si, d, !l, l)
			}
			if l {
				names = append(names, ms.names[d])
			}
		}
		if live := snap.SegmentLive(si); live != len(names)-before {
			t.Fatalf("%s: segment %d has %d live documents, the model %d", r.ctx, si, live, len(names)-before)
		}
		if !r.listed[g] {
			requireLists(t, fmt.Sprintf("%s: segment %d", r.ctx, si), g, ms.lists)
			r.listed[g] = true
			for _, df := range g.ddf {
				if n := uint32(g.Docs()); 2*df >= n && df < n {
					r.cov |= covMajorityRow
				}
			}
		}
		segs[si] = ms.oracle()
	}
	r.cover()
	if snap.Len() != len(names) {
		t.Fatalf("%s: Len() = %d, the model has %d live documents", r.ctx, snap.Len(), len(names))
	}
	for i, name := range names {
		if got := snap.Name(i); got != name {
			t.Fatalf("%s: Name(%d) = %q, want %q", r.ctx, i, got, name)
		}
	}
	past := modelPast{snap, queries, make([][]Match, len(queries))}
	best := make([]Match, len(queries))
	for qi, q := range queries {
		oq := newOracleQuery(q)
		want := oq.topK(segs, len(names)+2)
		past.top[qi], best[qi] = want, Match{Index: -1}
		if len(want) > 0 {
			best[qi] = want[0]
		}
		if got := snap.Best(q); got != best[qi] {
			t.Fatalf("%s: Best(%.40q) = %+v, the oracle's %+v", r.ctx, q, got, best[qi])
		}
		for _, k := range []int{1, 3, len(names) + 2} {
			matchesEqual(t, fmt.Sprintf("%s: TopK(%.40q, %d)", r.ctx, q, k), snap.TopK(q, k), want[:min(k, len(want))])
		}
		for si := range r.m {
			local := oq.topK(segs[si:si+1], 3)
			for i, m := range local {
				local[i].Index = r.m[si].liveID(m.Index)
			}
			for _, e := range []struct{ k, mode int }{{1, searchPruned}, {1, searchExhaustive}, {3, searchExhaustive}} { // k > 1 has only the accumulator
				matchesEqual(t, fmt.Sprintf("%s: segment %d, %.40q, k=%d, engine %d", r.ctx, si, q, e.k, e.mode),
					snap.Segment(si).searchTopK(q, e.k, e.mode, snap.SegmentDead(si)), local[:min(e.k, len(local))])
			}
		}
	}
	if got := snap.BestBatch(4, nil); got != nil {
		t.Fatalf("%s: BestBatch of no texts = %v", r.ctx, got)
	}
	batch := slices.Concat(queries, queries)
	for len(batch) > 0 && len(batch) <= 16 { // more texts than workers
		batch = append(batch, queries...)
	}
	for _, workers := range []int{1, 4} {
		for i, got := range snap.BestBatch(workers, batch) {
			if want := best[i%len(queries)]; got != want {
				t.Fatalf("%s: BestBatch(%d workers) slot %d = %+v, the oracle's %+v", r.ctx, workers, i, got, want)
			}
		}
	}
	r.past = append(r.past, past)
}

// recheck asks an earlier snapshot of the run what it was asked when it was
// made: a snapshot derived from it never moves it.
func (r *modelRun) recheck(p modelPast) {
	for qi, q := range p.queries {
		want, best := p.top[qi], Match{Index: -1}
		if len(want) > 0 {
			best = want[0]
		}
		if got := p.snap.Best(q); got != best {
			r.t.Fatalf("%s: an earlier snapshot's Best(%.40q) moved from %+v to %+v", r.ctx, q, best, got)
		}
		matchesEqual(r.t, fmt.Sprintf("%s: an earlier snapshot's TopK(%.40q, 3)", r.ctx, q), p.snap.TopK(q, 3), want[:min(3, len(want))])
	}
}

// liveID is the doc id of the segment's r-th live document.
func (ms *modelSeg) liveID(r int) int {
	for d, l := range ms.live {
		if l {
			if r == 0 {
				return d
			}
			r--
		}
	}
	panic("live rank out of range")
}

// cover adds what the model's live documents reach to the run's coverage.
func (r *modelRun) cover() {
	seg, name := map[string]int{}, map[string]bool{}
	for si, ms := range r.m {
		switch n := len(ms.names); {
		case n < pruneMinDocs:
			r.cov |= covSmall
		case n > 64 && !ms.live[63] && !ms.live[64]:
			r.cov |= covDead63and64 | covLarge
		default:
			r.cov |= covLarge
		}
		for d, l := range ms.live {
			if !l {
				continue
			}
			if s, ok := seg[ms.texts[d]]; ok && s != si {
				r.cov |= covCrossTie
			} else if !ok {
				seg[ms.texts[d]] = si
			}
			if name[ms.names[d]] {
				r.cov |= covDupName
			}
			name[ms.names[d]] = true
		}
	}
}

// draw returns n new documents. A quarter reuse the text of an earlier
// document (a tie, within or across segments) and a quarter its name; some
// are empty, and some carry a non-ASCII comment.
func (r *modelRun) draw(n int) (names, texts []string) {
	for range n {
		name, text := fmt.Sprintf("m%d.v", r.drawn), r.doc(r.rng, r.drawn)
		r.drawn++
		switch r.rng.Intn(16) {
		case 0:
			text = ""
		case 1:
			text = "// größe ÜBER π\n" + text
		}
		if _, t, ok := r.someDoc(); ok && r.rng.Intn(4) == 0 {
			text = t
		}
		if n, _, ok := r.someDoc(); ok && r.rng.Intn(4) == 0 {
			name = n
		} else if len(names) > 0 && r.rng.Intn(8) == 0 {
			name = names[r.rng.Intn(len(names))]
		}
		names, texts = append(names, name), append(texts, text)
	}
	return names, texts
}

// someDoc returns a random document of the model, live or not.
func (r *modelRun) someDoc() (name, text string, ok bool) {
	if len(r.m) == 0 {
		return "", "", false
	}
	ms := r.m[r.rng.Intn(len(r.m))]
	d := r.rng.Intn(len(ms.names))
	return ms.names[d], ms.texts[d], true
}

// queries draws a step's queries: a copy of a removed document and of any
// document, a near-duplicate, a splice, a fresh document of the shape, an
// upper-cased copy with non-ASCII runes and an invalid byte, the empty
// query, one of tokens no document holds and, for the wide shape, a giant
// repetitive one.
func (r *modelRun) queries(wide bool) []string {
	qs := []string{"", "zz_unseen_a zz_unseen_b zz_unseen_a", r.doc(r.rng, 1<<20+r.rng.Intn(1<<20))}
	if wide && r.rng.Intn(3) == 0 {
		qs = append(qs, strings.Repeat("big ", 34000))
	}
	var removed []string
	for _, ms := range r.m {
		for d, l := range ms.live {
			if !l {
				removed = append(removed, ms.texts[d])
			}
		}
	}
	if len(removed) > 0 {
		qs = append(qs, removed[r.rng.Intn(len(removed))])
	}
	if _, text, ok := r.someDoc(); ok {
		qs = append(qs, text)
	}
	if _, a, ok := r.someDoc(); ok {
		_, b, _ := r.someDoc()
		qs = append(qs, a+"\n  wire tail ; tok3 t3 ;", a[:len(a)/2]+b[len(b)/2:], strings.ToUpper(a)+" größe ÜBER \xff ;")
	}
	return qs
}

// step runs one step of the schedule: an Append, a Remove, a merge or a
// decode, drawn by weight.
func (r *modelRun) step() {
	switch op := r.rng.Intn(9); {
	case op < 3 || len(r.m) == 0:
		r.ctx += " append"
		r.appendDocs(r.draw(1 + r.rng.Intn(24)))
	case op < 6:
		r.ctx += " remove"
		var names []string
		for range 1 + r.rng.Intn(5) {
			switch name, _, _ := r.someDoc(); r.rng.Intn(4) {
			case 0:
				names = append(names, fmt.Sprintf("absent%d.v", r.rng.Intn(4)))
			case 1:
				names = append(names, name, name)
			default:
				names = append(names, name)
			}
		}
		for _, ms := range r.m {
			if len(ms.names) > 64 && r.rng.Intn(3) == 0 {
				names = append(names, ms.names[63], ms.names[64])
				break
			}
		}
		if ms := r.m[r.rng.Intn(len(r.m))]; len(ms.names) <= 24 && r.rng.Intn(3) == 0 {
			names = append(names, ms.names...) // a delta withdrawn whole
		}
		r.remove(names)
	case op < 8:
		i := r.rng.Intn(len(r.m))
		j := min(len(r.m)-1, i+r.rng.Intn(3))
		for k, ms := range r.m {
			if !slices.Contains(ms.live, true) {
				i, j = k, k // as the merger does, a segment with no live document goes first
			}
		}
		r.ctx += fmt.Sprintf(" merge %d-%d", i, j)
		r.merge(i, j)
	default:
		i := r.rng.Intn(len(r.m))
		r.ctx += fmt.Sprintf(" decode %d", i)
		r.decode(i)
	}
}

// TestIndexAgainstModel drives, for each seed, a snapshot through a schedule
// of steps — seal a base (BuildSegment or the builder), then Append a delta,
// Remove names (duplicated, absent, already removed, and the documents at ids
// 63 and 64), merge an adjacent run (MergeSegments, then ReplaceRun, after a
// stale plan of each kind is refused) or swap a segment for its decoded
// encoding — and after every step checks the snapshot against the model
// (check) and one earlier snapshot against what it answered (recheck). The
// seeds together must reach every shape of modelCoverage.
func TestIndexAgainstModel(t *testing.T) {
	covs, ran := make([]modelCoverage, len(modelSeeds)), make([]bool, len(modelSeeds))
	t.Cleanup(func() {
		var all modelCoverage
		for _, c := range covs {
			all |= c
		}
		if !slices.Contains(ran, false) && all != covAll {
			t.Errorf("the seeds reach coverage %010b, want %010b (bit 0 is covSmall)", all, covAll)
		}
	})
	for si, seed := range modelSeeds {
		shape := modelShapes[int(seed)%len(modelShapes)]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, shape.name), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			r := newModelRun(t, rng)
			r.doc = shape.doc
			r.ctx = fmt.Sprintf("seed %d: empty", seed)
			r.check(r.queries(false))
			r.ctx = fmt.Sprintf("seed %d: seal", seed)
			r.appendDocs(r.draw(1 + rng.Intn(2*pruneMinDocs)))
			r.check(r.queries(shape.name == "wide"))
			for step := 1; step <= 9; step++ {
				r.ctx = fmt.Sprintf("seed %d step %d", seed, step)
				r.step()
				r.check(r.queries(shape.name == "wide"))
				r.recheck(r.past[rng.Intn(len(r.past)-1)])
			}
			if len(r.m) > 0 {
				r.ctx = fmt.Sprintf("seed %d: all merged", seed)
				r.merge(0, len(r.m)-1)
				r.check(r.queries(shape.name == "wide"))
			}
			if len(r.m) > 0 {
				r.ctx += ", decoded"
				r.decode(0)
				r.check(r.queries(shape.name == "wide"))
			}
			covs[si], ran[si] = r.cov, true
		})
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

// buildSegmented splits docs into the given segment sizes via the
// streaming builder.
func buildSegmented(names, texts []string, sizes []int) []*Segment {
	var segs []*Segment
	off := 0
	for _, sz := range sizes {
		b := NewSegmentBuilder()
		for i := off; i < off+sz; i++ {
			b.Add(names[i], texts[i])
		}
		segs = append(segs, b.Seal())
		off += sz
	}
	if off != len(names) {
		panic("sizes do not cover docs")
	}
	return segs
}

// splitSizes produces a deterministic segmentation of n docs into parts
// parts (some possibly empty-adjacent; all >= 1 except when n < parts).
func splitSizes(n, parts int, rng *rand.Rand) []int {
	if parts > n {
		parts = n
	}
	sizes := make([]int, parts)
	for i := range sizes {
		sizes[i] = 1
	}
	for rem := n - parts; rem > 0; rem-- {
		sizes[rng.Intn(parts)]++
	}
	return sizes
}
