package similarity

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The segmented-index equivalence suite: every test pins the same
// invariant — a Snapshot composed of any segmentation, merge state, and
// tombstone pattern returns verdicts BIT-identical (scores compared with
// ==, not a tolerance) to a single-segment full rebuild of its live
// documents. This is the contract that lets the serving layer publish
// O(delta) without ever changing an audit verdict.

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

// appendSegs is the publisher's delta path: each segment appended to an
// empty snapshot in turn.
func appendSegs(segs []*Segment) *Snapshot {
	s := new(Snapshot)
	for _, g := range segs {
		s = s.Append(g)
	}
	return s
}

// mergeRun is the publisher's merger: it merges plan's segments [i, j] and
// replaces them in s, which is nil when s no longer holds plan's run.
func mergeRun(s, plan *Snapshot, i, j int) *Snapshot {
	var segs []*Segment
	var deads [][]uint64
	for k := i; k <= j; k++ {
		segs, deads = append(segs, plan.Segment(k)), append(deads, plan.SegmentDead(k))
	}
	return s.ReplaceRun(plan, i, j, MergeSegments(segs, deads))
}

func requireSameMatches(t *testing.T, ctx string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d matches, want %d\n got: %v\nwant: %v", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d differs\n got: %+v\nwant: %+v", ctx, i, got[i], want[i])
		}
	}
}

// assertSnapshotEquiv checks Best, TopK (several k) and Name against a
// full single-segment rebuild of the same live docs.
func assertSnapshotEquiv(t *testing.T, ctx string, snap *Snapshot, liveNames, liveTexts, queries []string) {
	t.Helper()
	full := SealCorpus(liveNames, liveTexts, 1)
	if snap.Len() != full.Len() {
		t.Fatalf("%s: live count %d != %d", ctx, snap.Len(), full.Len())
	}
	for i := 0; i < full.Len(); i++ {
		if g, w := snap.Name(i), full.Name(i); g != w {
			t.Fatalf("%s: Name(%d) = %q, want %q", ctx, i, g, w)
		}
	}
	for qi, q := range queries {
		gb, wb := snap.Best(q), full.Best(q)
		if gb != wb {
			t.Fatalf("%s: query %d Best\n got: %+v\nwant: %+v", ctx, qi, gb, wb)
		}
		for _, k := range []int{1, 3, 7, full.Len() + 2} {
			requireSameMatches(t, fmt.Sprintf("%s: query %d TopK(%d)", ctx, qi, k),
				snap.TopK(q, k), full.TopK(q, k))
		}
	}
}

func segQueries(texts []string, rng *rand.Rand) []string {
	qs := []string{
		texts[rng.Intn(len(texts))],
		texts[rng.Intn(len(texts))] + "\nassign extra = tail ^ bits;",
		"module unrelated(input clk); endmodule",
		"",
	}
	// A splice of two docs: shared terms with many segments.
	a, b := texts[rng.Intn(len(texts))], texts[rng.Intn(len(texts))]
	qs = append(qs, a[:len(a)/2]+b[len(b)/2:])
	return qs
}

// Segmented snapshots with no tombstones match the full rebuild exactly,
// across segment counts — on a diverse corpus (the gather engine prunes)
// and on a small shared-vocabulary one (below pruneMinDocs, every document
// scores against every query).
func TestSegmentedMatchesFullRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names, texts, _ := buildDiverse(91, 160)
	hNames := make([]string, 30)
	hTexts := make([]string, 30)
	for i := range hTexts {
		hNames[i] = fmt.Sprintf("d%d", i)
		hTexts[i] = randDoc(rng, 40, 30+rng.Intn(80))
	}
	for _, cc := range []struct {
		name         string
		names, texts []string
	}{{"diverse", names, texts}, {"homog", hNames, hTexts}} {
		queries := segQueries(cc.texts, rng)
		for i := 0; i < 10; i++ {
			queries = append(queries, randDoc(rng, 60, 10+rng.Intn(50)))
		}
		for _, parts := range []int{1, 2, 3, 5, 9, 32} {
			sizes := splitSizes(len(cc.texts), parts, rng)
			snap := SnapshotOf(buildSegmented(cc.names, cc.texts, sizes), nil)
			assertSnapshotEquiv(t, fmt.Sprintf("%s parts=%d", cc.name, parts), snap, cc.names, cc.texts, queries)
		}
	}
}

// Tombstoned documents disappear from verdicts exactly as if the corpus
// had been rebuilt without them — across segmentations and removal rates.
func TestTombstonesMatchFilteredRebuild(t *testing.T) {
	names, texts, _ := buildDiverse(17, 120)
	rng := rand.New(rand.NewSource(23))
	queries := segQueries(texts, rng)
	for _, parts := range []int{1, 4, 11} {
		for _, removeFrac := range []float64{0.1, 0.5, 0.9} {
			snap := appendSegs(buildSegmented(names, texts, splitSizes(len(texts), parts, rng)))
			var removed []string
			liveSet := map[string]bool{}
			for _, n := range names {
				liveSet[n] = true
			}
			for _, n := range names {
				if rng.Float64() < removeFrac {
					removed = append(removed, n)
					liveSet[n] = false
				}
			}
			snap, got := snap.Remove(removed)
			if want := len(removed); got != want {
				t.Fatalf("Remove returned %d, want %d", got, want)
			}
			var liveNames, liveTexts []string
			for i, n := range names {
				if liveSet[n] {
					liveNames = append(liveNames, n)
					liveTexts = append(liveTexts, texts[i])
				}
			}
			ctx := fmt.Sprintf("parts=%d frac=%.1f", parts, removeFrac)
			assertSnapshotEquiv(t, ctx, snap, liveNames, liveTexts, queries)
		}
	}
}

// Merging any adjacent run — including runs with tombstones — leaves
// verdicts bit-identical, and the merged segment drops the dead docs.
func TestMergePreservesVerdicts(t *testing.T) {
	names, texts, _ := buildDiverse(5, 140)
	rng := rand.New(rand.NewSource(41))
	queries := segQueries(texts, rng)

	var removed []string
	for _, n := range names {
		if rng.Float64() < 0.3 {
			removed = append(removed, n)
		}
	}
	before, _ := appendSegs(buildSegmented(names, texts, splitSizes(len(texts), 6, rng))).Remove(removed)
	wantBest := make([]Match, len(queries))
	for i, q := range queries {
		wantBest[i] = before.Best(q)
	}

	// Merge pairwise until one segment remains, checking after each step.
	snap := before
	for step := 0; snap.Segments() > 1; step++ {
		i := rng.Intn(snap.Segments() - 1)
		if moved, n := snap.Remove(names); n == 0 || mergeRun(moved, snap, i, i+1) != nil {
			t.Fatal("a run whose bitmaps changed since the plan was replaced")
		}
		if snap = mergeRun(snap, snap, i, i+1); snap == nil {
			t.Fatal("run reported stale with no concurrent writer")
		}
		if snap.Len() != before.Len() {
			t.Fatalf("step %d: live count changed %d -> %d", step, before.Len(), snap.Len())
		}
		for qi, q := range queries {
			if got := snap.Best(q); got != wantBest[qi] {
				t.Fatalf("step %d query %d: Best changed\n got: %+v\nwant: %+v", step, qi, got, wantBest[qi])
			}
		}
	}
	// Fully merged: one segment, no tombstones, and equivalent to the
	// filtered full rebuild.
	if snap.Segments() != 1 {
		t.Fatalf("expected 1 segment, got %d", snap.Segments())
	}
	if docs, live := snap.Segment(0).Docs(), snap.SegmentLive(0); docs != live || live != before.Len() {
		t.Fatalf("merged segment docs=%d live=%d, want both %d", docs, live, before.Len())
	}
	liveSet := map[string]bool{}
	for _, n := range removed {
		liveSet[n] = true
	}
	var liveNames, liveTexts []string
	for i, n := range names {
		if !liveSet[n] {
			liveNames = append(liveNames, n)
			liveTexts = append(liveTexts, texts[i])
		}
	}
	assertSnapshotEquiv(t, "fully merged", snap, liveNames, liveTexts, queries)
}

// A merge of an entirely tombstoned run returns nil, and ReplaceRun drops
// the run.
func TestMergeDropsDeadRun(t *testing.T) {
	names, texts, _ := buildDiverse(3, 30)
	snap, _ := appendSegs(buildSegmented(names, texts, []int{10, 10, 10})).Remove(names[10:20]) // kill the middle segment entirely
	if merged := MergeSegments([]*Segment{snap.Segment(1)}, [][]uint64{snap.SegmentDead(1)}); merged != nil {
		t.Fatalf("merge of dead run returned a segment with %d docs", merged.Docs())
	}
	snap = snap.ReplaceRun(snap, 1, 1, nil)
	if snap.Segments() != 2 || snap.Len() != 20 {
		t.Fatalf("after drop: segments=%d live=%d, want 2/20", snap.Segments(), snap.Len())
	}
	assertSnapshotEquiv(t, "dropped run", snap,
		append(append([]string{}, names[:10]...), names[20:]...),
		append(append([]string{}, texts[:10]...), texts[20:]...),
		[]string{texts[0], texts[15], texts[25]})
}

// Segment round-trip: encode/decode a segment and splice it into a
// snapshot with tombstones; verdicts survive byte-for-byte.
func TestSegmentSerialRoundTripInSnapshot(t *testing.T) {
	names, texts, _ := buildDiverse(77, 60)
	segs := buildSegmented(names, texts, []int{20, 20, 20})
	dec := make([]*Segment, len(segs))
	for i, g := range segs {
		d, err := DecodeSegment(g.EncodeSections())
		if err != nil {
			t.Fatal(err)
		}
		dec[i] = d
	}
	dead := make([]uint64, 1)
	dead[0] = 0b1010 // tombstone docs 1 and 3 of the middle segment
	deads := [][]uint64{nil, dead, nil}
	orig := SnapshotOf(segs, deads)
	rt := SnapshotOf(dec, deads)
	for _, q := range []string{texts[3], texts[21], texts[59] + " etc"} {
		if g, w := rt.Best(q), orig.Best(q); g != w {
			t.Fatalf("Best after round-trip: %+v != %+v", g, w)
		}
		requireSameMatches(t, "TopK after round-trip", rt.TopK(q, 5), orig.TopK(q, 5))
	}
}

// A snapshot rebuilt the way a store loads one — each segment decoded from
// its sections, with the source's tombstone bitmaps — answers like the
// source, and removals through the rebuilt snapshot do not disturb the
// source, although the two share their bitmaps (copy-on-write).
func TestIndexFromSnapshotRoundTrip(t *testing.T) {
	names, texts, _ := buildDiverse(59, 80)
	rng := rand.New(rand.NewSource(11))
	snap, _ := appendSegs(buildSegmented(names, texts, splitSizes(len(texts), 4, rng))).Remove(names[5:25])

	segs := make([]*Segment, snap.Segments())
	deads := make([][]uint64, snap.Segments())
	for i := range segs {
		d, err := DecodeSegment(snap.Segment(i).EncodeSections())
		if err != nil {
			t.Fatal(err)
		}
		segs[i], deads[i] = d, snap.SegmentDead(i)
	}
	rebuilt := SnapshotOf(segs, deads)
	if rebuilt.Len() != snap.Len() || rebuilt.Segments() != snap.Segments() {
		t.Fatalf("rebuilt snapshot live=%d segs=%d, want %d/%d",
			rebuilt.Len(), rebuilt.Segments(), snap.Len(), snap.Segments())
	}
	q := texts[30]
	want := snap.Best(q)
	if got := rebuilt.Best(q); got != want {
		t.Fatalf("rebuilt Best = %+v, want %+v", got, want)
	}
	requireSameMatches(t, "rebuilt TopK", rebuilt.TopK(q, 5), snap.TopK(q, 5))
	// Remove through the rebuilt snapshot; neither it nor the source may move.
	derived, n := rebuilt.Remove([]string{want.Name})
	if n != 1 {
		t.Fatalf("Remove = %d, want 1", n)
	}
	if got := snap.Best(q); got != want {
		t.Fatalf("source snapshot changed after Remove on rebuilt snapshot: %+v != %+v", got, want)
	}
	if got := rebuilt.Best(q); got != want {
		t.Fatalf("rebuilt snapshot changed after Remove through it: %+v != %+v", got, want)
	}
	if got := derived.Best(q); got.Name == want.Name {
		t.Fatalf("removed doc %q still best in derived snapshot", want.Name)
	}
}

// Remove tombstones every live occurrence of each name — duplicates within
// and across segments, in built, decoded and merged segments alike — and
// nothing else. A name no segment holds removes nothing, repeating a
// removal removes nothing, and the source snapshot answers exactly as
// before, even when what was removed through the derived one was its best
// match: bitmaps are copied on write. (Append of a same-named document
// keeps both live; replace semantics live in the serving layer.)
func TestRemoveAllOccurrences(t *testing.T) {
	var dupNames, dupTexts []string
	var built, decoded []*Segment
	for _, docs := range [][]string{ // per segment: name, text, name, text, …
		{"dup", "module a(input x); endmodule", "solo", "module b(output y); endmodule", "dup", "module d(input w); endmodule"},
		{"dup", "module c(inout z); endmodule", "other", "module e(output v); endmodule"},
	} {
		b := NewSegmentBuilder()
		for i := 0; i < len(docs); i += 2 {
			b.Add(docs[i], docs[i+1])
			dupNames, dupTexts = append(dupNames, docs[i]), append(dupTexts, docs[i+1])
		}
		g := b.Seal()
		d, err := DecodeSegment(g.EncodeSections())
		if err != nil {
			t.Fatal(err)
		}
		built, decoded = append(built, g), append(decoded, d)
	}
	merged := []*Segment{MergeSegments(built, nil)}

	names, texts, _ := buildDiverse(59, 80)
	diverse, _ := appendSegs(buildSegmented(names, texts, []int{20, 20, 20, 20})).Remove(names[5:25])
	best := diverse.Best(texts[30]).Name

	for _, tc := range []struct {
		name         string
		src          *Snapshot
		names, texts []string // src's live documents, in order
		remove       []string
		want         int
	}{
		{"duplicates within and across segments", appendSegs(built), dupNames, dupTexts, []string{"dup"}, 3},
		{"absent names beside a present one", appendSegs(built), dupNames, dupTexts, []string{"missing", "solo", "missing"}, 1},
		{"only absent names", appendSegs(built), dupNames, dupTexts, []string{"missing"}, 0},
		{"decoded segments", appendSegs(decoded), dupNames, dupTexts, []string{"dup", "other"}, 4},
		{"a merged segment", appendSegs(merged), dupNames, dupTexts, []string{"dup"}, 3},
		{"the source's best match", diverse, slices.Concat(names[:5], names[25:]), slices.Concat(texts[:5], texts[25:]), []string{best}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			queries := append(slices.Clone(tc.texts), "module unrelated(input clk); endmodule")
			got, n := tc.src.Remove(tc.remove)
			if n != tc.want {
				t.Fatalf("Remove = %d, want %d", n, tc.want)
			}
			var liveNames, liveTexts []string
			for i, name := range tc.names {
				if !slices.Contains(tc.remove, name) {
					liveNames, liveTexts = append(liveNames, name), append(liveTexts, tc.texts[i])
				}
			}
			assertSnapshotEquiv(t, "derived", got, liveNames, liveTexts, queries)
			assertSnapshotEquiv(t, "source", tc.src, tc.names, tc.texts, queries)
			if again, n := got.Remove(tc.remove); n != 0 || again != got {
				t.Fatalf("repeated Remove = %d", n)
			}
		})
	}
}
