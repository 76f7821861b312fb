package similarity

import (
	"fmt"
	"math/rand"
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
			ix := NewIndex()
			for _, g := range buildSegmented(names, texts, splitSizes(len(texts), parts, rng)) {
				ix.Append(g)
			}
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
			if got, want := ix.Remove(removed), len(removed); got != want {
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
			assertSnapshotEquiv(t, ctx, ix.Snapshot(), liveNames, liveTexts, queries)
		}
	}
}

// Merging any adjacent run — including runs with tombstones — leaves
// verdicts bit-identical, and the merged segment drops the dead docs.
func TestMergePreservesVerdicts(t *testing.T) {
	names, texts, _ := buildDiverse(5, 140)
	rng := rand.New(rand.NewSource(41))
	queries := segQueries(texts, rng)

	ix := NewIndex()
	for _, g := range buildSegmented(names, texts, splitSizes(len(texts), 6, rng)) {
		ix.Append(g)
	}
	var removed []string
	for _, n := range names {
		if rng.Float64() < 0.3 {
			removed = append(removed, n)
		}
	}
	ix.Remove(removed)
	before := ix.Snapshot()
	wantBest := make([]Match, len(queries))
	for i, q := range queries {
		wantBest[i] = before.Best(q)
	}

	// Merge pairwise until one segment remains, checking after each step.
	step := 0
	for ix.Segments() > 1 {
		i := rng.Intn(ix.Segments() - 1)
		segs, deads := ix.Run(i, i+1)
		merged := MergeSegments(segs, deads)
		if !ix.RunStable(i, i+1, segs, deads) {
			t.Fatal("run reported unstable with no concurrent writer")
		}
		ix.ReplaceRun(i, i+1, merged)
		snap := ix.Snapshot()
		if snap.Len() != before.Len() {
			t.Fatalf("step %d: live count changed %d -> %d", step, before.Len(), snap.Len())
		}
		for qi, q := range queries {
			if got := snap.Best(q); got != wantBest[qi] {
				t.Fatalf("step %d query %d: Best changed\n got: %+v\nwant: %+v", step, qi, got, wantBest[qi])
			}
		}
		step++
	}
	// Fully merged: one segment, no tombstones, and equivalent to the
	// filtered full rebuild.
	if ix.Segments() != 1 {
		t.Fatalf("expected 1 segment, got %d", ix.Segments())
	}
	if docs, live := ix.SegInfo(0); docs != live || live != before.Len() {
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
	assertSnapshotEquiv(t, "fully merged", ix.Snapshot(), liveNames, liveTexts, queries)
}

// A merge of an entirely tombstoned run returns nil, and ReplaceRun drops
// the run.
func TestMergeDropsDeadRun(t *testing.T) {
	names, texts, _ := buildDiverse(3, 30)
	ix := NewIndex()
	for _, g := range buildSegmented(names, texts, []int{10, 10, 10}) {
		ix.Append(g)
	}
	ix.Remove(names[10:20]) // kill the middle segment entirely
	segs, deads := ix.Run(1, 1)
	if merged := MergeSegments(segs, deads); merged != nil {
		t.Fatalf("merge of dead run returned a segment with %d docs", merged.Docs())
	}
	ix.ReplaceRun(1, 1, nil)
	if ix.Segments() != 2 || ix.Live() != 20 {
		t.Fatalf("after drop: segments=%d live=%d, want 2/20", ix.Segments(), ix.Live())
	}
	assertSnapshotEquiv(t, "dropped run", ix.Snapshot(),
		append(append([]string{}, names[:10]...), names[20:]...),
		append(append([]string{}, texts[:10]...), texts[20:]...),
		[]string{texts[0], texts[15], texts[25]})
}

// IndexFromSnapshot rebuilds a writer whose snapshot is equivalent, and
// removals through the rebuilt writer do not disturb the source snapshot
// (copy-on-write bitmaps).
func TestIndexFromSnapshotRoundTrip(t *testing.T) {
	names, texts, _ := buildDiverse(59, 80)
	rng := rand.New(rand.NewSource(11))
	ix := NewIndex()
	for _, g := range buildSegmented(names, texts, splitSizes(len(texts), 4, rng)) {
		ix.Append(g)
	}
	ix.Remove(names[5:25])
	snap := ix.Snapshot()

	ix2 := IndexFromSnapshot(snap)
	if ix2.Live() != snap.Len() || ix2.Segments() != snap.Segments() {
		t.Fatalf("rebuilt index live=%d segs=%d, want %d/%d",
			ix2.Live(), ix2.Segments(), snap.Len(), snap.Segments())
	}
	q := texts[30]
	want := snap.Best(q)
	if got := ix2.Snapshot().Best(q); got != want {
		t.Fatalf("rebuilt Best = %+v, want %+v", got, want)
	}
	// Mutate the rebuilt writer; the source snapshot must not move.
	ix2.Remove([]string{want.Name})
	if got := snap.Best(q); got != want {
		t.Fatalf("source snapshot changed after Remove on rebuilt index: %+v != %+v", got, want)
	}
	if got := ix2.Snapshot().Best(q); got.Name == want.Name {
		t.Fatalf("removed doc %q still best in rebuilt index", want.Name)
	}
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

// Duplicate names: Append of a same-named doc keeps both live (replace
// semantics live in the serving layer); Remove tombstones every
// occurrence.
func TestRemoveAllOccurrences(t *testing.T) {
	ix := NewIndex()
	b := NewSegmentBuilder()
	b.Add("dup", "module a(input x); endmodule")
	b.Add("solo", "module b(output y); endmodule")
	ix.Append(b.Seal())
	b2 := NewSegmentBuilder()
	b2.Add("dup", "module c(inout z); endmodule")
	ix.Append(b2.Seal())
	if ix.Live() != 3 {
		t.Fatalf("live = %d, want 3", ix.Live())
	}
	if got := ix.Remove([]string{"dup", "missing"}); got != 2 {
		t.Fatalf("Remove = %d, want 2", got)
	}
	if ix.Live() != 1 {
		t.Fatalf("live = %d, want 1", ix.Live())
	}
	snap := ix.Snapshot()
	if snap.Len() != 1 || snap.Name(0) != "solo" {
		t.Fatalf("snapshot: len=%d name=%q", snap.Len(), snap.Name(0))
	}
	// Removing again is a no-op.
	if got := ix.Remove([]string{"dup"}); got != 0 {
		t.Fatalf("second Remove = %d, want 0", got)
	}
}
