package similarity

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"freehw/internal/corpus"
)

// protectedDocs returns n documents of bench/'s protected-corpus shape.
func protectedDocs(n int) (names, texts []string) {
	for _, p := range corpus.BuildProtectedCorpus(1, n) {
		names = append(names, p.Name)
		texts = append(texts, p.Source)
	}
	return names, texts
}

func requireSameSections(t *testing.T, ctx string, got, want [][]byte) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: section %d differs from BuildSegment's (%d vs %d bytes)", ctx, i, len(got[i]), len(want[i]))
		}
	}
}

// Every way of producing a segment over the same documents — batch build,
// per-document Add then Seal, decoding an encoding, merging any split of
// the documents — lays the lists out identically: the encodings agree byte
// for byte, merges whose lists cross the dense threshold included.
func TestLayoutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	dNames, dTexts, _ := buildDiverse(97, 150)
	dTexts[0], dTexts[77], dTexts[149] = "", "", "" // empty documents, first and last included
	dNames[5], dNames[6] = dNames[4], dNames[4]     // duplicate names
	hNames := make([]string, 200)                   // shared vocabulary: dense lists
	hTexts := make([]string, 200)
	for i := range hTexts {
		hNames[i] = fmt.Sprintf("h%d", i%150)
		hTexts[i] = "module m ; " + randDoc(rng, 30, 20+rng.Intn(60))
	}
	for _, cc := range []struct {
		name         string
		names, texts []string
	}{{"diverse", dNames, dTexts}, {"homog", hNames, hTexts}, {"none", nil, nil}, {"only empty", []string{"e"}, []string{""}}} {
		built := BuildSegment(cc.names, cc.texts, 3)
		want := built.EncodeSections()
		if cc.name == "homog" && (len(built.dense) == 0 || len(built.dnorm) != 200) {
			t.Fatalf("homog: %d dense lists with %d dense norms, want one per document", len(built.dense), len(built.dnorm))
		}
		requireSameSections(t, cc.name+" Add+Seal", buildSegmented(cc.names, cc.texts, []int{len(cc.texts)})[0].EncodeSections(), want)
		dec, err := DecodeSegment(want)
		if err != nil {
			t.Fatalf("%s: decode: %v", cc.name, err)
		}
		requireSameSections(t, cc.name+" decoded", dec.EncodeSections(), want)
		for _, parts := range []int{1, 2, 7} {
			if len(cc.texts) == 0 {
				break
			}
			segs := buildSegmented(cc.names, cc.texts, splitSizes(len(cc.texts), parts, rng))
			requireSameSections(t, fmt.Sprintf("%s merged from %d", cc.name, parts), MergeSegments(segs, nil).EncodeSections(), want)
		}
	}
	t.Run("across the dense threshold", mergeAcrossTheDenseThreshold)
}

// A merge lays its lists out by the merged counts, so a list can change
// sides. Of 120 documents split in two halves, "fall" is in 48 of the first
// and none of the second (dense there, sparse merged), "rise" in 18 of the
// first and all of the second (sparse there, dense merged), and "lift" in 25
// of each (sparse everywhere) until a tombstone merge keeps only 30 documents
// a half, 25 of them with it. The plain merge encodes as a rebuild does; the
// tombstoned one, whose ids no rebuild reproduces, yields a rebuild's lists.
func mergeAcrossTheDenseThreshold(t *testing.T) {
	names, texts := make([]string, 120), make([]string, 120)
	for d := range texts {
		names[d] = fmt.Sprintf("c%d", d)
		var sb strings.Builder
		fmt.Fprintf(&sb, "module c%d ; ", d)
		if d < 48 {
			sb.WriteString("fall ; ")
		}
		if d < 18 || d >= 60 {
			sb.WriteString("rise ; ")
		}
		if d%60 < 25 {
			sb.WriteString("lift ; ")
		}
		texts[d] = sb.String()
	}
	segs := buildSegmented(names, texts, []int{60, 60})
	merged := MergeSegments(segs, nil)
	if !isDense(segs[0], "fall") || isDense(merged, "fall") || isDense(segs[0], "rise") || !isDense(segs[1], "rise") || !isDense(merged, "rise") {
		t.Fatal("fall and rise do not cross the dense threshold")
	}
	want := BuildSegment(names, texts, 1).EncodeSections()
	requireSameSections(t, "merged", merged.EncodeSections(), want)

	deads := make([][]uint64, 2)
	var live []string
	for i := range deads {
		deads[i] = make([]uint64, 1)
		for d := range 60 {
			if d >= 25 && d < 55 {
				deads[i][0] |= 1 << d
			} else {
				live = append(live, texts[60*i+d])
			}
		}
	}
	tomb := MergeSegments(segs, deads)
	if isDense(segs[0], "lift") || isDense(segs[1], "lift") || !isDense(tomb, "lift") {
		t.Fatal("lift does not cross the dense threshold")
	}
	requireDenseForm(t, "tombstoned merge", tomb)
	requireListsOf(t, "tombstoned merge", tomb, live)
	secs := tomb.EncodeSections()
	dec, err := DecodeSegment(secs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSections(t, "tombstoned merge decoded", dec.EncodeSections(), secs)
}

// A merge that drops tombstoned documents assigns dictionary ids in an
// order no rebuild reproduces, so it is pinned against the bytes
// MergeSegments wrote for the same run and bitmaps at the commit before
// postings moved into arenas (the hash was recorded there), and must
// survive its own round trips.
func TestTombstonedMergeBytesUnchanged(t *testing.T) {
	const recorded = "ef42207e9a94efcba11d3a2a6510b4b5cccbed3d3752f6e750bf676ab32f4137"
	names, texts, _ := buildDiverse(131, 300)
	rng := rand.New(rand.NewSource(131))
	segs := buildSegmented(names, texts, splitSizes(len(texts), 5, rng))
	deads := make([][]uint64, len(segs))
	for i, g := range segs {
		deads[i] = make([]uint64, (g.Docs()+63)/64)
		for d := 0; d < g.Docs(); d++ {
			if rng.Intn(4) == 0 {
				deads[i][d/64] |= 1 << (d % 64)
			}
		}
	}
	merged := MergeSegments(segs, deads)
	want := merged.EncodeSections()
	h := sha256.New()
	for _, sec := range want {
		h.Write(sec)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != recorded {
		t.Fatalf("tombstoned merge encodes to %s, recorded %s", got, recorded)
	}
	dec, err := DecodeSegment(want)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSections(t, "decoded", dec.EncodeSections(), want)
	requireSameSections(t, "merged again", MergeSegments([]*Segment{merged}, nil).EncodeSections(), want)
}

// postingCount returns the number of g's postings, its rows' included.
func postingCount(g *Segment) int {
	n := len(g.docs)
	for _, df := range g.ddf {
		n += int(df)
	}
	return n
}

// heldBy reports the heap bytes and heap objects that the value build
// returns keeps alive once everything else build allocated is collected.
// What build reads must outlive the call (runtime.KeepAlive), or its bytes
// and objects are subtracted from the reading.
func heldBy(build func() any) (bytes, objects int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), int64(after.HeapObjects) - int64(before.HeapObjects)
}

// A sealed segment is a fixed number of allocations however many lists and
// however many unigrams it has — postings and dictionaries alike are flat
// arenas and tables — plus its name strings. One allocation per list or per
// dictionary key cannot hide under that bound.
func TestSealedSegmentObjectCount(t *testing.T) {
	names, texts := protectedDocs(2000)
	var g *Segment
	_, objects := heldBy(func() any {
		g = BuildSegment(names, texts, 1)
		return g
	})
	runtime.KeepAlive(texts)
	distinctNames := map[string]bool{}
	for _, n := range names {
		distinctNames[n] = true
	}
	bound := int64(len(distinctNames) + 64)
	if objects > bound {
		t.Fatalf("sealed segment of %d lists holds %d heap objects, want <= %d (%d names + 64)",
			g.lists(), objects, bound, len(distinctNames))
	}
	if int64(len(g.dict.tid)) < 2*bound {
		t.Fatalf("%d unigrams against a bound of %d: the corpus no longer separates per-key allocation", len(g.dict.tid), bound)
	}
	t.Logf("%d docs, %d lists, %d postings: %d heap objects (bound %d)", g.Docs(), g.lists(), postingCount(g), objects, bound)
}

// A sealed segment must not alias the text it was built from: a dictionary
// key that is a substring of an uploaded document keeps that whole upload
// alive for the segment's life. Every key is bytes of the dictionary's own
// arena (upper-case terms were always copies — ToLower made them — so the
// text here has lower-case and non-ASCII terms too).
func TestSealedSegmentDoesNotAliasItsText(t *testing.T) {
	text := strings.Repeat("module top_level (input clk_i, output reg [7:0] Q_o); // größe\n  assign w = clk_i ^ 8'hA5;\nendmodule\n", 3)
	base, lower := uintptr(unsafe.Pointer(unsafe.StringData(text))), strings.ToLower(text)
	b := NewSegmentBuilder()
	b.Add("top.v", text)
	batch := BuildSegment([]string{"top.v"}, []string{text}, 1)
	for _, g := range []*Segment{b.Seal(), batch} {
		d := &g.dict
		if len(d.tid) < 10 {
			t.Fatalf("only %d unigrams interned", len(d.tid))
		}
		arena := d.arena[:cap(d.arena)]
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(arena))); p < base+uintptr(len(text)) && base < p+uintptr(len(arena)) {
			t.Fatalf("the dictionary's arena overlaps the document it was built from")
		}
		for o := range d.tid {
			if term := string(d.termBytes(o)); !strings.Contains(lower, term) {
				t.Fatalf("unigram %d is %q, not a term of the text", o, term)
			}
		}
	}
}

// BenchmarkBuildSegment builds bench/'s base corpus (8 000 protected
// documents) the way a full publish does, and reports what the sealed
// segment then costs to keep.
func BenchmarkBuildSegment(b *testing.B) {
	names, texts := protectedDocs(8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSegment(names, texts, 0)
	}
	b.StopTimer()
	var g *Segment
	live, objects := heldBy(func() any {
		g = BuildSegment(names, texts, 0)
		return g
	})
	runtime.KeepAlive(texts)
	b.ReportMetric(float64(live)/float64(postingCount(g)), "live-B/posting")
	b.ReportMetric(float64(objects), "objects/segment")
}

// BenchmarkDecodeSegment decodes that segment's sections — the restart path.
func BenchmarkDecodeSegment(b *testing.B) {
	names, texts := protectedDocs(8000)
	sections := BuildSegment(names, texts, 0).EncodeSections()
	size := 0
	for _, sec := range sections {
		size += len(sec)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSegment(sections); err != nil {
			b.Fatal(err)
		}
	}
}
