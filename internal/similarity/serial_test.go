package similarity

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randomDoc(rng *rand.Rand, idx int) string {
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "module m%d(input clk, output reg [7:0] q);\n", idx)
	for j := 0; j < 4+rng.Intn(12); j++ {
		fmt.Fprintf(&sb, "  wire [7:0] w%d_%d = q ^ 8'h%02X; // π\n", idx, j, rng.Intn(256))
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

// A decoded snapshot must answer every query bit-identically to the one
// that was encoded — Best, TopK, and BestBatch alike.
func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 40
	names := make([]string, n)
	texts := make([]string, n)
	for i := range texts {
		names[i] = fmt.Sprintf("doc%d.v", i)
		texts[i] = randomDoc(rng, i)
	}
	texts[5] = "" // empty document: no postings
	orig := SealCorpus(names, texts, 0)

	back, err := DecodeSnapshot(orig.EncodeSections())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("Len %d != %d", back.Len(), orig.Len())
	}
	queries := make([]string, 0, 30)
	for i := 0; i < 20; i++ {
		queries = append(queries, randomDoc(rng, 1000+i))
	}
	queries = append(queries, texts[0], texts[7], "", "garbage þ tokens")
	for qi, q := range queries {
		if got, want := back.Best(q), orig.Best(q); got != want {
			t.Fatalf("query %d: Best %+v != %+v", qi, got, want)
		}
		g, w := back.TopK(q, 5), orig.TopK(q, 5)
		if len(g) != len(w) {
			t.Fatalf("query %d: TopK len %d != %d", qi, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("query %d: TopK[%d] %+v != %+v", qi, i, g[i], w[i])
			}
		}
	}
	gb, wb := back.BestBatch(0, queries), orig.BestBatch(0, queries)
	for i := range gb {
		if gb[i] != wb[i] {
			t.Fatalf("BestBatch[%d] %+v != %+v", i, gb[i], wb[i])
		}
	}
}

// Encoding is deterministic: the same snapshot encodes to the same bytes,
// and a decode/re-encode cycle is byte-identical.
func TestSnapshotEncodeDeterministic(t *testing.T) {
	names := []string{"a.v", "b.v"}
	texts := []string{
		"module a(input x, output y); assign y = ~x; endmodule",
		"module b(input x, output y); assign y = x; endmodule",
	}
	s1 := SealCorpus(names, texts, 0)
	e1 := s1.EncodeSections()
	e2 := s1.EncodeSections()
	for i := range e1 {
		if !bytes.Equal(e1[i], e2[i]) {
			t.Fatalf("section %d differs between encodes", i)
		}
	}
	back, err := DecodeSnapshot(e1)
	if err != nil {
		t.Fatal(err)
	}
	e3 := back.EncodeSections()
	for i := range e1 {
		if !bytes.Equal(e1[i], e3[i]) {
			t.Fatalf("section %d differs after decode/re-encode", i)
		}
	}
}

// Structurally broken sections must fail with ErrCorruptSnapshot, never
// panic and never build a half-valid index.
func TestDecodeSnapshotCorrupt(t *testing.T) {
	s := SealCorpus(
		[]string{"a.v", "b.v"},
		[]string{
			"module a(input x, output y); assign y = ~x; endmodule",
			"module b(input x, output y); assign y = x & x; endmodule",
		}, 0)
	good := s.EncodeSections()

	mutate := func(f func(secs [][]byte)) [][]byte {
		cp := make([][]byte, len(good))
		for i := range good {
			cp[i] = append([]byte(nil), good[i]...)
		}
		f(cp)
		return cp
	}
	cases := map[string][][]byte{
		"wrong section count": good[:3],
		"truncated names":     mutate(func(s [][]byte) { s[0] = s[0][:len(s[0])-1] }),
		"truncated terms":     mutate(func(s [][]byte) { s[1] = s[1][:len(s[1])/2] }),
		"truncated pairs":     mutate(func(s [][]byte) { s[2] = s[2][:len(s[2])-3] }),
		"truncated postings":  mutate(func(s [][]byte) { s[3] = s[3][:len(s[3])-5] }),
		"trailing garbage":    mutate(func(s [][]byte) { s[0] = append(s[0], 0xFF) }),
		"huge name count":     mutate(func(s [][]byte) { s[0][0], s[0][1], s[0][2], s[0][3] = 0xFF, 0xFF, 0xFF, 0x7F }),
		"doc out of range":    mutate(func(s [][]byte) { s[3][8] = 0xEE }),
		// The first list's first weight follows its count and doc ids; the
		// sign bit is the top bit of the last byte.
		"negative weight": mutate(func(s [][]byte) {
			n := int(binary.LittleEndian.Uint32(s[3][4:]))
			s[3][8+4*n+7] |= 0x80
		}),
		// Dictionary sections: u32 count, then (u32 id, u32 len, term) or
		// (u64 key, u32 id) entries in id order. A bigram key naming ids no
		// unigram owns used to decode and then panic MergeSegments.
		"hostile bigram key": mutate(func(s [][]byte) {
			binary.LittleEndian.PutUint64(s[2][4:], 0x7fffffff<<32|0x7ffffffe)
		}),
		"bigram key of bigram ids": mutate(func(s [][]byte) {
			id := uint64(binary.LittleEndian.Uint32(s[2][12:]))
			binary.LittleEndian.PutUint64(s[2][16:], id<<32|id)
		}),
		// Valid in every other respect: only the dictionary's own lookup
		// can tell that a key is already there.
		"duplicate term": mutate(func(s [][]byte) { // the second and third unigrams, "a" and "(", are a byte each
			second := 12 + int(binary.LittleEndian.Uint32(s[1][8:]))
			s[1][second+9+8] = s[1][second+8]
		}),
		"duplicate pair":          mutate(func(s [][]byte) { copy(s[2][16:24], s[2][4:12]) }),
		"id in both dictionaries": mutate(func(s [][]byte) { copy(s[2][12:16], s[1][4:8]) }),
		"id in no dictionary": mutate(func(s [][]byte) {
			binary.LittleEndian.PutUint32(s[2], binary.LittleEndian.Uint32(s[2])-1)
			s[2] = s[2][:len(s[2])-12]
		}),
		"dictionary out of id order": mutate(func(s [][]byte) {
			second := 12 + int(binary.LittleEndian.Uint32(s[1][8:]))
			var first [4]byte
			copy(first[:], s[1][4:8])
			copy(s[1][4:8], s[1][second:second+4])
			copy(s[1][second:], first[:])
		}),
	}
	for name, secs := range cases {
		if _, err := DecodeSnapshot(secs); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

// writeSectionsRef is the per-posting encoder WriteSections replaced, kept as
// its reference: every item and every posting goes through a closure.
func writeSectionsRef(g *Segment, emit func(sec int, chunk []byte) error) error {
	const encodeChunk = 64 << 10
	d := &g.dict
	pairs := d.pairsByID(g.lists())
	counts := [SnapshotSections]int{len(g.names), len(d.tid), d.pairs, g.lists()}
	walks := [SnapshotSections]int{len(g.names), len(d.tid), g.lists(), g.lists()} // the bigrams pick their ids out of all
	items := [SnapshotSections]func(b []byte, i int) []byte{
		func(b []byte, i int) []byte { return append(appendU32(b, uint32(len(g.names[i]))), g.names[i]...) },
		func(b []byte, o int) []byte { // unigrams sit in the arena in id order
			t := d.termBytes(o)
			return append(appendU32(appendU32(b, uint32(d.tid[o])), uint32(len(t))), t...)
		},
		func(b []byte, id int) []byte {
			if pairs[id] == 0 {
				return b
			}
			return appendU32(appendU64(b, pairs[id]-1), uint32(id))
		},
		func(b []byte, id int) []byte {
			list := g.list(int32(id))
			b = appendU32(b, list.df)
			for d := range list.postings {
				b = appendU32(b, uint32(d))
			}
			for _, w := range list.postings {
				b = appendU64(b, math.Float64bits(w))
			}
			return b
		},
	}
	buf := make([]byte, 0, 2*encodeChunk)
	for sec, item := range items {
		buf = appendU32(buf[:0], uint32(counts[sec]))
		for i, n := 0, walks[sec]; i <= n; i++ {
			if i < n {
				buf = item(buf, i)
			}
			if len(buf) >= encodeChunk || i == n { // a full chunk, or the section's last
				if err := emit(sec, buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	return nil
}

// WriteSections writes the bytes writeSectionsRef writes on segments from
// every constructor: built (with dense rows), built by the streaming builder
// and appended as a delta, merged over tombstones, decoded, and empty. An
// emit error stops it at once and is returned.
func TestWriteSectionsMatchesReference(t *testing.T) {
	names, texts := protectedDocs(600)
	base := BuildSegment(names[:500], texts[:500], 0)
	snap := new(Snapshot).Append(base).Append(buildSegmented(names[500:], texts[500:], []int{100})[0])
	snap, _ = snap.Remove(append(names[3:40:40], names[550]))
	merged := MergeSegments([]*Segment{snap.Segment(0), snap.Segment(1)}, [][]uint64{snap.SegmentDead(0), snap.SegmentDead(1)})
	decoded, err := DecodeSegment(merged.EncodeSections())
	if err != nil {
		t.Fatal(err)
	}
	if len(base.dense) == 0 {
		t.Fatal("the built segment has no dense rows to write")
	}
	for _, c := range []struct {
		name string
		g    *Segment
	}{{"built", base}, {"delta", snap.Segment(1)}, {"merged", merged}, {"decoded", decoded}, {"empty", BuildSegment(nil, nil, 0)}} {
		want := make([][]byte, SnapshotSections)
		writeSectionsRef(c.g, func(sec int, chunk []byte) error {
			want[sec] = append(want[sec], chunk...)
			return nil
		})
		requireSameSections(t, c.name, c.g.EncodeSections(), want)
	}
	stop := errors.New("stop")
	for k := 1; ; k++ {
		calls := 0
		err := base.WriteSections(func(int, []byte) error {
			if calls++; calls == k {
				return stop
			}
			return nil
		})
		if calls == k-1 && err == nil {
			break // every chunk written
		}
		if err != stop || calls != k {
			t.Fatalf("emit failing at call %d: WriteSections returned %v after %d calls", k, err, calls)
		}
	}
}
