package similarity

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Segmented index layer (PR 9). A Segment is an immutable, sealed posting
// structure over a contiguous run of documents. A Snapshot (snapshot.go)
// is an ordered list of segments with tombstone bitmaps; publishing a
// delta means building ONE new segment from the added documents
// (O(delta), not O(corpus)) and deriving the next snapshot with it
// appended; removing documents derives one with tombstone bits set, found
// through each segment's name order — the existing segments are never
// touched. Background merges (merge.go) compact adjacent segments without
// the source texts.
//
// Scoring stays bit-identical to a single-segment full rebuild because
// the canonical accumulation order is a property of the query alone (the
// query's first-appearance term order — see query): a document's
// dot product sums the same float64s in the same sequence no matter which
// dictionary its postings live under.

// Segment is one immutable slice of the corpus and the only type that owns
// postings and dictionaries. Unigram terms are interned as int32 postings
// ids; bigrams are keyed by the pair of their unigram ids, so neither
// indexing nor querying ever materializes a concatenated bigram string.
// Both dictionaries are the flat tables of dict (dict.go), the ones the
// segment was built, decoded or merged into: apart from the names a sealed
// segment is a fixed number of pointer-free slices whatever it indexes.
// Segments come sealed from SegmentBuilder.Seal, BuildSegment,
// MergeSegments or DecodeSegment and are never written again, so any
// number of readers may query one concurrently.
//
// A list is dense when it holds at least 1/rowShare of the segment's
// documents (rowShare·df >= docs) and none of its counts passes 32 767,
// which every constructor decides from the counts before it places a
// posting (layout). dense names those lists, ascending, and each is stored
// only doc-indexed, as counts: dense[i]'s count for document d is
// rows[i*docs+d], 0 where d is not in the list, and its weight is
// float64(count)/norm[d]; ddf[i] is its df. A row is 2·docs bytes, at most
// 2·rowShare·df, against 12·df in the arenas. The scorer reads a row for any
// document without a search and adds whole rows as integers (denseRun); the
// sums are exact, so only the few documents that can win are re-scored in
// float64 (see maxscore.go).
//
// Every other list lives in three flat, pointer-free arenas (a dense list's
// range is empty): list id's postings are docs[off[id]:off[id+1]], documents
// strictly ascending (documents index in insertion order), with the
// tf(term, doc)/norm(doc) weights parallel in ws — 12 packed bytes per
// posting, and a dot product against raw query counts needs only the query
// norm at the end. There is nothing per list for the collector to trace.
// A list whose counts pass 32 767 stays here whatever its df: the file does
// not record which lists are rows, so that changes no byte of it.
//
// norm[d] is the norm of document d's counts, the one every weight of d was
// divided by: every weight anywhere in the segment is float64(count)/norm[d]
// for an integer count, which is what lets a row hold counts, a merge turn
// weights back into counts and a decoder recover them. inv[d] is 1/norm[d]
// (0 for a document with no postings), so the scan that combines a row sum
// with the float sums never divides.
//
// tmax, dnorm, inv, rowMax, isRow, rowRank and byName are derived by seal,
// never serialized. Bit id of isRow is set when list id is a row, and
// rowRank[w] counts the rows among the lists before word w's first, so list
// finds a row in O(1) for 1.5 bits a list: 89 KB on bench/'s 474 k-list
// base, where an int32 a list would take 1.9 MB. byName is the document ids
// sorted by (name, id), so a removal finds every document of a name by binary
// search. tmax[id] is list id's largest weight. dnorm[d] is the 2-norm of
// document d's dense weights, rounded up (see seal), and dnormMax the
// largest: by Cauchy–Schwarz no query gets more than ‖its dense
// counts‖·dnorm[d] out of d's dense lists, the one dense bound the gather
// engine uses. rowMax is the largest count in rows, which bounds what a run
// of rows can add to an int32.
//
// The zero id means "not yet assigned": internal/snapstore assigns a
// store-unique id the first time the segment is persisted, and the id
// never changes afterwards.
type Segment struct {
	names    []string
	dict     dict     // unigram term -> postings id, unigram id pair -> bigram postings id
	off      []uint32 // lists+1 arena offsets; unigrams and bigrams share one id space
	docs     []int32
	ws       []float64
	tmax     []float64
	dense    []int32
	ddf      []uint32
	rows     []int16
	isRow    []uint64
	rowRank  []uint32
	rowMax   int32
	norm     []float64
	inv      []float64
	dnorm    []float64
	dnormMax float64
	byName   []int32
	id       uint64
}

// rowShare is the one dense definition: a list is a row once it holds at
// least 1/rowShare of the segment's documents (rowShare·df >= docs). A row
// (2·docs bytes) is added as integers, 0.05–0.1 ns a slot; in the arenas (12·df
// bytes) a list is scattered, ≈ 1 ns a posting. ROADMAP's decision records
// have the sweep on bench/'s 8 000 documents: 6 to 16 read the same within
// the host's noise, 6 and 8 keep the smallest segment, and 8 leaves a novel
// query 123 sparse postings, not 307.
const rowShare = 8

// maxRowCount is the largest count a row holds: an int16, which the kernel
// multiplies as one.
const maxRowCount = math.MaxInt16

func newSegment() *Segment { return &Segment{dict: newDict(0, 0, 0)} }

// ID returns the segment's storage identity (0 = never persisted).
func (g *Segment) ID() uint64 { return g.id }

// SetID assigns the storage identity, once. Re-setting the same id is a
// no-op; changing an assigned id panics — segment files are immutable and
// named by id, so a changed id would alias two contents.
func (g *Segment) SetID(id uint64) {
	if id == 0 {
		panic("similarity: segment id 0 is reserved for unassigned")
	}
	if g.id != 0 && g.id != id {
		panic("similarity: segment id reassigned")
	}
	g.id = id
}

// Docs returns the number of documents in the segment (including any the
// enclosing snapshot has tombstoned — tombstones live above the segment).
func (g *Segment) Docs() int { return len(g.names) }

// lists returns the number of posting lists: every list is named by
// exactly one dictionary entry.
func (g *Segment) lists() int { return len(g.dict.tid) + g.dict.pairs }

// pairKey packs two unigram ids into the bigram dictionary key.
func pairKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// layout sizes the segment for the per-list posting counts in n (list id's
// at n[id+2]; lists+2 slots; names and norm in place): a dense list gets the
// next row, allocated after the arenas, and any other a range of the arenas.
// wide[id] (absent past len(wide)) marks a list holding a count above
// maxRowCount, which stays in the arenas. It returns n as place's fill
// cursors: a sparse list id's next arena slot is cur[id+1], a dense list's
// cur[id+1] is ^row, which no arena slot can be (total+rows <= 2^32-1). seal
// turns the cursors into g.off.
func (g *Segment) layout(n []uint32, wide []bool) (cur []uint32) {
	nDocs := uint64(len(g.names))
	total := uint64(0)
	for id := 0; id+2 < len(n); id++ {
		if c := uint64(n[id+2]); c > 0 && rowShare*c >= nDocs && (id >= len(wide) || !wide[id]) {
			g.dense = append(g.dense, int32(id))
			g.ddf = append(g.ddf, uint32(c))
		} else {
			total += c
		}
		if total+uint64(len(g.dense)) > math.MaxUint32 {
			panic("similarity: segment exceeds 2^32 postings")
		}
		n[id+2] = uint32(total)
	}
	for r, id := range g.dense {
		n[id+1] = ^uint32(r)
	}
	g.off = n[:len(n)-1]
	g.docs = make([]int32, total)
	g.ws = make([]float64, total)
	g.rows = make([]int16, uint64(len(g.dense))*nDocs+31) // and 31 slots past the last row: see tileSums
	return n
}

// place stores count c of document d as list id's next posting: the count
// at d in its row, or the weight c/norm[d] at the arena slot its cursor then
// moves past.
func (g *Segment) place(cur []uint32, id int, d int32, c uint32) {
	p := cur[id+1]
	if r := ^p; r < uint32(len(g.dense)) {
		g.rows[int(r)*len(g.names)+int(d)] = int16(c)
		return
	}
	g.docs[p], g.ws[p] = d, float64(c)/g.norm[d]
	cur[id+1] = p + 1
}

// list returns list id as a cursor with no query side: a dense list's row
// index, docs nil, or its arena range, and its df (0: a list nothing is in).
// Only an empty range is looked up in isRow.
func (g *Segment) list(id int32) pruneCursor {
	lo, hi := g.off[id], g.off[id+1]
	if bit := uint64(1) << (id & 63); lo == hi && g.isRow[id>>6]&bit != 0 {
		r := g.rowRank[id>>6] + uint32(bits.OnesCount64(g.isRow[id>>6]&(bit-1)))
		return pruneCursor{row: int32(r), df: g.ddf[r]}
	}
	return pruneCursor{docs: g.docs[lo:hi], ws: g.ws[lo:hi], row: -1, df: hi - lo}
}

// row returns dense row r's counts, one per document.
func (g *Segment) row(r int32) []int16 {
	n := len(g.names)
	return g.rows[int(r)*n : (int(r)+1)*n]
}

// postings yields list id's postings in ascending document order with
// their counts: its row's non-zero counts, or its arena weights times their
// documents' norms, which round back to the counts (a weight is within half
// an ulp of count/norm, so the product is within a few ulps of the count).
// Merging reads lists through it; encoding and scoring read rows as rows.
func (g *Segment) postings(id int32) func(yield func(int32, uint32) bool) {
	return func(yield func(int32, uint32) bool) {
		c := g.list(id)
		if c.row < 0 {
			for j, d := range c.docs {
				if !yield(d, uint32(math.RoundToEven(c.ws[j]*g.norm[d]))) {
					return
				}
			}
			return
		}
		for d, n := range g.row(c.row) {
			if n != 0 && !yield(int32(d), uint32(n)) {
				return
			}
		}
	}
}

// seal installs the offset table from the fill cursors and the row bitmap
// from dense, derives tmax, the reciprocal and dense norms from the arenas
// and rows, and sorts the name order; it returns the now-frozen segment.
func (g *Segment) seal() *Segment {
	nDocs := len(g.names)
	for id := 1; id < len(g.off); id++ { // a dense list's empty range ends where the list before it does
		if ^g.off[id] < uint32(len(g.dense)) {
			g.off[id] = g.off[id-1]
		}
	}
	g.isRow, g.rowRank = make([]uint64, g.lists()/64+1), make([]uint32, g.lists()/64+1)
	for _, id := range g.dense {
		g.isRow[id>>6] |= 1 << (id & 63)
	}
	for w := 1; w < len(g.rowRank); w++ {
		g.rowRank[w] = g.rowRank[w-1] + uint32(bits.OnesCount64(g.isRow[w-1]))
	}
	g.tmax = make([]float64, g.lists())
	for id := range g.tmax {
		if ws := g.ws[g.off[id]:g.off[id+1]]; len(ws) > 0 {
			g.tmax[id] = slices.Max(ws)
		}
	}
	if len(g.inv) != nDocs { // DecodeSegment lends the array it kept the smallest weights in
		g.inv = make([]float64, nDocs)
	}
	for d, n := range g.norm {
		g.inv[d] = 0
		if n > 0 {
			g.inv[d] = 1 / n
		}
	}
	// One pass over the rows with no branch on a count (a row is mostly
	// zeros, in no order a predictor learns): each document's sum of squared
	// counts (exact), the largest count, and each row's largest weight —
	// count/norm at the largest ratio, as division rounds monotonically.
	// count·inv is within 2·2^-53 of the ratio, so only a document within
	// 6·2^-53 of the largest product so far is divided; a 0 never is.
	g.dnorm = make([]float64, nDocs)
	sq, top := g.dnorm, int16(0)
	for i, id := range g.dense {
		lim, tmax := math.SmallestNonzeroFloat64, 0.0
		for d, c := range g.rows[i*nDocs : (i+1)*nDocs] {
			sq[d] += float64(int32(c) * int32(c))
			top = max(top, c)
			if x := float64(c) * g.inv[d]; x >= lim {
				tmax = max(tmax, float64(c)/g.norm[d])
				lim = max(lim, x*(1-6*0x1p-53))
			}
		}
		g.tmax[id] = tmax
	}
	g.rowMax = int32(top)
	// ‖d's dense weights‖ is √(Σc²)/norm[d] within 2^-53, and the root, inv
	// and the products round four times more; the slack also covers the
	// float sum of a query's dense contributions, a rounding per list.
	up := 1 + float64(len(g.dense)+4)*epsUlp
	for d, s := range sq {
		g.dnorm[d] = math.Sqrt(s) * g.inv[d] * up
		g.dnormMax = max(g.dnormMax, g.dnorm[d])
	}
	g.byName = make([]int32, nDocs)
	for d := range g.byName {
		g.byName[d] = int32(d)
	}
	slices.SortFunc(g.byName, func(a, b int32) int {
		return cmp.Or(strings.Compare(g.names[a], g.names[b]), cmp.Compare(a, b))
	})
	return g
}

// named returns the ids of the documents called name, ascending.
func (g *Segment) named(name string) []int32 {
	lo, _ := slices.BinarySearchFunc(g.byName, name, func(d int32, name string) int { return strings.Compare(g.names[d], name) })
	hi := lo
	for hi < len(g.byName) && g.names[g.byName[hi]] == name {
		hi++
	}
	return g.byName[lo:hi]
}

// SegmentBuilder is the only mutable index state: it accumulates documents
// with O(document) work per Add — the term scanner interning each term as
// it meets it, one pass counting the unigrams and bigrams, the distinct terms
// and counts appended to a doc-major log — and Seal transposes the log into
// the segment's term-major arenas with one counting sort. The log is 8 bytes
// a posting in fixed chunks, never copied to grow, and no document text is
// retained: nothing here is as large as the upload, so the serving layer can
// stream a body of any size in.
// Single-writer; Seal hands the segment to concurrent readers and ends it.
type SegmentBuilder struct {
	seg   *Segment   // names and dictionaries; nil once sealed
	log   [][]uint64 // per document, back to back: its distinct postings ids as id<<32 | count, in chunks of logChunk
	n     int        // entries in log
	ends  []int      // per document: where its run in the log ends
	norms []float64  // per document: the norm of its counts, the segment's norm once sealed
	cnt   []uint32   // per postings id: occurrences in the document being added, zero between Adds
	tids  []int32    // per token of the document being added: its unigram id
	ids   []int32    // the document being added's distinct postings ids, in first-use order
	low   []byte     // the term scanner's scratch
}

const logShift, logChunk = 16, 1 << 16 // 64 Ki entries, 512 KiB

// NewSegmentBuilder returns an empty builder.
func NewSegmentBuilder() *SegmentBuilder { return &SegmentBuilder{seg: newSegment()} }

// open returns the segment under construction. Panics after Seal: a writer
// must not be able to mutate an index that concurrent readers hold.
func (b *SegmentBuilder) open(op string) *Segment {
	if b.seg == nil {
		panic("similarity: " + op + " on a sealed SegmentBuilder")
	}
	return b.seg
}

// Add appends one document. Its unigrams are interned as the scanner meets
// them (the dictionary copies a new term's bytes into its arena: a key
// aliasing the text would keep a whole upload alive with the segment), then
// its bigrams: a bigram's id exceeds both its unigrams', which MergeSegments
// and DecodeSegment rely on. Panics after Seal.
func (b *SegmentBuilder) Add(name, text string) {
	g := b.open("Add")
	d, s := &g.dict, termScanner{text: text, low: b.low}
	for t, ok := s.next(); ok; t, ok = s.next() {
		id, _ := d.internTerm(t, d.next())
		b.tids = append(b.tids, id)
	}
	g.names, b.low = append(g.names, name), s.low
	if need := g.lists() + len(b.tids); need > len(b.cnt) { // room for every bigram to be new
		b.cnt = append(b.cnt, make([]uint32, need-len(b.cnt))...)
	}
	cnt, ids, tids := b.cnt, b.ids, b.tids
	for i, id := range tids {
		if cnt[id] == 0 {
			ids = append(ids, id)
		}
		cnt[id]++
		if i+1 < len(tids) {
			p := d.internPair(pairKey(id, tids[i+1]), d.next())
			if cnt[p] == 0 {
				ids = append(ids, p)
			}
			cnt[p]++
		}
	}
	// Counts are integers, so the norm is exact regardless of sum order. An
	// empty document logs nothing: no postings, unreachable by any query.
	var sum float64
	for _, id := range ids {
		if b.n>>logShift == len(b.log) { // the first chunk starts empty and grows by append: a small delta's builder stays small
			b.log = append(b.log, make([]uint64, 0, min(len(b.log), 1)<<logShift))
		}
		c := cnt[id]
		b.log[b.n>>logShift] = append(b.log[b.n>>logShift], uint64(id)<<32|uint64(c))
		b.n++
		sum += float64(c) * float64(c)
		cnt[id] = 0
	}
	b.ends = append(b.ends, b.n)
	b.norms = append(b.norms, math.Sqrt(sum))
	b.tids, b.ids = tids[:0], ids[:0]
}

// Len returns the number of documents added so far. Panics after Seal.
func (b *SegmentBuilder) Len() int { return len(b.open("Len").names) }

// Seal freezes the accumulated documents into an immutable segment and
// drops the builder's reference to it. The log is doc-major and lists are
// term-major, so this is one counting sort keyed by postings id; documents
// are placed in log order, which leaves every list ascending. The counts
// decide which lists are dense, and their counts go straight to their rows.
func (b *SegmentBuilder) Seal() *Segment {
	g := b.open("Seal")
	b.cnt, b.tids, b.ids = nil, nil, nil // the per-document scratch goes before the arenas come
	n := make([]uint32, g.lists()+2)
	var wide []bool
	for _, chunk := range b.log {
		for _, e := range chunk {
			n[e>>32+2]++
			if uint32(e) > maxRowCount {
				if wide == nil {
					wide = make([]bool, g.lists())
				}
				wide[e>>32] = true
			}
		}
	}
	g.norm = b.norms
	cur := g.layout(n, wide)
	lo := 0
	for doc, end := range b.ends {
		for j := lo; j < end; j++ {
			e := b.log[j>>logShift][j&(logChunk-1)]
			if j&(logChunk-1) == logChunk-1 {
				b.log[j>>logShift] = nil // read in order: the chunk is garbage for whichever collection runs next
			}
			g.place(cur, int(e>>32), int32(doc), uint32(e)) // a weight is tf(term, doc)/norm(doc)
		}
		lo = end
	}
	*b = SegmentBuilder{}
	return g.seal()
}

// BuildSegment is the batch form of the builder, for callers that hold the
// corpus: each text is added in order under its name. The last argument, once
// a tokenizing worker count, is ignored: interning was always sequential.
func BuildSegment(names, texts []string, _ int) *Segment {
	b := NewSegmentBuilder()
	names = append(slices.Clip(names), make([]string, max(0, len(texts)-len(names)))...) // documents past the names are ""
	for i, text := range texts {
		b.Add(names[i], text)
	}
	return b.Seal()
}
