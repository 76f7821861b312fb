package similarity

import (
	"math"

	"freehw/internal/par"
)

// Segmented index layer (PR 9). A Segment is an immutable, sealed posting
// structure over a contiguous run of documents. A Snapshot (snapshot.go)
// is an ordered list of segments with tombstone bitmaps; publishing a
// delta means building ONE new segment from the added documents
// (O(delta), not O(corpus)) and appending it, and removing documents means
// setting tombstone bits — the existing segments are never touched.
// Background merges (merge.go) compact adjacent segments without the
// source texts.
//
// Scoring stays bit-identical to a single-segment full rebuild because
// the canonical accumulation order is a property of the query alone (the
// query's first-appearance term order — see resolveQuery): a document's
// dot product sums the same float64s in the same sequence no matter which
// dictionary its postings live under.

// Segment is one immutable slice of the corpus and the only type that owns
// postings and dictionaries. Unigram terms are interned as int32 postings
// ids; bigrams are keyed by the pair of their unigram ids, so neither
// indexing nor querying ever materializes a concatenated bigram string.
// Segments come sealed from SegmentBuilder.Seal, BuildSegment,
// MergeSegments or DecodeSegment and are never written again, so any
// number of readers may query one concurrently.
//
// The zero id means "not yet assigned": internal/snapstore assigns a
// store-unique id the first time the segment is persisted, and the id
// never changes afterwards.
type Segment struct {
	names    []string
	termIDs  map[string]int32 // unigram term -> postings id
	pairIDs  map[uint64]int32 // unigram id pair -> bigram postings id
	byteIDs  []int32          // single-byte term -> id (-1 absent)
	postings []postingList    // unigrams and bigrams share one id space
	id       uint64
}

func newSegment() *Segment {
	return &Segment{termIDs: map[string]int32{}, pairIDs: map[uint64]int32{}}
}

// ID returns the segment's storage identity (0 = never persisted).
func (g *Segment) ID() uint64 { return g.id }

// SetID assigns the storage identity, once. Re-setting the same id is a
// no-op; changing an assigned id panics — segment files are immutable and
// content-addressed by id, so a changed id would alias two contents.
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

// uniID interns a unigram term, assigning the next postings id on first
// sight. Interning is construction-time only (builder, merge).
func (g *Segment) uniID(t string) int32 {
	id, ok := g.termIDs[t]
	if !ok {
		id = int32(len(g.postings))
		g.termIDs[t] = id
		g.postings = append(g.postings, postingList{})
	}
	return id
}

// pairKey packs two unigram ids into the bigram dictionary key.
func pairKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// pairID interns a bigram by its unigram id pair.
func (g *Segment) pairID(a, b int32) int32 {
	k := pairKey(a, b)
	id, ok := g.pairIDs[k]
	if !ok {
		id = int32(len(g.postings))
		g.pairIDs[k] = id
		g.postings = append(g.postings, postingList{})
	}
	return id
}

// seal precomputes the dictionary ids of all 256 single-byte terms and
// returns the now-frozen segment. Verilog text is punctuation-dense — `;`,
// `(`, `=`, `,` are a large share of every query's tokens — and a direct
// table turns each of those lookups into one array read instead of a
// string-map probe.
func (g *Segment) seal() *Segment {
	g.byteIDs = make([]int32, 256)
	var buf [1]byte
	for i := range g.byteIDs {
		buf[0] = byte(i)
		if id, ok := g.termIDs[string(buf[:])]; ok {
			g.byteIDs[i] = id
		} else {
			g.byteIDs[i] = -1
		}
	}
	return g
}

// SegmentBuilder is the only mutable index state: it accumulates documents
// into a new segment with O(document) work per Add — tokenize, intern
// against the segment-local dictionary, append postings. Peak memory is
// the segment's own index — the builder never retains document text —
// which is what lets the serving layer stream an NDJSON upload of any size
// straight into a bounded segment. Single-writer; Seal hands the segment
// over to concurrent readers and ends the builder's life.
type SegmentBuilder struct {
	seg *Segment // nil once sealed
}

// NewSegmentBuilder returns an empty builder.
func NewSegmentBuilder() *SegmentBuilder { return &SegmentBuilder{seg: newSegment()} }

// Add appends one document. O(len(text)). Panics after Seal: a writer must
// not be able to mutate an index that concurrent readers hold.
func (b *SegmentBuilder) Add(name, text string) { b.addToks(name, Tokenize(text)) }

func (b *SegmentBuilder) addToks(name string, toks []string) {
	g := b.seg
	if g == nil {
		panic("similarity: Add on a sealed SegmentBuilder")
	}
	doc := int32(len(g.names))
	g.names = append(g.names, name)
	if len(toks) == 0 {
		return // empty document: no postings, unreachable by any query
	}
	tids := make([]int32, len(toks))
	for i, t := range toks {
		tids[i] = g.uniID(t)
	}
	counts := make(map[int32]float64, 2*len(toks))
	order := make([]int32, 0, 2*len(toks))
	bump := func(id int32) {
		if _, ok := counts[id]; !ok {
			order = append(order, id)
		}
		counts[id]++
	}
	for i, id := range tids {
		bump(id)
		if i+1 < len(tids) {
			bump(g.pairID(id, tids[i+1]))
		}
	}
	// Counts are integers, so the norm is exact regardless of sum order.
	var sum float64
	for _, v := range counts {
		sum += v * v //freehw:nolint mapord -- integer counts, exact in any order (see comment above)
	}
	norm := math.Sqrt(sum)
	for _, id := range order {
		g.postings[id].add(doc, counts[id]/norm)
	}
}

// Len returns the number of documents added so far.
func (b *SegmentBuilder) Len() int { return len(b.seg.names) }

// Seal freezes the accumulated documents into an immutable segment and
// drops the builder's reference to it.
func (b *SegmentBuilder) Seal() *Segment {
	g := b.seg
	b.seg = nil
	return g.seal()
}

// BuildSegment is the batch form of the builder, used by full
// (replace-mode) publishes: per-document tokenization fans out over at
// most workers goroutines (<= 0 means GOMAXPROCS); dictionary interning
// and index insertion stay sequential in document order, so the segment is
// identical regardless of worker count. names and texts run in parallel.
func BuildSegment(names, texts []string, workers int) *Segment {
	b := NewSegmentBuilder()
	tokLists := par.Map(workers, len(texts), func(i int) []string {
		return Tokenize(texts[i])
	})
	for i, toks := range tokLists {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		b.addToks(name, toks)
		tokLists[i] = nil // release each document's tokens as it lands
	}
	return b.Seal()
}
