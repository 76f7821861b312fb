package similarity

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
)

// Segment serialization: the sealed index structure — names, the unigram
// and bigram dictionaries, and the postings lists with their precomputed
// unit-normalized weights — flattened into four independent byte sections.
// Serializing the index rather than the source texts is what makes restart
// instant (no re-tokenization, no dictionary rebuild) and byte-identical
// (float64 weights round-trip as raw bits, so a recovered segment scores
// every query exactly like the one that was saved).
//
// The sections are deliberately free of file framing: internal/snapstore
// owns the on-disk format (magic, format version, per-section lengths and
// checksums, crash-safe rename), and this file owns only the structural
// encoding. Encoding is deterministic — dictionaries are written in
// postings-id order, not hash-table order — so equal segments produce equal
// bytes and tests can compare encodings directly.
//
// The same four sections served as the whole-snapshot encoding before the
// index went segmented; a pre-segmentation snapshot file is therefore
// exactly one segment's sections, which is how internal/snapstore loads
// old files byte-identically.

// SnapshotSections is the number of sections Segment.EncodeSections
// produces and DecodeSegment consumes: names, unigram dictionary, bigram
// dictionary, postings.
const SnapshotSections = 4

// ErrCorruptSnapshot reports a structurally invalid section payload —
// truncated data, out-of-range ids, or trailing garbage.
var ErrCorruptSnapshot = errors.New("similarity: corrupt snapshot encoding")

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// reader is a bounds-checked little-endian cursor; every read reports
// truncation instead of panicking, so corrupted files fail cleanly.
type reader struct {
	b   []byte
	off int
	err bool
}

func (r *reader) u32() uint32 {
	if b := r.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) bytes(n int) []byte {
	if n < 0 || r.off+n > len(r.b) {
		r.err = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) done() bool { return !r.err && r.off == len(r.b) }

// WriteSections streams the segment's four structural sections, in order,
// through emit: each call carries a section's index and its next bytes (about
// encodeChunk, valid only until emit returns), so a writer never holds the
// encoding. Safe beside queries — the segment is sealed; emit's first error stops it.
func (g *Segment) WriteSections(emit func(sec int, chunk []byte) error) error {
	const encodeChunk = 64 << 10
	d, b := &g.dict, make([]byte, 0, 2*encodeChunk)
	pairs := d.pairsByID(g.lists())
	walks := [SnapshotSections]int{len(g.names), len(d.tid), g.lists(), g.lists()} // the bigrams pick their ids out of all
	for sec, count := range [SnapshotSections]int{len(g.names), len(d.tid), d.pairs, g.lists()} {
		b = appendU32(b[:0], uint32(count))
		for i, walk := 0, walks[sec]; i <= walk; i++ {
			switch {
			case i == walk:
			case sec == 0:
				b = append(appendU32(b, uint32(len(g.names[i]))), g.names[i]...)
			case sec == 1: // unigrams sit in the arena in id order
				t := d.termBytes(i)
				b = append(appendU32(appendU32(b, uint32(d.tid[i])), uint32(len(t))), t...)
			case sec == 2 && pairs[i] != 0:
				b = appendU32(appendU64(b, pairs[i]-1), uint32(i))
			case sec == 3:
				b = g.appendList(b, i)
			}
			if len(b) >= encodeChunk || i == walk { // a full chunk, or the section's last
				if err := emit(sec, b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
	}
	return nil
}

// appendList appends list id as one run — its count, its documents, its
// weights — each a plain loop over its arena range or its row's non-zero
// slots (no weight is +0).
func (g *Segment) appendList(b []byte, id int) []byte {
	lo, hi, at, le := g.off[id], g.off[id+1], len(b), binary.LittleEndian
	c := pruneCursor{docs: g.docs[lo:hi], ws: g.ws[lo:hi], row: -1, df: hi - lo}
	if lo == hi {
		c = g.list(int32(id))
	}
	n := int(c.df)
	b = slices.Grow(b, 4+12*n)[:at+4+12*n]
	le.PutUint32(b[at:], c.df)
	outD, outW := b[at+4:at+4+4*n], b[at+4+4*n:]
	if c.row < 0 {
		for j, d := range c.docs {
			le.PutUint32(outD[4*j:], uint32(d))
		}
		for j, w := range c.ws {
			le.PutUint64(outW[8*j:], math.Float64bits(w))
		}
		return b
	}
	for d, w := range c.ws {
		if w != 0 {
			le.PutUint32(outD, uint32(d))
			le.PutUint64(outW, math.Float64bits(w))
			outD, outW = outD[4:], outW[8:]
		}
	}
	return b
}

// EncodeSections collects WriteSections' output; it aliases nothing in the segment.
func (g *Segment) EncodeSections() [][]byte {
	postings := len(g.docs)
	for _, df := range g.ddf {
		postings += int(df)
	}
	out := [][]byte{nil, nil, make([]byte, 0, 4+12*g.dict.pairs), make([]byte, 0, 4+4*g.lists()+12*postings)}
	g.WriteSections(func(sec int, chunk []byte) error {
		out[sec] = append(out[sec], chunk...)
		return nil
	})
	return out
}

// EncodeSections on a single-segment, tombstone-free snapshot returns the
// segment's sections — the legacy whole-snapshot encoding. Multi-segment
// or tombstoned snapshots have no single-blob encoding (internal/snapstore
// persists them as a descriptor over per-segment files), so this panics
// for them; it exists for tests and tools that round-trip one segment.
func (s *Snapshot) EncodeSections() [][]byte {
	if len(s.segs) != 1 || s.segs[0].dead != nil {
		panic("similarity: EncodeSections requires a single tombstone-free segment")
	}
	return s.segs[0].seg.EncodeSections()
}

// DecodeSnapshot reconstructs a single-segment snapshot from
// EncodeSections output — the shape every pre-segmentation snapshot file
// decodes to.
func DecodeSnapshot(sections [][]byte) (*Snapshot, error) {
	seg, err := DecodeSegment(sections)
	if err != nil {
		return nil, err
	}
	return newSnapshot([]*Segment{seg}, nil), nil
}

// DecodeSegment reconstructs a sealed segment from EncodeSections
// output. Every structural invariant the builder guarantees is
// re-validated — section count, lengths, id ranges, weights in (0, 1],
// ascending doc and dictionary order, each postings id named by exactly
// one dictionary entry, bigram keys made of earlier unigram ids — so a
// section that passed its checksum but was encoded by a buggy or hostile
// writer still fails with ErrCorruptSnapshot instead of producing an index
// that panics at query or merge time, and an accepted encoding is the only
// one of its segment (re-encoding reproduces it byte for byte). Counts are
// checked against the bytes their entries need at minimum before anything
// is allocated, which bounds memory to a small multiple of the input.
func DecodeSegment(sections [][]byte) (*Segment, error) {
	if len(sections) != SnapshotSections {
		return nil, ErrCorruptSnapshot
	}
	g := &Segment{}

	// Names: substrings of one copy of their section.
	r := &reader{b: sections[0]}
	nNames := int(r.u32())
	if r.err || nNames < 0 || nNames > len(sections[0])/4 {
		return nil, ErrCorruptSnapshot
	}
	all := string(sections[0])
	g.names = make([]string, 0, nNames)
	for i := 0; i < nNames; i++ {
		n := int(r.u32())
		if r.bytes(n); !r.err {
			g.names = append(g.names, all[r.off-n:r.off])
		}
	}
	if !r.done() {
		return nil, ErrCorruptSnapshot
	}

	// Postings first: the dictionaries validate their ids against its size.
	// A list spends 4 bytes on its count and 12 on each posting. A pre-pass
	// reads the counts for layout; the lists are validated as they land.
	r = &reader{b: sections[3]}
	nPost := int(r.u32())
	if r.err || nPost < 0 || nPost > (len(sections[3])-4)/4 {
		return nil, ErrCorruptSnapshot
	}
	if uint64(len(sections[3])-4-4*nPost)/12 > math.MaxUint32 { // more postings than off can address
		return nil, ErrCorruptSnapshot
	}
	counts := make([]uint32, nPost+2) // layout's form: list id's at [id+2]
	for id := range nPost {
		n := r.u32()
		if uint64(n) > uint64(len(r.b)-r.off)/12 {
			return nil, ErrCorruptSnapshot
		}
		r.bytes(12 * int(n))
		counts[id+2] = n
	}
	if !r.done() {
		return nil, ErrCorruptSnapshot
	}
	// Each list is validated as it is copied, a run at a time, into its arena
	// range or its row: documents ascend, as the rows, binary searches and tie
	// rule need, and a weight, count/norm, is in (0, 1] and not NaN, as the
	// pruning bounds, the rows' +0 slots and the accumulators assume.
	cur, le := g.layout(counts), binary.LittleEndian
	r = &reader{b: sections[3], off: 4} // the pre-pass vouched for every length
	for id, nNames := 0, int32(len(g.names)); id < nPost; id++ {
		n := int(r.u32())
		docs, ws := r.bytes(4*n), r.bytes(8*n)
		var row, outW []float64
		var outD []int32
		if c := cur[id+1]; ^c < uint32(len(g.dense)) {
			row = g.dws[int(^c)*int(nNames):][:nNames]
		} else {
			outD, outW, cur[id+1] = g.docs[c:c+uint32(n)], g.ws[c:c+uint32(n)], c+uint32(n)
		}
		for j, prev := 0, int32(-1); j < n; j++ {
			d, w := int32(le.Uint32(docs[4*j:])), math.Float64frombits(le.Uint64(ws[8*j:]))
			if d <= prev || d >= nNames || !(w > 0 && w <= 1) {
				return nil, ErrCorruptSnapshot
			}
			if row != nil {
				row[d] = w
			} else {
				outD[j], outW[j] = d, w
			}
			prev = d
		}
	}

	// Both dictionaries' counts come first: they size every table once. Ids
	// ascend within each dictionary and never overlap, so together they name
	// every postings list exactly when the counts add up. arena is what the
	// unigrams' bytes come to: not negative, and no more than toff addresses.
	r, rp := &reader{b: sections[1]}, &reader{b: sections[2]}
	nTerms, nPairs := int(r.u32()), int(rp.u32())
	arena := len(sections[1]) - 4 - 8*nTerms
	if r.err || rp.err || nTerms < 0 || nPairs < 0 || uint64(arena) > math.MaxUint32 || nPairs > (len(sections[2])-4)/12 || nTerms+nPairs != nPost {
		return nil, ErrCorruptSnapshot
	}
	g.dict = newDict(nTerms, arena, nPairs)

	// Unigram dictionary, in ascending id order. isUni marks the ids it
	// assigned: the bigram dictionary may neither reuse them nor build a
	// key from anything else.
	isUni := make([]bool, nPost)
	for i, prev := 0, int32(-1); i < nTerms; i++ {
		id := int32(r.u32())
		term := r.bytes(int(r.u32()))
		if r.err || id <= prev || int(id) >= nPost {
			return nil, ErrCorruptSnapshot
		}
		if g.dict.internTerm(bstr(term), id) != id { // a duplicate: already there, under an earlier id
			return nil, ErrCorruptSnapshot
		}
		isUni[id] = true
		prev = id
	}
	if !r.done() {
		return nil, ErrCorruptSnapshot
	}

	// Bigram dictionary, in ascending id order. A bigram is interned after
	// both its unigrams (MergeSegments relies on it), so a key's halves are
	// unigram ids below the bigram's own.
	for i, prev := 0, int32(-1); i < nPairs; i++ {
		key := rp.u64()
		id := int32(rp.u32())
		if rp.err || id <= prev || int(id) >= nPost || isUni[id] {
			return nil, ErrCorruptSnapshot
		}
		if a, b := key>>32, key&0xffffffff; a >= uint64(id) || b >= uint64(id) || !isUni[a] || !isUni[b] {
			return nil, ErrCorruptSnapshot
		}
		if g.dict.internPair(key, id) != id { // a duplicate
			return nil, ErrCorruptSnapshot
		}
		prev = id
	}
	if !rp.done() {
		return nil, ErrCorruptSnapshot
	}

	// Which lists are rows, tmax and dnorm are derived state, deliberately not
	// serialized (the format — and every old snapshot file — stays valid):
	// layout chose the rows from the counts, seal derives the rest.
	return g.seal(), nil
}
