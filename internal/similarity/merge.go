package similarity

// Background merge: compact an adjacent run of segments into one, dropping
// tombstoned documents, WITHOUT the source texts. The merged segment is
// rebuilt purely from the inputs' dictionaries and postings — per-document
// weights are copied verbatim (raw float64s, never recomputed), documents
// are renumbered to their live rank within the run, and dictionary entries
// are re-interned in (segment-ordinal, doc-id, within-doc) first-use order.
// Because scoring is corpus-dictionary-independent (see segment.go), the
// merged segment produces bit-identical verdicts to the inputs.

// mergeBuf accumulates one merged posting list; docs arrive ascending by
// construction (see MergeSegments), so no sort is needed.
type mergeBuf struct {
	docs []int32
	ws   []float64
}

// MergeSegments compacts segs[0..n-1] (an adjacent run, in snapshot order)
// with their tombstone bitmaps into a single fresh segment holding only
// the live documents, renumbered 0..live-1 in (ordinal, doc-id) order.
// Returns nil when no document is live. Runs entirely on immutable inputs,
// so it is safe outside any lock; the caller revalidates the run before
// splicing the result in (see Index.RunStable / ReplaceRun).
//
//freehw:hotpath
func MergeSegments(segs []*Segment, deads [][]uint64) *Segment {
	out := newSegment()
	var bufs []mergeBuf

	next := int32(0) // merged doc id being assigned
	for si, src := range segs {
		var dead []uint64
		if si < len(deads) {
			dead = deads[si]
		}

		// Recover the segment's dictionaries as id-indexed arrays. Index
		// assignment into preallocated slices keeps map iteration order
		// irrelevant (freehw-vet: mapord).
		terms := make([]string, len(src.postings))
		pairs := make([]uint64, len(src.postings))
		isPair := make([]bool, len(src.postings))
		for t, id := range src.termIDs {
			terms[id] = t
		}
		for k, id := range src.pairIDs {
			pairs[id] = k
			isPair[id] = true
		}

		// Map each live source doc to its merged id.
		remap := make([]int32, src.Docs())
		for d := int32(0); d < int32(src.Docs()); d++ {
			if deadBit(dead, d) {
				remap[d] = -1
				continue
			}
			remap[d] = next
			next++
			out.names = append(out.names, src.names[d])
		}

		// Re-intern postings ids in ascending source-id order. Within a
		// document, every bigram was interned after its component unigrams
		// (addToks adds unigrams first), so when we reach a bigram id, both
		// component terms of any LIVE occurrence already exist in out —
		// srcToOut resolves them. Lists whose docs are all tombstoned are
		// dropped entirely; a bigram over such a list cannot have a live
		// occurrence either, so the skip is safe.
		srcToOut := make([]int32, len(src.postings))
		for id := range src.postings {
			srcToOut[id] = -1
		}
		for id := 0; id < len(src.postings); id++ {
			pl := &src.postings[id]
			var buf *mergeBuf
			var outID int32 = -1
			for j, d := range pl.docs {
				nd := remap[d]
				if nd < 0 {
					continue
				}
				if outID < 0 {
					outID = mergeIntern(out, id, terms, pairs, isPair, srcToOut)
					if outID < 0 {
						break // unreachable for a live doc; defensive
					}
					srcToOut[id] = outID
					for int(outID) >= len(bufs) {
						bufs = append(bufs, mergeBuf{})
					}
					buf = &bufs[outID]
				}
				buf.docs = append(buf.docs, nd)
				buf.ws = append(buf.ws, pl.ws[j])
			}
		}
	}

	if next == 0 {
		return nil
	}

	// Assemble posting lists. Each buffer's docs are already ascending:
	// per source segment they ascend (remap is monotone over live docs),
	// and later segments' remapped ids all exceed earlier segments'.
	out.postings = make([]postingList, len(bufs))
	for i := range bufs {
		pl := &out.postings[i]
		pl.docs = bufs[i].docs
		pl.ws = bufs[i].ws
		pl.rebuildBlockMeta()
	}
	return out.seal()
}

// mergeIntern assigns (or finds) the merged segment's postings id for
// source id, given the source's id-indexed dictionaries. For a bigram, both
// component unigrams must already be interned in out — guaranteed by the
// ascending-id merge order whenever the bigram has a live occurrence.
// Returns -1 if a component is missing (only possible for fully-dead
// lists, which the caller never interns).
func mergeIntern(out *Segment, id int, terms []string, pairs []uint64, isPair []bool, srcToOut []int32) int32 {
	if !isPair[id] {
		return out.uniID(terms[id])
	}
	oa, ob := srcToOut[int32(pairs[id]>>32)], srcToOut[int32(uint32(pairs[id]))]
	if oa < 0 || ob < 0 {
		return -1
	}
	return out.pairID(oa, ob)
}
