package similarity

// Background merge: compact an adjacent run of segments into one, dropping
// tombstoned documents, WITHOUT the source texts. The merged segment is
// rebuilt purely from the inputs' dictionaries and postings — per-document
// weights are copied verbatim (raw float64s, never recomputed), documents
// are renumbered to their live rank within the run, and dictionary entries
// are re-interned in (segment-ordinal, doc-id, within-doc) first-use order.
// Because scoring is corpus-dictionary-independent (see segment.go), the
// merged segment produces bit-identical verdicts to the inputs.

// MergeSegments compacts segs[0..n-1] (an adjacent run, in snapshot order)
// with their tombstone bitmaps into a single fresh segment holding only
// the live documents, renumbered 0..live-1 in (ordinal, doc-id) order.
// Returns nil when no document is live. Runs entirely on immutable inputs,
// so it is safe outside any lock; the caller revalidates the run before
// splicing the result in (see Snapshot.ReplaceRun).
//
// Two passes over the sources, count then fill: the first renumbers the
// live documents, re-interns every list that keeps a posting and counts
// what it keeps, the second copies the surviving postings straight into
// the merged segment's arenas and rows.
//
//freehw:hotpath
func MergeSegments(segs []*Segment, deads [][]uint64) *Segment {
	out := newSegment()
	remaps := make([][]int32, len(segs))   // per source: doc id -> merged id, -1 dead
	srcToOut := make([][]int32, len(segs)) // per source: postings id -> merged id, -1 dropped
	counts := make([]uint32, 2)            // merged list id's postings at [id+2], see layout

	next := int32(0) // merged doc id being assigned
	for si, src := range segs {
		var dead []uint64
		if si < len(deads) {
			dead = deads[si]
		}
		pairs := src.dict.pairsByID(src.lists())

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
		remaps[si] = remap

		// Re-intern postings ids in ascending source-id order. Within a
		// document, every bigram was interned after its component unigrams
		// (Add: unigrams first), so when we reach a bigram id, both
		// component terms of any LIVE occurrence already exist in out —
		// toOut resolves them. Lists whose docs are all tombstoned are
		// dropped entirely; a bigram over such a list cannot have a live
		// occurrence either, so the skip is safe. Unigram ids ascend with
		// ordinal, so one cursor finds each unigram's bytes in the arena.
		toOut := make([]int32, src.lists())
		ord := -1 // of the last unigram id reached
		for id := range toOut {
			toOut[id] = -1
			key1 := pairs[id] // the bigram's key+1, 0 for a unigram
			if key1 == 0 {
				ord++
			}
			live := uint32(0)
			for d := range src.list(int32(id)).postings {
				if remap[d] >= 0 {
					live++
				}
			}
			if live == 0 {
				continue
			}
			var outID int32
			if key1 == 0 {
				outID = out.dict.internTerm(bstr(src.dict.termBytes(ord)), out.dict.next())
			} else {
				oa, ob := toOut[(key1-1)>>32], toOut[uint32(key1-1)]
				if oa < 0 || ob < 0 {
					continue // unreachable for a live doc; defensive
				}
				outID = out.dict.internPair(pairKey(oa, ob), out.dict.next())
			}
			toOut[id] = outID
			if int(outID)+2 == len(counts) {
				counts = append(counts, 0)
			}
			counts[outID+2] += live
		}
		srcToOut[si] = toOut
	}

	if next == 0 {
		return nil
	}

	// Each list fills ascending: per source segment its docs ascend (remap
	// is monotone over live docs), and later segments' remapped ids all
	// exceed earlier segments'. Weights are copied as they are. The merged
	// counts decide which lists are dense, whatever they were in the sources.
	cur := out.layout(counts)
	for si, src := range segs {
		remap := remaps[si]
		for id, outID := range srcToOut[si] {
			if outID < 0 {
				continue
			}
			for d, w := range src.list(int32(id)).postings {
				if nd := remap[d]; nd >= 0 {
					out.place(cur, int(outID), nd, w)
				}
			}
		}
	}
	return out.seal()
}
