package similarity

// Background merge: compact an adjacent run of segments into one, dropping
// tombstoned documents, WITHOUT the source texts. The merged segment is
// rebuilt purely from the inputs' dictionaries and postings — each document
// keeps its norm and its counts (a count over the norm is the weight it had,
// bit for bit), documents are renumbered to their live rank within the run,
// and dictionary entries are re-interned in (segment-ordinal, doc-id,
// within-doc) first-use order.
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
// what it keeps (and whether it keeps a count too large for a row), the
// second copies the surviving postings straight into the merged segment's
// arenas and rows.
//
//freehw:hotpath
func MergeSegments(segs []*Segment, deads [][]uint64) *Segment {
	out := newSegment()
	remaps := make([][]int32, len(segs))   // per source: doc id -> merged id, -1 dead
	srcToOut := make([][]int32, len(segs)) // per source: postings id -> merged id, -1 dropped
	counts := make([]uint32, 2)            // merged list id's postings at [id+2], see layout
	var wide []bool                        // merged list id keeps a count above maxRowCount

	next := int32(0) // merged doc id being assigned
	for si, src := range segs {
		var dead []uint64
		if si < len(deads) {
			dead = deads[si]
		}
		pairs := src.dict.pairsByID(src.lists())

		remap, first := make([]int32, src.Docs()), next
		for d := int32(0); d < int32(src.Docs()); d++ {
			if deadBit(dead, d) {
				remap[d] = -1
				continue
			}
			remap[d] = next
			next++
			out.names = append(out.names, src.names[d])
			out.norm = append(out.norm, src.norm[d])
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
		ord, r, whole := -1, 0, int(next-first) == src.Docs() // last unigram ordinal; next row; nothing dead
		for id := range toOut {
			toOut[id] = -1
			key1 := pairs[id] // the bigram's key+1, 0 for a unigram
			if key1 == 0 {
				ord++
			}
			live, big := uint32(0), false
			if whole && r < len(src.dense) && src.dense[r] == int32(id) {
				live, r = src.ddf[r], r+1 // and a row holds no count above maxRowCount
			} else {
				for d, c := range src.postings(int32(id)) {
					if remap[d] >= 0 {
						live++
						big = big || c > maxRowCount
					}
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
				counts, wide = append(counts, 0), append(wide, false)
			}
			counts[outID+2] += live
			wide[outID] = wide[outID] || big
		}
		srcToOut[si] = toOut
	}

	if next == 0 {
		return nil
	}

	// Each list fills ascending: per source segment its docs ascend (remap
	// is monotone over live docs), and later segments' remapped ids all
	// exceed earlier segments'. The merged counts decide which lists are
	// dense, whatever they were in the sources.
	cur := out.layout(counts, wide)
	for si, src := range segs {
		remap := remaps[si]
		for id, outID := range srcToOut[si] {
			if outID < 0 {
				continue
			}
			for d, c := range src.postings(int32(id)) {
				if nd := remap[d]; nd >= 0 {
					out.place(cur, int(outID), nd, c) // the norm is the source's: c/norm is the weight it had
				}
			}
		}
	}
	return out.seal()
}
