package similarity

import "slices"

// Index is the single-writer, mutable view of a segmented corpus: the
// publish path's working state. It owns the ordered segment list, the
// mutable tombstone bitmaps, and a name -> live-document map for O(1)
// removals. Mutations are copy-on-write at bitmap granularity — Snapshot
// never copies postings, and a bitmap is cloned only when a removal
// actually touches its segment — so publishing a delta costs O(delta +
// segments), never O(corpus).
//
// Concurrency contract: all Index methods require external serialization
// (the serving layer's publish lock). Snapshots returned by Snapshot()
// are immutable and safe to read concurrently with later mutations.
type Index struct {
	segs  []*Segment
	deads [][]uint64 // nil entries = no tombstones in that segment
	lives []int
	// byName maps a document name to its LIVE occurrences (duplicates
	// allowed, in publish order). Entries are removed on tombstoning, so
	// the map never grows stale.
	byName map[string][]docLoc
	pos    map[*Segment]int // segment -> current ordinal
}

// docLoc addresses one document: by segment pointer, not ordinal, so
// merges (which shift ordinals) do not invalidate entries wholesale.
type docLoc struct {
	seg *Segment
	doc int32
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{byName: map[string][]docLoc{}, pos: map[*Segment]int{}}
}

// IndexFromSnapshot rebuilds a writer index over a published snapshot's
// segments — the O(corpus) boot/rollback path (replay, rollback, and
// recovery after a failed persist). The snapshot's bitmaps are shared,
// never mutated: the first removal touching a segment clones its bitmap.
func IndexFromSnapshot(s *Snapshot) *Index {
	ix := NewIndex()
	for si := range s.segs {
		ss := &s.segs[si]
		ix.segs = append(ix.segs, ss.seg)
		ix.deads = append(ix.deads, ss.dead)
		ix.lives = append(ix.lives, ss.live)
		ix.pos[ss.seg] = si
		for d := int32(0); d < int32(ss.seg.Docs()); d++ {
			if deadBit(ss.dead, d) {
				continue
			}
			name := ss.seg.names[d]
			ix.byName[name] = append(ix.byName[name], docLoc{ss.seg, d})
		}
	}
	return ix
}

// Append adds a sealed segment to the end of the index.
func (ix *Index) Append(seg *Segment) {
	ix.pos[seg] = len(ix.segs)
	ix.segs = append(ix.segs, seg)
	ix.deads = append(ix.deads, nil)
	ix.lives = append(ix.lives, seg.Docs())
	for d := int32(0); d < int32(seg.Docs()); d++ {
		name := seg.names[d]
		ix.byName[name] = append(ix.byName[name], docLoc{seg, d})
	}
}

// Remove tombstones every live document whose name appears in names,
// returning how many documents were removed. Bitmaps are cloned before
// the first mutation per segment, so snapshots taken earlier are
// unaffected.
func (ix *Index) Remove(names []string) int {
	removed := 0
	cloned := map[int]bool{}
	for _, name := range names {
		locs := ix.byName[name]
		if len(locs) == 0 {
			continue
		}
		for _, loc := range locs {
			si := ix.pos[loc.seg]
			if !cloned[si] {
				words := (loc.seg.Docs() + 63) >> 6
				nd := make([]uint64, words)
				copy(nd, ix.deads[si])
				ix.deads[si] = nd
				cloned[si] = true
			}
			w, b := loc.doc>>6, uint32(loc.doc)&63
			if ix.deads[si][w]&(1<<b) == 0 {
				ix.deads[si][w] |= 1 << b
				ix.lives[si]--
				removed++
			}
		}
		delete(ix.byName, name)
	}
	return removed
}

// Live returns the total number of live documents.
func (ix *Index) Live() int {
	total := 0
	for _, l := range ix.lives {
		total += l
	}
	return total
}

// Segments returns the number of segments.
func (ix *Index) Segments() int { return len(ix.segs) }

// SegInfo returns segment i's total and live document counts.
func (ix *Index) SegInfo(i int) (docs, live int) {
	return ix.segs[i].Docs(), ix.lives[i]
}

// Run returns clones of the segment pointers and tombstone bitmaps for
// ordinals [i, j] — the immutable inputs MergeSegments consumes outside
// the publish lock. The bitmap slices are the index's current ones; the
// copy-on-write discipline in Remove keeps them stable.
func (ix *Index) Run(i, j int) ([]*Segment, [][]uint64) {
	return slices.Clone(ix.segs[i : j+1]), slices.Clone(ix.deads[i : j+1])
}

// RunStable reports whether ordinals [i, j] still hold exactly the given
// segments with the given bitmaps — the staleness check a merge performs
// after rebuilding outside the lock. Pointer equality suffices: segments
// are immutable and bitmaps are copy-on-write, so any concurrent change
// swaps the pointers.
func (ix *Index) RunStable(i, j int, segs []*Segment, deads [][]uint64) bool {
	if i < 0 || j >= len(ix.segs) || j-i+1 != len(segs) {
		return false
	}
	for k := range segs {
		if ix.segs[i+k] != segs[k] || !sameBitmap(ix.deads[i+k], deads[k]) {
			return false
		}
	}
	return true
}

// sameBitmap reports pointer-level identity of two bitmaps (both nil, or
// same backing array and length).
func sameBitmap(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// ReplaceRun splices the merged segment in place of ordinals [i, j]
// (inclusive). merged must hold exactly the run's live documents in
// (ordinal, doc-id) order — MergeSegments guarantees that — or, when the
// run is entirely tombstoned, merged may be nil to drop it outright.
func (ix *Index) ReplaceRun(i, j int, merged *Segment) {
	if merged == nil {
		for si := i; si <= j; si++ {
			if ix.lives[si] != 0 {
				panic("similarity: dropping a run with live documents")
			}
		}
	} else {
		// Repoint the live documents' byName entries at the merged
		// segment. Live docs of the run, in (ordinal, doc-id) order, map
		// to merged-local ids 0..merged.Docs()-1 — the same renumbering
		// MergeSegments applied.
		local := int32(0)
		for si := i; si <= j; si++ {
			seg, dead := ix.segs[si], ix.deads[si]
			for d := int32(0); d < int32(seg.Docs()); d++ {
				if deadBit(dead, d) {
					continue
				}
				locs := ix.byName[seg.names[d]]
				for li := range locs {
					if locs[li].seg == seg && locs[li].doc == d {
						locs[li] = docLoc{merged, local}
						break
					}
				}
				local++
			}
		}
		if int(local) != merged.Docs() {
			panic("similarity: merged segment live-doc count mismatch")
		}
	}
	var segs []*Segment
	var deads [][]uint64
	var lives []int
	segs = append(segs, ix.segs[:i]...)
	deads = append(deads, ix.deads[:i]...)
	lives = append(lives, ix.lives[:i]...)
	if merged != nil {
		segs = append(segs, merged)
		deads = append(deads, nil)
		lives = append(lives, merged.Docs())
	}
	segs = append(segs, ix.segs[j+1:]...)
	deads = append(deads, ix.deads[j+1:]...)
	lives = append(lives, ix.lives[j+1:]...)
	ix.segs, ix.deads, ix.lives = segs, deads, lives
	ix.pos = make(map[*Segment]int, len(segs))
	for si, g := range segs {
		ix.pos[g] = si
	}
}

// Snapshot composes the current state into an immutable read view.
// O(segments): segment postings are shared, bitmaps are shared under the
// copy-on-write discipline.
func (ix *Index) Snapshot() *Snapshot {
	return newSnapshot(slices.Clone(ix.segs), slices.Clone(ix.deads))
}
