package similarity

import (
	"cmp"
	"math/bits"
	"slices"

	"freehw/internal/par"
)

// Snapshot is an immutable, ordered set of segments with tombstones, safe
// for any number of concurrent readers. It is the unit the serving layer
// swaps RCU-style, and the publisher's only corpus state: a publish derives
// the next snapshot from the served one (Append, Remove, ReplaceRun — each
// O(delta + segments), sharing every segment and every bitmap it does not
// change), publishes it through an atomic pointer, and in-flight queries
// keep answering against whichever snapshot they loaded. A derivation that
// is never published is simply dropped: there is no writer state to undo.
//
// Documents are globally indexed by LIVE rank: index i is the i-th live
// document in (segment-ordinal, doc-id) order. That is exactly the index
// a single-segment full rebuild of the live documents would assign, so
// Match.Index — and therefore tie-breaking, which prefers the lower
// index — is identical across any segmentation or merge state.
type Snapshot struct {
	segs  []snapSeg
	total int // total live documents
}

// snapSeg is one segment's read-side state inside a snapshot.
type snapSeg struct {
	seg    *Segment
	dead   []uint64 // immutable tombstone bitmap (nil = none); bit d of word d/64
	live   int      // live docs in this segment
	offset int      // global live rank of this segment's first live doc
	rank   []int32  // per 64-doc word: live docs before that word; nil when dead == nil
}

// newSnapshot composes segments and tombstone bitmaps into a snapshot.
func newSnapshot(segs []*Segment, deads [][]uint64) *Snapshot {
	ss := make([]snapSeg, len(segs))
	for i, g := range segs {
		var dead []uint64
		if i < len(deads) {
			dead = deads[i]
		}
		ss[i] = newSnapSeg(g, dead)
	}
	return compose(ss)
}

// newSnapSeg precomputes segment g's live count and live-rank table under
// the tombstone bitmap dead, which is immutable from here on.
func newSnapSeg(g *Segment, dead []uint64) snapSeg {
	ss := snapSeg{seg: g, dead: dead, live: g.Docs()}
	if dead == nil {
		return ss
	}
	n := ss.live
	ss.live, ss.rank = 0, make([]int32, (n+63)>>6)
	for w := range ss.rank {
		ss.rank[w] = int32(ss.live)
		m := ^dead[w]
		if hi := n - w<<6; hi < 64 {
			m &= 1<<uint(hi) - 1 // bits past the last doc are not live
		}
		ss.live += bits.OnesCount64(m)
	}
	return ss
}

// compose makes a snapshot of segs, which it owns from here on, setting
// each segment's live offset.
func compose(segs []snapSeg) *Snapshot {
	s := &Snapshot{segs: segs}
	for i := range segs {
		segs[i].offset = s.total
		s.total += segs[i].live
	}
	return s
}

// Append returns s with seg added as its last segment.
func (s *Snapshot) Append(seg *Segment) *Snapshot {
	return compose(append(slices.Clone(s.segs), newSnapSeg(seg, nil)))
}

// Remove returns s with every live document whose name is in names
// tombstoned, and how many that is. A segment's bitmap is copied before its
// first new tombstone, so s itself never changes; with nothing to remove,
// s is returned.
func (s *Snapshot) Remove(names []string) (*Snapshot, int) {
	var segs []snapSeg // a copy of s.segs, once a removal touches one
	removed := 0
	for si := range s.segs {
		ss := &s.segs[si]
		dead, cloned := ss.dead, false
		for _, name := range names {
			for _, d := range ss.seg.named(name) {
				if deadBit(dead, d) {
					continue
				}
				if !cloned {
					nd := make([]uint64, (ss.seg.Docs()+63)>>6)
					copy(nd, dead)
					dead, cloned = nd, true
				}
				dead[d>>6] |= 1 << (uint32(d) & 63)
				removed++
			}
		}
		if cloned {
			if segs == nil {
				segs = slices.Clone(s.segs)
			}
			segs[si] = newSnapSeg(ss.seg, dead)
		}
	}
	if segs == nil {
		return s, 0
	}
	return compose(segs), removed
}

// ReplaceRun returns s with segments [i, j] replaced by merged — the
// MergeSegments output of plan's segments [i, j], nil to drop a run with
// no live document — or nil when s no longer holds that run: the same
// segments under the same bitmaps. Pointer equality suffices, since
// segments are immutable and a derivation copies every bitmap it changes.
func (s *Snapshot) ReplaceRun(plan *Snapshot, i, j int, merged *Segment) *Snapshot {
	if j >= len(s.segs) {
		return nil
	}
	live := 0
	for k := i; k <= j; k++ {
		a, b := &s.segs[k], &plan.segs[k]
		if a.seg != b.seg || len(a.dead) != len(b.dead) || len(a.dead) > 0 && &a.dead[0] != &b.dead[0] {
			return nil
		}
		live += a.live
	}
	var run []snapSeg
	if merged != nil {
		run = []snapSeg{newSnapSeg(merged, nil)}
		live -= merged.Docs()
	}
	if live != 0 {
		panic("similarity: merged segment live-doc count mismatch")
	}
	return compose(slices.Concat(s.segs[:i], run, s.segs[j+1:]))
}

// liveRank maps a segment-local doc id to its live rank within the
// segment (the number of live docs before it). d must itself be live.
//
//freehw:hotpath
func (ss *snapSeg) liveRank(d int32) int {
	if ss.dead == nil {
		return int(d)
	}
	w := d >> 6
	return int(ss.rank[w]) + bits.OnesCount64(^ss.dead[w]&(1<<(uint32(d)&63)-1))
}

// selectLive maps a live rank back to the segment-local doc id — the
// inverse of liveRank. r must be in [0, live).
func (ss *snapSeg) selectLive(r int) int32 {
	if ss.dead == nil {
		return int32(r)
	}
	// Find the word containing the r-th live doc (rank is nondecreasing),
	// then select the bit within it.
	w := 0
	for w+1 < len(ss.rank) && int(ss.rank[w+1]) <= r {
		w++
	}
	need := r - int(ss.rank[w])
	m := ^ss.dead[w]
	for b := 0; b < 64; b++ {
		if m&(1<<uint(b)) != 0 {
			if need == 0 {
				return int32(w<<6 + b)
			}
			need--
		}
	}
	panic("similarity: live rank out of range")
}

// Corpus is the offline API's old name for a snapshot. Reproduction code
// (RunBenchmark, core.Experiment) audits against a one-segment Snapshot
// through the same Best/TopK the server runs; the alias and NewCorpus stay
// only because bench/'s frozen offline oracle compiles against them.
type Corpus = Snapshot

// NewCorpus is SealCorpus(names, texts, 0).
func NewCorpus(names, texts []string) *Corpus { return SealCorpus(names, texts, 0) }

// SealCorpus builds one sealed segment from the documents (see
// BuildSegment for workers) and returns it as a snapshot.
func SealCorpus(names, texts []string, workers int) *Snapshot {
	return newSnapshot([]*Segment{BuildSegment(names, texts, workers)}, nil)
}

// SnapshotOf composes pre-built segments and tombstone bitmaps into a
// snapshot. The slices are cloned; the segments and bitmaps themselves
// must be immutable from here on.
func SnapshotOf(segs []*Segment, deads [][]uint64) *Snapshot {
	return newSnapshot(slices.Clone(segs), slices.Clone(deads))
}

// Len returns the number of live documents.
func (s *Snapshot) Len() int { return s.total }

// Segments returns the number of segments.
func (s *Snapshot) Segments() int { return len(s.segs) }

// Segment returns segment i (for persistence; immutable).
func (s *Snapshot) Segment(i int) *Segment { return s.segs[i].seg }

// SegmentDead returns segment i's tombstone bitmap (nil = none). The
// returned slice is shared and must not be mutated.
func (s *Snapshot) SegmentDead(i int) []uint64 { return s.segs[i].dead }

// SegmentLive returns the number of live documents in segment i.
func (s *Snapshot) SegmentLive(i int) int { return s.segs[i].live }

// Name returns the name of live document i.
func (s *Snapshot) Name(i int) string {
	for si := range s.segs {
		ss := &s.segs[si]
		if i < ss.offset+ss.live {
			return ss.seg.names[ss.selectLive(i-ss.offset)]
		}
	}
	panic("similarity: document index out of range")
}

// Best returns the closest live document to the query text, or
// Match{Name: "", Index: -1, Score: 0} when nothing scores above zero —
// the documented no-match value callers must check before using Index.
//
//freehw:hotpath
func (s *Snapshot) Best(text string) Match {
	var out [1]Match
	s.bestGroup([]string{text}, out[:])
	return out[0]
}

// bestGroup is Best for up to accBatch texts at once: out[i] = Best(texts[i]).
// Each text is parsed once, and each segment is handed the whole group with
// its tombstone bitmap, so the queries that end in its accumulator share one
// pass; candidates merge on (score descending, global index ascending) — the
// tie rule within a segment, made consistent across segments by the global
// live-rank indexing.
//
//freehw:hotpath
func (s *Snapshot) bestGroup(texts []string, out []Match) {
	var qs [accBatch]*query
	for i, t := range texts {
		out[i], qs[i] = Match{Index: -1}, parseQuery(t)
	}
	defer func() {
		for _, q := range qs[:len(texts)] {
			putQuery(q)
		}
	}()
	var found [accBatch][]Match
	for si := range s.segs {
		ss := &s.segs[si]
		if ss.live == 0 {
			continue
		}
		ss.seg.searchBatch(qs[:len(texts)], 1, searchAuto, ss.dead, found[:len(texts)])
		for i, ms := range found[:len(texts)] {
			if len(ms) == 0 {
				continue
			}
			m := ms[0]
			m.Index = ss.offset + ss.liveRank(int32(m.Index))
			if out[i].Index < 0 || m.Score > out[i].Score {
				out[i] = m
			}
		}
	}
}

// TopK returns the k closest live matches, best first (score descending,
// index ascending on ties). Only documents sharing at least one term with
// the query qualify: a zero cosine is "no match", so the result holds
// min(k, matching docs) entries rather than padding with arbitrary
// low-index corpus files.
//
//freehw:hotpath
func (s *Snapshot) TopK(text string, k int) []Match {
	if k <= 0 || s.total == 0 {
		return nil
	}
	q := parseQuery(text)
	defer putQuery(q)
	var all []Match
	for si := range s.segs {
		ss := &s.segs[si]
		if ss.live == 0 {
			continue
		}
		var found [1][]Match
		ss.seg.searchBatch([]*query{q}, k, searchAuto, ss.dead, found[:])
		for _, m := range found[0] {
			m.Index = ss.offset + ss.liveRank(int32(m.Index))
			all = append(all, m)
		}
	}
	// Per-segment lists carry exact scores (bit-identical to the full
	// rebuild's), so a plain sort on (score desc, index asc) reproduces
	// the one-segment heap order exactly.
	slices.SortFunc(all, func(a, b Match) int { return cmp.Or(cmp.Compare(b.Score, a.Score), a.Index-b.Index) })
	return all[:min(k, len(all))]
}

// BestBatch scores a batch of queries in one pass over the snapshot:
// identical texts are deduplicated — generation pipelines resample the
// same candidate, and every duplicate shares one scoring — and the
// distinct queries go through the scorer in groups of up to accBatch, the
// groups fanned out across at most workers goroutines (<= 0 means
// GOMAXPROCS) and sized so that every worker has one. Each query is parsed
// once, resolves against each segment's dictionary and adds what Best adds,
// in the same order, so results are byte-identical to calling Best per text,
// in input order.
func (s *Snapshot) BestBatch(workers int, texts []string) []Match {
	if len(texts) == 0 {
		return nil
	}
	if len(texts) == 1 {
		// Single query — the serving fast path: no dedup table, no
		// fan-out, same result.
		return []Match{s.Best(texts[0])}
	}
	slot := make([]int, len(texts))
	index := make(map[string]int, len(texts))
	var distinct []string
	for i, t := range texts {
		j, ok := index[t]
		if !ok {
			j, index[t], distinct = len(distinct), len(distinct), append(distinct, t)
		}
		slot[i] = j
	}
	scored := make([]Match, len(distinct))
	w := par.Workers(workers)
	size := min(accBatch, (len(distinct)+w-1)/w)
	par.ForEach(workers, (len(distinct)+size-1)/size, func(gi int) {
		lo := gi * size
		hi := min(lo+size, len(distinct))
		s.bestGroup(distinct[lo:hi], scored[lo:hi])
	})
	out := make([]Match, len(texts))
	for i := range texts {
		out[i] = scored[slot[i]]
	}
	return out
}
