//freehw:hotpath

package similarity

// Exact top-k scoring: one pruned routine and one exhaustive accumulator.
//
//   - k == 1 (Best, BestBatch — every audit) on a segment of at least
//     pruneMinDocs documents runs searchPrunedBest, the gather engine
//     below, which skips most of the index on selective queries and asks
//     for the accumulator when it detects that pruning is not paying.
//   - Everything else — k > 1 (TopK), tiny segments, every bail-out — ends
//     in accumulate, one pass over every posting of every query term. A
//     query is scored the same way whether it comes alone or in a batch:
//     BestBatch runs one Best per distinct text.
//
// Both start from the query resolved against the segment (cursors): each
// distinct unigram probes the dictionary with the hash parseQuery kept (all
// dictionaries share dictSeed), and a row list finds its row by a rank over
// the segment's row bitmap (Segment.list), with no search.
//
// The accumulator ranks, then re-scores. A query scatters its sparse lists
// into float64 sums and adds its dense rows — int16 counts — into int32
// sums, exact in any order (denseRun: two rows a VPDPWSSD over 64 documents
// with AVX-512 VNNI, a VPMADDWD over 32 with AVX2). The scan
// (scanFrom, four documents an AVX2 step) keeps every live document whose
// approximate dot product — float sum plus row sum times the reciprocal of
// the norm — inflated by a slack covering both sums' roundings, reaches the
// k-th best so far, deflated. Only those are scored exactly (rescore): every
// query term in canonical order, a row's weight its count over the norm, the
// division it was stored from (rescoreRow, four documents a VDIVPD), so the
// same float64 bit for bit. A document the scan drops is strictly worse than
// k others, so ties are never pruned and every score, tie and verdict is the
// canonical float64 sum. A novel candidate on bench/'s corpus keeps one to a
// few hundred documents: template-built documents tie exactly. ROADMAP item
// 6(e) has the readings that keep the gather engine beside it.
//
// Why a special engine at all: similarity here is tf-only cosine, with no
// idf, so corpus-universal terms (Verilog keywords, punctuation) carry
// enormous upper bounds, and classic MaxScore would surface every document
// on whole-file audit queries. The gather engine splits the query's posting
// lists three ways and scores by gathering, not cursor merging:
//
//   - Dense lists (rowShare·df >= docs: Segment.rows) never generate
//     candidates and are bounded together by Cauchy–Schwarz: document d
//     gets at most ‖q_dense‖·dnorm[d] out of them, the norm of the query's
//     dense counts times the norm seal keeps of d's dense weights. A sum of
//     per-term maxima would charge every keyword at the weight of the
//     document fullest of it and make any near-duplicate look hopeless.
//   - The cheapest sparse lists — ordered by upper bound per posting, the
//     absorption order that buys the most skipped postings per unit of
//     threshold budget — are absorbed into a non-essential prefix while
//     their summed bounds plus the largest dense bound stay strictly below
//     the threshold. Their postings are never read.
//   - The remaining essential sparse lists are streamed into a
//     per-document accumulator (the gather). Each touched document is then
//     bounded by dense bound + absorbed-prefix bound + its exact gathered
//     sum. The partition is progressive: absorbing right up to the
//     threshold leaves every document that shares a few lines with the
//     match straddling it, so while more than a handful of touched
//     documents do, the absorbed budget is halved and the lists that frees
//     are streamed too (a fixed share cost diverse corpora dearly).
//   - Survivors are evaluated fully — every query term, in canonical query
//     order (first appearance in the query, so the same order in every
//     segment), the order the accumulator's re-scoring uses — with early
//     abandonment against canonical-order tail bounds. On a selective audit
//     that is one document: the match.
//   - Documents touched by no essential list are never visited: their
//     bound is at most the largest dense bound plus the absorbed prefix,
//     which the partition holds strictly below a threshold that only rises.
//
// The threshold is primed before scoring starts (searchPrunedBest): a
// near-duplicate's nearly unique "pointer" terms vote for the matching
// document, whose exact score is pushed into the heap up front.
//
// Exactness is non-negotiable (the serving layer's golden fixtures and the
// offline/online byte-equality tests pin scores bit for bit) and rests on
// two invariants:
//
//  1. Bit-identical sums. A fully evaluated document accumulates its dot
//     product in the order the accumulator's re-scoring uses, so the kept
//     scores are the same float64s, not merely close ones.
//  2. Conservative bounds. Bounds are inflated and the threshold deflated
//     by a slack covering worst-case float64 summation error (bounds and
//     scores sum in different orders), and a candidate is pruned only when
//     its bound is STRICTLY below the threshold. Ties are never pruned: a
//     tying document reaches full evaluation, where the heap's lowest-index
//     rule (matchWorse) decides whatever the visit order, and priming can
//     never make an equal or better document be skipped.
//
// Where no threshold separates documents the gather engine sees pruning not
// paying (see bail) and falls back to the accumulator. A novel candidate —
// 97% of what a clean model sends — always ends there: the accumulator is
// the audit.

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	// pruneMinDocs is the segment size below which searchAuto uses the
	// exhaustive accumulator even for k == 1: pruning bookkeeping cannot
	// pay for itself on tiny segments. (Results are identical either way —
	// the pruned path is bit-exact — this is purely a latency knob.)
	pruneMinDocs = 96

	// bailEvalDen: once the gather engine has read more than
	// 1/bailEvalDen of the query's postings, the segment is too
	// homogeneous for pruning and the search switches to the exhaustive
	// accumulator.
	bailEvalDen = 4

	// epsUlp is one float64 ulp at 1.0; the slack factors scale it by the
	// number of terms in a sum (plus margin) to bound accumulated
	// rounding error of nonnegative sums-of-products.
	epsUlp = 2.3e-16
)

// Search modes. Best/TopK use searchAuto; tests force an engine to compare
// the two bit-for-bit (searchPruned forces the gather engine at k == 1 on
// any segment size; at k > 1 there is only the accumulator).
const (
	searchAuto = iota
	searchPruned
	searchExhaustive
)

// PruneStats is a snapshot of the pruned-scoring counters (collected only
// while EnablePruneStats(true) is set; zero-cost one atomic load per query
// otherwise). PostingsTotal counts every posting of every resolved query
// term; PostingsVisited counts the ones actually read (streamed or
// probed) — postings, so a dense list streamed as a doc-indexed row counts
// its document frequency, not the row's slots. The difference is the work
// pruning skipped.
type PruneStats struct {
	Queries         uint64 // scored queries (pruned path only)
	Bailouts        uint64 // pruned searches that bailed to the accumulator
	PostingsTotal   uint64
	PostingsVisited uint64
	FullEvals       uint64 // candidates that reached full evaluation
}

var pruneStatsOn atomic.Bool

var pruneCounters struct {
	queries, bailouts, total, visited, fullEvals atomic.Uint64
}

// EnablePruneStats toggles collection of PruneStats.
func EnablePruneStats(on bool) { pruneStatsOn.Store(on) }

// ReadPruneStats returns the counters accumulated since the last reset.
func ReadPruneStats() PruneStats {
	return PruneStats{
		Queries:         pruneCounters.queries.Load(),
		Bailouts:        pruneCounters.bailouts.Load(),
		PostingsTotal:   pruneCounters.total.Load(),
		PostingsVisited: pruneCounters.visited.Load(),
		FullEvals:       pruneCounters.fullEvals.Load(),
	}
}

// ResetPruneStats zeroes the counters.
func ResetPruneStats() {
	pruneCounters.queries.Store(0)
	pruneCounters.bailouts.Store(0)
	pruneCounters.total.Store(0)
	pruneCounters.visited.Store(0)
	pruneCounters.fullEvals.Store(0)
}

// pruneCursor is one query term's posting-list view (Segment.list): the
// doc-ordered postings, their number, the query-side count, and the term's
// global upper bound contribution. For a dense list row is its index in
// Segment.dense, and of its counts in Segment.rows (-1 otherwise), and docs
// and ws are nil: the row is the list. There is no position here: the
// gather engine reads lists by streaming, by doc-indexed access (dense) or by
// binary search, and the accumulator scatters a sparse list whole.
type pruneCursor struct {
	docs []int32
	ws   []float64
	row  int32
	df   uint32
	qw   float64
	ub   float64 // qw * tmax, raw (slack applied at comparison sites)
}

// Every accumulation below is written acc += float64(q * w). The Go spec
// lets an implementation fuse x*y + z into one FMA, which skips the
// product's rounding, and the compilers for arm64, ppc64, s390x and riscv64
// do; an explicit conversion forbids it. Scores, and testdata/verdicts.golden,
// are then the same float64s on every GOARCH (the conversion costs nothing
// on amd64, which never fuses).

// searchScratch holds one query's state from resolution to result, pooled
// across queries: its cursors, the gather engine's work arrays, and the
// accumulator's sums and candidates.
type searchScratch struct {
	ids   []int32 // per query id: its postings id in the segment, -1 absent
	curs  []pruneCursor
	ord   []int32
	touch []int32
	pref  []float64
	tail  []float64
	prime []int32
	h     matchHeap
	qnorm float64

	acc   []float64   // the gather engine's per-document sums, then the accumulator's sparse sums, then the candidates' norms
	acci  []int32     // the accumulator's row sums
	offs  []int       // the dense cursors' rows, span by span: where each starts in Segment.rows
	qs    []uint32    // and the counts they are added with
	spans []denseSpan // runs of offs that an int32 holds; see planDense
	slack float64     // the relative error the scan's sums and the exact ones may have between them, see accumulate
	cand  []int32     // live documents the scan could not rule out, ascending
	candA []float64   // their approximate dot products, then their exact ones
	top   []float64   // the k largest approximate dot products so far, ascending (offer)
}

// denseSpan is one run of a query's dense rows: offs[previous end:end],
// whose sums are multiplied by scale when they leave the int32 row sums.
type denseSpan struct {
	end   int
	scale float64
}

var scratchPool = sync.Pool{New: func() any { return &searchScratch{} }}

// zeros returns *buf, a scratch array, as n zeros.
func zeros[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// planDense lists the query's sparse cursors in sc.ord, in any order, and
// lays its dense rows out as spans for accumulate. A row adds at most
// qw·rowMax to a document; a span's rows add up to at most 2^31-1 between
// them, so its sums are exact in the int32 row sums, and a new span starts
// where the next row could pass that. A row whose count alone could is a
// span of its own, added at count 1 and scaled by its count as it leaves the
// row sums (float64 holds count·rowMax < 2^47 exactly). Every span but the
// last leaves them; the last stays for the scan, so it is never a scaled one.
func (sc *searchScratch) planDense(rowMax int32, nDocs int) {
	ord, offs, qs, spans := sc.ord[:0], sc.offs[:0], sc.qs[:0], sc.spans[:0]
	room := -1.0 // what the open span may still add; none is open
	for i := range sc.curs {
		cur := &sc.curs[i]
		if cur.row < 0 {
			ord = append(ord, int32(i))
			continue
		}
		off, add := int(cur.row)*nDocs, cur.qw*float64(rowMax)
		if add > math.MaxInt32 {
			offs, qs = append(offs, off), append(qs, 1)
			spans, room = append(spans, denseSpan{len(offs), cur.qw}), -1
			continue
		}
		if add > room {
			spans, room = append(spans, denseSpan{scale: 1}), math.MaxInt32
		}
		offs, qs, room = append(offs, off), append(qs, uint32(cur.qw)), room-add
		spans[len(spans)-1].end = len(offs)
	}
	if len(spans) > 0 && spans[len(spans)-1].scale != 1 {
		spans = append(spans, denseSpan{len(offs), 1})
	}
	sc.ord, sc.offs, sc.qs, sc.spans = ord, offs, qs, spans
}

// drain empties the heap into a new slice, best first, and returns the
// scratch to the pool.
func (sc *searchScratch) drain() []Match {
	out := make([]Match, len(sc.h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&sc.h).(Match)
	}
	scratchPool.Put(sc)
	return out
}

// deadBit reports whether doc d is tombstoned in the bitmap (nil = no
// tombstones). Bit d of word d/64, the layout Snapshot and Index share.
func deadBit(dead []uint64, d int32) bool {
	return dead != nil && dead[d>>6]&(1<<(uint32(d)&63)) != 0
}

// search is the one scoring entry behind Best, TopK and BestBatch: the exact
// top-k matches of q over the segment's live documents, best first, indices
// segment-local (nil when the query or the segment is empty). mode selects
// the engine (searchAuto: the gather engine for k == 1 on at least
// pruneMinDocs documents, the accumulator for everything else); every choice
// returns bit-identical results. k > 1 and tiny segments go straight to the
// accumulator, and a query the gather engine gives up on ends there too.
//
// dead is the snapshot's tombstone bitmap for this segment: dead documents
// never reach the heap AND never set the pruning threshold (a dead doc's
// score raising theta could wrongly prune a live doc), so the result is
// bit-identical to scoring a segment that never contained them. dead may
// be nil (no tombstones — the common case, zero overhead on the scan
// loops beyond one predictable branch).
func (g *Segment) search(q *query, k int, mode int, dead []uint64) []Match {
	nDocs := len(g.names)
	if k <= 0 || nDocs == 0 || q.norm == 0 {
		return nil
	}
	k = min(k, nDocs)
	sc := scratchPool.Get().(*searchScratch)
	sc.qnorm = q.norm
	totalPostings := g.cursors(q, sc)
	if len(sc.curs) == 0 {
		scratchPool.Put(sc)
		return []Match{}
	}

	sc.h = sc.h[:0]
	if cap(sc.h) < k {
		sc.h = make(matchHeap, 0, k)
	}
	usePruned := k == 1 && (mode == searchPruned || (mode == searchAuto && nDocs >= pruneMinDocs))
	statsOn := pruneStatsOn.Load()
	if statsOn {
		pruneCounters.total.Add(uint64(totalPostings))
		if usePruned {
			pruneCounters.queries.Add(1)
		}
	}
	if !usePruned || !g.searchPrunedBest(sc, totalPostings, statsOn, dead) {
		g.accumulate(sc, k, statsOn, dead)
	}
	return sc.drain()
}

// cursors resolves q against the segment into sc.curs, in canonical order —
// query id order. A unigram is one lookup; a bigram is looked up only when
// the segment knows both its unigrams, whose query ids are lower than its
// own, since no document holds a pair of terms the segment never saw. Terms
// with empty posting lists cannot contribute and are dropped — dropping
// preserves the relative order, so per-document sums stay canonical. It
// returns the postings of the cursors in all.
func (g *Segment) cursors(q *query, sc *searchScratch) (totalPostings int) {
	ids, curs := sc.ids[:0], sc.curs[:0]
	o := 0 // ordinal of the next unigram
	for qid, k1 := range q.keys {
		id := int32(-1)
		if k1 == 0 {
			id = g.dict.lookup(bstr(q.d.termBytes(o)), q.hash[o])
			o++
		} else if a, b := ids[(k1-1)>>32], ids[uint32(k1-1)]; a >= 0 && b >= 0 {
			id, _ = g.dict.findPair(pairKey(a, b))
		}
		ids = append(ids, id)
		if id < 0 {
			continue
		}
		cur := g.list(id)
		if cur.df == 0 {
			continue
		}
		cur.qw = float64(q.cnt[qid])
		cur.ub = cur.qw * g.tmax[id]
		curs = append(curs, cur)
		totalPostings += int(cur.df)
	}
	sc.ids, sc.curs = ids, curs
	return totalPostings
}

// pushMatch offers m to the bounded heap, returning true if the heap
// changed (same keep/replace semantics the exhaustive TopK always had:
// weakest-out, ties keep the lower index).
func pushMatch(h *matchHeap, k int, m Match) bool {
	if len(*h) < k {
		heap.Push(h, m)
		return true
	}
	if matchWorse((*h)[0], m) {
		(*h)[0] = m
		heap.Fix(h, 0)
		return true
	}
	return false
}

// canonicalTails fills sc.tail with tail[i] = inflated sum of upper
// bounds of cursors i.. in canonical order — what a full evaluation can
// still add after cursor i-1.
func canonicalTails(sc *searchScratch, inflate float64) []float64 {
	curs := sc.curs
	n := len(curs)
	tail := zeros(&sc.tail, n+1)
	rcum := 0.0
	for i := n - 1; i >= 0; i-- {
		rcum += curs[i].ub
		tail[i] = rcum * inflate
	}
	return tail
}

// evalCanonical computes document d's exact dot product — every query
// term, in canonical query order, the bit-identical twin of the accumulator's
// re-scoring — without moving any cursor position. A dense list's weight is
// its count at d over d's norm, the division it was stored from (no term,
// when the count is 0: adding +0 changes nothing); the rest binary-search.
// With theta >= 0 it abandons early (reporting abandoned=true) once the
// partial sum plus the canonical tail bound cannot reach theta.
func (g *Segment) evalCanonical(curs []pruneCursor, tail []float64, d int32, theta float64) (acc float64, abandoned bool) {
	for i := range curs {
		if curs[i].row >= 0 {
			if c := g.rows[int(curs[i].row)*len(g.names)+int(d)]; c != 0 {
				acc += float64(curs[i].qw * (float64(c) / g.norm[d]))
			}
		} else if j, ok := binSearchDocs(curs[i].docs, d); ok {
			acc += float64(curs[i].qw * curs[i].ws[j])
		}
		if theta >= 0 && acc+tail[i+1] < theta {
			return acc, true
		}
	}
	return acc, false
}

// searchPrunedBest is the k == 1 gather engine (see the package comment):
// dense/sparse split, threshold priming, absorbed-prefix partition, a
// streaming gather of the essential sparse postings that un-absorbs while
// too many documents straddle, then bound → canonical evaluation per
// touched document. The size-1 heap, sc.h, makes every push of an
// already-known document a no-op, which is what lets priming and the
// accumulator re-score documents freely. It reports whether the heap holds
// the answer; false means the query needs the accumulator (every list dense,
// or pruning not paying), which the caller runs over the heap as it was left.
func (g *Segment) searchPrunedBest(sc *searchScratch, totalPostings int, statsOn bool, dead []uint64) (done bool) {
	curs := sc.curs
	n := len(curs)
	nDocs := len(g.names)
	qnorm := sc.qnorm

	// Slack factors: any bound is a sum of at most n products — the dense
	// part a product of two norms over no more terms, dnorm already rounded
	// up — so one multiplicative inflation covers its worst-case rounding
	// deficit; the threshold is deflated symmetrically (it round-trips
	// through a score division). See the package comment for why comparing
	// differently-ordered float sums needs this.
	slack := float64(n+32) * epsUlp
	inflate := 1 + slack
	deflate := 1 - slack

	// Dense/sparse split. The dense lists give document d at most
	// ‖their query counts‖·dnorm[d] between them (Cauchy–Schwarz), and no
	// document more than denseMax.
	ord := sc.ord[:0]
	qd2 := 0.0
	for i := range curs {
		if curs[i].row >= 0 {
			qd2 += float64(curs[i].qw * curs[i].qw)
		} else {
			ord = append(ord, int32(i))
		}
	}
	sc.ord = ord
	qdn := math.Sqrt(qd2)
	denseMax := qdn * g.dnormMax
	if len(ord) == 0 {
		// Every list is dense: no sparse list to surface candidates, so
		// the whole corpus must be scored anyway.
		return false
	}
	sortSparseByRatio(ord, curs)

	// pref[i]: raw sum of the upper bounds of ord[:i] — the most those sparse
	// lists, absorbed, can ever contribute to any document.
	pref := append(sc.pref[:0], 0)
	for _, ci := range ord {
		pref = append(pref, pref[len(pref)-1]+curs[ci].ub)
	}
	sc.pref = pref

	tail := canonicalTails(sc, inflate)

	var visited, fullEvals uint64
	evalBudget := uint64(totalPostings) / bailEvalDen

	// thetaAcc is the comparison threshold: the best known dot product,
	// DEFLATED by the slack factor. Deflation provides an absolute margin
	// proportional to theta itself — necessary because a candidate's
	// partial sums can fall short of its final accumulated value by
	// rounding error that scales with the total, not with the (possibly
	// tiny) remaining tail bound. <0 means no threshold yet.
	thetaAcc := -1.0
	updateTheta := func() {
		if len(sc.h) == 1 {
			if t := sc.h[0].Score * qnorm * deflate; t > thetaAcc {
				thetaAcc = t
			}
		}
	}

	flushStats := func() {
		if statsOn {
			pruneCounters.visited.Add(visited)
			pruneCounters.fullEvals.Add(fullEvals)
		}
	}
	// bail gives up on pruning: the accumulator streams the whole segment,
	// and re-pushing the document the heap already holds is a no-op (same
	// score, same index).
	bail := func() bool {
		if statsOn {
			pruneCounters.bailouts.Add(1)
		}
		flushStats()
		return false
	}
	// hopeless reports that no partition exists: documents no streamed list
	// touches are never looked at, which is sound only while the largest
	// dense bound (plus whatever is absorbed) stays strictly below the
	// threshold. With no threshold, or one the largest dense bound already
	// meets — a fresh candidate against a homogeneous corpus, where the best
	// score is mediocre but keyword mass is everywhere — the search should
	// stream everything at once. The threshold only rises, so a search that
	// gets past this needs no check of the untouched documents afterwards.
	hopeless := func() bool {
		return thetaAcc < 0 || denseMax*inflate >= thetaAcc
	}

	// Threshold priming: scoring visits documents in essential-list order,
	// so on a needle-in-haystack audit the threshold would stay low until
	// the matching document happens to come up. Instead, fully score a
	// handful of documents up front and push them straight into the heap:
	// each primed score is accumulated in canonical order, so it is
	// bit-identical to what the main pass would compute, and re-pushing
	// the same document later is a no-op. The threshold is live before the
	// partition is drawn, and completeness never depends on a primed
	// document being re-surfaced.
	// Prime candidates are elected by vote: gather the postings of the
	// nearly-unique "pointer" lists (df <= primeSelDF — a near-dup query
	// has ~one such term per copied line, all naming the same file) and
	// score the documents they name most often. With no pointer lists
	// nothing is primed, and the hopeless check sends the query to the
	// accumulator: seeding from wider lists instead measured neutral on
	// bench/'s corpus and on the diverse one.
	if n > 1 {
		const (
			primeSelDF   = 4   // pointer lists: terms in almost no documents
			primeBudget  = 4   // full evaluations spent on seeding
			primeCollect = 512 // cap on pointer postings gathered
		)
		collect := sc.prime[:0]
		for oi := len(ord) - 1; oi >= 0 && len(collect) < primeCollect; oi-- {
			cur := &curs[ord[oi]]
			if len(cur.docs) <= primeSelDF {
				collect = append(collect, cur.docs...)
			}
		}
		sc.prime = collect
		type vote struct{ d, n int32 } // a document and how many pointer terms name it
		var votes [primeBudget]vote
		nPrime := 0
		slices.Sort(collect)
		// Keep the primeBudget docs with the longest runs (= named by
		// the most pointer terms). Replacement is strict-greater, and
		// runs arrive in ascending doc order, so ties keep lower ids —
		// deterministic.
		for i, j := 0, 0; i < len(collect); i = j {
			for j = i + 1; j < len(collect) && collect[j] == collect[i]; j++ {
			}
			switch v, mi := (vote{collect[i], int32(j - i)}), 0; {
			case deadBit(dead, v.d): // a tombstoned doc must not seed the threshold
			case nPrime < primeBudget:
				votes[nPrime], nPrime = v, nPrime+1
			default:
				for s := 1; s < primeBudget; s++ {
					if votes[s].n < votes[mi].n {
						mi = s
					}
				}
				if v.n > votes[mi].n {
					votes[mi] = v
				}
			}
		}
		// Best guess first (descending vote count, ties by lower doc id):
		// the leader alone decides whether pruning is viable, so the
		// hopeless check can run after one evaluation instead of four.
		slices.SortFunc(votes[:nPrime], func(a, b vote) int { return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.d, b.d)) })
		for pi, v := range votes[:nPrime] {
			d := v.d
			acc, _ := g.evalCanonical(curs, tail, d, -1)
			visited += uint64(n)
			if acc > 0 {
				pushMatch(&sc.h, 1, Match{Name: g.names[d], Index: int(d), Score: acc / qnorm})
			}
			if pi == 0 {
				// A fresh candidate against a homogeneous corpus is decided
				// here: the primed threshold lands below the largest dense
				// bound and the remaining evaluations would be wasted.
				updateTheta()
				if hopeless() {
					return bail()
				}
			}
		}
	}

	updateTheta()
	if hopeless() {
		return bail()
	}

	// Partition: absorb the cheapest sparse lists while their summed bounds
	// plus the largest dense bound stay strictly below the threshold. This
	// is exactly the invariant that lets documents appearing only in
	// absorbed lists go unvisited, and un-absorbing only slackens it.
	nonEss := 0
	for nonEss < len(ord) && (pref[nonEss+1]+denseMax)*inflate < thetaAcc {
		nonEss++
	}

	// Gather: stream the essential sparse postings into the scratch's
	// per-document accumulator, recording each document on first touch
	// (all contributions are positive, so zero means untouched). The
	// touched order is a deterministic function of corpus and query. The
	// greedy partition absorbs right up to the threshold, so dozens of
	// touched documents can straddle it (44 a near-duplicate on bench/'s
	// corpus) and each would cost a full evaluation; while more than
	// maxStraddlers live ones do, halve the absorbed budget, stream the
	// lists that un-absorbs into the same sums and count again. Every
	// posting streamed counts against both bail-outs.
	const maxStraddlers = 8
	acc := zeros(&sc.acc, nDocs)
	touched := sc.touch[:0]
	essPostings := 0
	for essEnd := len(ord); ; {
		for _, ci := range ord[nonEss:essEnd] {
			essPostings += len(curs[ci].docs)
		}
		// If most of the index would be streamed anyway, pruning cannot pay:
		// go straight to the accumulator.
		if uint64(essPostings) > uint64(totalPostings)/2 {
			return bail()
		}
		for _, ci := range ord[nonEss:essEnd] {
			cur := &curs[ci]
			qw := cur.qw
			for j, d := range cur.docs {
				if acc[d] == 0 {
					touched = append(touched, d)
				}
				acc[d] += float64(qw * cur.ws[j])
			}
			visited += uint64(len(cur.docs))
		}
		essEnd = nonEss
		if nonEss == 0 {
			break
		}
		straddlers := 0
		for _, d := range touched {
			if (qdn*g.dnorm[d]+pref[nonEss]+acc[d])*inflate >= thetaAcc && !deadBit(dead, d) {
				if straddlers++; straddlers > maxStraddlers {
					break
				}
			}
		}
		if straddlers <= maxStraddlers {
			break
		}
		for budget := pref[nonEss] / 2; nonEss == essEnd || pref[nonEss] > budget; {
			nonEss--
		}
	}
	sc.touch = touched
	prefPart := pref[nonEss]

	// Score the touched documents: dense bound + absorbed prefix + gathered
	// sum, then canonical evaluation for the ones that still reach the
	// threshold. Tombstoned docs are skipped before any bound or evaluation
	// — they can neither match nor raise the threshold.
	for _, d := range touched {
		if deadBit(dead, d) {
			continue
		}
		if (qdn*g.dnorm[d]+prefPart+acc[d])*inflate < thetaAcc {
			continue
		}
		av, abandoned := g.evalCanonical(curs, tail, d, thetaAcc)
		visited += uint64(n)
		fullEvals++
		if !abandoned && av > 0 {
			if pushMatch(&sc.h, 1, Match{Name: g.names[d], Index: int(d), Score: av / qnorm}) {
				updateTheta()
			}
		}
		// Bailout: pruning is not separating documents (homogeneous
		// corpus) — the budget bounds the damage to a fraction of one
		// exhaustive pass before switching to it.
		if visited > evalBudget {
			return bail()
		}
	}
	flushStats()
	return true
}

// binSearchDocs returns where d is, or would go, in a sorted doc-id list,
// and whether it is there.
func binSearchDocs(docs []int32, d int32) (int, bool) {
	lo, hi := 0, len(docs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if docs[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(docs) && docs[lo] == d {
		return lo, true
	}
	return lo, false
}

// gallop is binSearchDocs for a d that is likely near the front of docs, as
// the next of many ascending documents is: it probes 1, 2, 4, ... documents
// in until one is at or past d, then searches the last gap.
func gallop(docs []int32, d int32) (int, bool) {
	step := 1
	for step <= len(docs) && docs[step-1] < d {
		step <<= 1
	}
	lo := step >> 1
	p, ok := binSearchDocs(docs[lo:min(step, len(docs))], d)
	return lo + p, ok
}

// sortSparseByRatio orders cursor indices by ascending upper bound per
// posting (ub/df): the absorption order that buys the most skipped
// postings per unit of threshold budget. Compared via cross-
// multiplication (no division), ties by ascending index — deterministic.
// Insertion sort: n is small, and it measured faster here than
// slices.SortFunc.
func sortSparseByRatio(ord []int32, curs []pruneCursor) {
	less := func(a, b int32) bool {
		ra, rb := curs[a].ub*float64(len(curs[b].docs)), curs[b].ub*float64(len(curs[a].docs))
		return ra < rb || ra == rb && a < b
	}
	for i := 1; i < len(ord); i++ {
		v, j := ord[i], i-1
		for ; j >= 0 && less(v, ord[j]); j-- {
			ord[j+1] = ord[j]
		}
		ord[j+1] = v
	}
}

// accumulate is the exhaustive engine (the package comment has its shape):
// one pass of sums and scan over every document, then rescore folds the
// exact scores of the documents the scan kept into the query's heap, in
// ascending doc order. The gather engine's bail-outs end here too;
// re-pushing the document a size-1 heap already holds is a no-op.
//
// A document's approximate dot product is its sparse float sum plus its row
// sum over its norm: every term of it within two roundings of its exact
// value q·count/norm, and at most one addition per term, as the exact sum
// in canonical order also is. All terms are non-negative, so each sum is
// within (n+3) roundings of the exact value, n the query's lists, and two
// documents whose approximations differ by more than the slack (n+32)
// epsUlp either side cannot have exact sums in the other order — or equal.
// The scan keeps a document unless its approximation, inflated, is below
// the k-th best approximation seen, deflated: a document it drops is
// strictly worse than k others, and a tie is never dropped.
func (g *Segment) accumulate(sc *searchScratch, k int, statsOn bool, dead []uint64) {
	sc.planDense(g.rowMax, len(g.names))
	sc.slack = float64(len(sc.curs)+32) * epsUlp
	sc.cand, sc.candA, sc.top = sc.cand[:0], sc.candA[:0], sc.top[:0]
	if statsOn {
		var visited uint64
		for i := range sc.curs {
			visited += uint64(sc.curs[i].df) // postings, not the slots of a dense row
		}
		pruneCounters.visited.Add(visited)
	}
	acc, acci := g.sums(sc)
	sc.scan(acc, acci, g.inv, k, dead)
	g.rescore(sc, k)
}

// sums sums every document of one query: its sparse lists (sc.ord)
// scattered into sc.acc, and its dense rows added into sc.acci a span at a
// time, every span but the last moved into sc.acc times its scale over the
// norms. A document's approximate dot product is acc + acci·inv.
func (g *Segment) sums(sc *searchScratch) (acc []float64, acci []int32) {
	// The row sums run on to a whole number of the kernel's 32-document
	// chunks: seal pads the rows for it, and the scan never reads past the
	// last document.
	nDocs, inv := len(g.names), g.inv
	acc, acci = zeros(&sc.acc, nDocs), zeros(&sc.acci, (nDocs+31)&^31)
	for _, i := range sc.ord {
		cur := &sc.curs[i]
		docs, qw := cur.docs, cur.qw
		ws := cur.ws[:len(docs)] // one bound, checks eliminated below
		for p, d := range docs {
			acc[d] += float64(qw * ws[p])
		}
	}
	start := 0
	for si, sp := range sc.spans {
		denseRun(acci, g.rows, sc.offs[start:sp.end], sc.qs[start:sp.end])
		start = sp.end
		if si == len(sc.spans)-1 {
			break
		}
		for j, n := range acci[:nDocs] { // exact products: n·scale < 2^53
			acc[j] += float64(float64(n) * sp.scale * inv[j])
			acci[j] = 0
		}
	}
	return acc, acci[:nDocs]
}

// scan offers the live documents to the query's candidates: a document joins
// them unless its approximate dot product, inflated, is below the deflated
// k-th best one so far (see accumulate). A document with no term in common
// scores 0 and never does. scanFrom finds the next document that may join,
// four a step in AVX2; this loop takes each from there.
func (sc *searchScratch) scan(acc []float64, acci []int32, inv []float64, k int, dead []uint64) {
	inflate, theta := 1+sc.slack, sc.bar(k)
	for i := scanFrom(acc, acci, inv, 0, inflate, theta); i < len(acc); i = scanFrom(acc, acci, inv, i+1, inflate, theta) {
		if deadBit(dead, int32(i)) {
			continue // tombstoned: must not win or raise the bar
		}
		a := acc[i] + float64(float64(acci[i])*inv[i])
		sc.cand, sc.candA = append(sc.cand, int32(i)), append(sc.candA, a)
		if sc.offer(a, k) {
			theta = sc.bar(k)
		}
	}
}

// offer keeps a in sc.top if it is among the k largest so far, reporting
// whether it is.
func (sc *searchScratch) offer(a float64, k int) bool {
	t := sc.top
	if len(t) == k {
		if a <= t[0] {
			return false
		}
		t = append(t[:0], t[1:]...)
	}
	i, _ := slices.BinarySearch(t, a)
	sc.top = slices.Insert(t, i, a)
	return true
}

// bar is the deflated k-th best approximate dot product so far, or 0 before
// there are k.
func (sc *searchScratch) bar(k int) float64 {
	if len(sc.top) < k {
		return 0
	}
	return sc.top[0] * (1 - sc.slack)
}

// rescore computes the exact dot product of every candidate still in reach
// of the final k-th best approximation and offers the positive ones to the
// query's heap. That is often one document, but documents built from one
// template tie by the hundred on bench/'s corpus (25 at the median of a
// novel candidate's), and those share one pass (evalCanonicalAll).
func (g *Segment) rescore(sc *searchScratch, k int) {
	theta, inflate := sc.bar(k), 1+sc.slack
	cand := sc.cand[:0]
	for j, d := range sc.cand {
		if sc.candA[j]*inflate >= theta {
			cand = append(cand, d)
		}
	}
	exact := zeros(&sc.candA, len(cand))
	g.evalCanonicalAll(sc, cand, exact)
	for j, d := range cand {
		if exact[j] > 0 {
			pushMatch(&sc.h, k, Match{Name: g.names[d], Index: int(d), Score: exact[j] / sc.qnorm})
		}
	}
}

// evalCanonicalAll is evalCanonical for the documents docs, ascending, into
// exact (zeroed), term by term: a row's count at every document over its
// norm (rescoreRow, four documents a division; a 0 adds +0, which changes
// nothing), and a sparse list searched for the documents in order, each
// search galloping from where the last one ended. The sums are spent by now,
// so sc.acc holds the documents' norms.
func (g *Segment) evalCanonicalAll(sc *searchScratch, docs []int32, exact []float64) {
	norm := zeros(&sc.acc, len(docs))
	for j, d := range docs {
		norm[j] = g.norm[d]
	}
	for i := range sc.curs {
		cur := &sc.curs[i]
		if cur.row >= 0 {
			rescoreRow(exact, g.row(cur.row), docs, norm, cur.qw)
			continue
		}
		p := 0
		for j, d := range docs {
			q, ok := gallop(cur.docs[p:], d)
			if p += q; ok {
				exact[j] += float64(cur.qw * cur.ws[p])
			}
		}
	}
}

// denseRun adds a run of dense rows to a query's row sums: acc[i] +=
// qs[r]·rows[offs[r]+i] for every row r and every i, in int32 arithmetic
// (which wraps: planDense keeps a span's sums in range). Integer sums are the
// same in any order, so rows go whichever way is fastest: those whose count
// fits an int16 to denseRunBody two at a time (an odd one out is paired with
// itself at count 0), a larger count's row and the last len(acc) mod 32
// slots of every row to denseRunGo. It panics rather than read outside rows:
// the assembly behind it checks nothing.
func denseRun(acc []int32, rows []int16, offs []int, qs []uint32) {
	if len(qs) < len(offs) {
		panic("similarity: denseRun has fewer counts than rows")
	}
	for _, off := range offs {
		if off < 0 || off > len(rows)-len(acc) {
			panic("similarity: denseRun row outside rows")
		}
	}
	const batch = 32 // pairs per call
	var po [2 * batch]int
	var pq [batch]uint32
	body, np, odd := len(acc)&^31, 0, -1
	pair := func(a, b int, q uint32) {
		po[2*np], po[2*np+1], pq[np] = a, b, q
		if np++; np == batch {
			denseRunBody(acc[:body], rows, po[:], pq[:])
			np = 0
		}
	}
	for r, off := range offs {
		switch {
		case qs[r] > math.MaxInt16:
			denseRunGo(acc[:body], rows, offs[r:r+1], qs[r:r+1])
		case odd < 0:
			odd = r
		default:
			pair(offs[odd], off, qs[odd]|qs[r]<<16)
			odd = -1
		}
	}
	if odd >= 0 {
		pair(offs[odd], offs[odd], qs[odd])
	}
	if np > 0 {
		denseRunBody(acc[:body], rows, po[:2*np], pq[:np])
	}
	if body < len(acc) && len(offs) > 0 {
		denseRunGo(acc[body:], rows[body:], offs, qs)
	}
}

// denseRunGo defines what denseRun computes — both pair bodies are tested
// against it — one row at a time.
func denseRunGo(acc []int32, rows []int16, offs []int, qs []uint32) {
	for r, off := range offs {
		q := int32(qs[r])
		for i, c := range rows[off : off+len(acc)] {
			acc[i] += q * int32(c)
		}
	}
}
