//freehw:hotpath

package similarity

// Exact top-k scoring: one pruned routine and one exhaustive accumulator.
//
//   - k == 1 (Best, BestBatch — every audit) on a segment of at least
//     pruneMinDocs documents runs searchPrunedBest, the gather engine
//     below, which skips most of the index on selective queries and asks
//     for the accumulator when it detects that pruning is not paying.
//   - Everything else — k > 1 (TopK), tiny segments, every bail-out — ends
//     in accumulate, the classic accumulator over every posting of every
//     query term, run once per GROUP of queries: searchBatch resolves up
//     to accBatch texts and lets the ones that need the accumulator wait
//     for each other. Sibling completions read mostly the same dense rows,
//     so the pass cuts the documents into tiles of accTile and every
//     waiting query finishes a tile before any moves on — the first pulls
//     a tile of each row in, the rest find it in L2, and each query's 8 KB
//     of accumulator stays in L1. A document belongs to one tile, and there
//     a query adds its lists to it in canonical order exactly as it would
//     over the whole range, so which documents share a tile and which
//     queries share a pass change no sum. Within a tile, dense lists
//     adjacent in canonical order are added as one run (axpyRun) with the
//     accumulator held in registers; the first sparse list ends the run, so
//     which rows share a run reorders no document's adds either. A lone
//     query takes one tile of every document: short tiles cost the hardware
//     prefetcher its streams and buy it nothing.
//
// The gather engine is 7x faster than the accumulator on diverse
// near-duplicates (75 against 511 µs at 16 000 documents), 3x on bench/'s
// homogeneous corpus (≈ 100 against ≈ 340 µs at 8 000) and within 10% of it
// where it bails, so it stays; a k > 1 MaxScore DAAT engine lost to the
// accumulator in every cell and was deleted in PR 13. ROADMAP's decision
// records have the tables; bench/README.md has current numbers
// (similarity.topk10_us, best_neardup_us, best_novel_us,
// bestbatch_us_per_cand).
//
// Why a special engine at all: similarity here is tf-only cosine — there
// is no idf — so corpus-universal terms (Verilog keywords, punctuation)
// carry enormous upper bounds. Classic MaxScore, which keeps the
// highest-bound terms essential, would surface every document as a
// candidate and prune nothing on whole-file audit queries. The gather
// engine therefore splits the query's posting lists three ways and scores
// by gathering rather than by cursor merging:
//
//   - Dense lists — at least half the segment's documents, 2·df >= docs,
//     the one definition Segment.layout applies, which stores each of them
//     only doc-indexed (Segment.dws, +0 for a document outside the list) —
//     never generate candidates, and are bounded together, not term by
//     term: by Cauchy–Schwarz they give document d at most
//     ‖q_dense‖·dnorm[d], the norm of the query's counts over its dense
//     lists times the norm seal keeps of d's weights over all of them. A
//     sum of per-term maxima charges every keyword at the weight of the
//     document fullest of it: on bench/'s corpus it reads 1.03 of the query
//     norm for a near-duplicate whose best score is 0.98, which makes the
//     audit the paper's verdict exists for look hopeless. The norm bound
//     reads 0.80 there (0.75 against 0.82 for a novel candidate, whose best
//     is 0.60 — hopeless either way) and costs one float per document.
//   - The cheapest sparse lists — ordered by upper bound per posting, the
//     absorption order that buys the most skipped postings per unit of
//     threshold budget — are absorbed into a non-essential prefix while
//     their summed bounds plus the largest dense bound stay strictly below
//     the threshold. Their postings are never read.
//   - The remaining essential sparse lists are streamed into a
//     per-document accumulator (the gather). Each touched document is
//     then bounded by dense bound + absorbed-prefix bound + its exact
//     gathered sum. The partition is progressive: absorbing right up to
//     the threshold leaves every document that shares a few lines with the
//     match straddling it, so while more than a handful of touched
//     documents do, the absorbed budget is halved and the lists that frees
//     are streamed too. The rule looks at the candidates because a fixed
//     "absorb half the budget" bought the same near-duplicate and cost the
//     diverse 16 000-document corpus 57 → 155 µs (ISSUE 22's sizing).
//   - Survivors are evaluated fully — every query term, in canonical
//     query order (first appearance in the query — a property of the
//     query alone, so the same order in every segment), the same order
//     the exhaustive accumulator uses — with early abandonment against
//     canonical-order tail bounds. On a selective audit that is one
//     document: the match.
//   - Documents touched by no essential list are never visited: their
//     bound is at most the largest dense bound plus the absorbed prefix,
//     which the partition holds strictly below a threshold that only rises.
//
// The threshold that powers all of this is primed before scoring starts
// (see searchPrunedBest): near-duplicate queries carry nearly-unique
// "pointer" terms that vote for the matching document, whose exact score
// — accumulated in canonical order, so bit-identical to what the main
// pass would compute — is pushed into the heap up front.
//
// Exactness is non-negotiable here (the serving layer's golden fixtures
// and the offline/online byte-equality tests pin scores bit-for-bit), and
// rests on two invariants:
//
//  1. Bit-identical sums. A fully evaluated document accumulates its dot
//     product in exactly the order the exhaustive accumulator uses, so the
//     kept scores are not merely close — they are the same float64s.
//  2. Conservative bounds. Upper bounds are inflated and the threshold
//     deflated by a slack factor covering worst-case float64 summation
//     error (bounds and scores are sums in different orders, so exact
//     comparison would be unsound), and a candidate is pruned only when
//     its bound is STRICTLY below the threshold — so only documents
//     provably worse than the best are ever skipped. Ties are never
//     pruned: a tying document always reaches full evaluation, where the
//     heap's lowest-index tie rule (matchWorse) decides, independent of
//     visit order. That strictness is also what makes threshold priming
//     sound: pushing a real document's exact score early can never cause
//     a different document with an equal or better score to be skipped.
//
// Worst case, the segment is so homogeneous that no threshold separates
// documents (every doc scores within the bounds' slack of the best — the
// adversarial case for any exact pruner). The gather engine detects that
// pruning is not paying — the best known score does not clear the largest
// dense bound, or more than half the postings would be streamed, or a
// quarter have been read — and falls back to the exhaustive accumulator,
// bounding the regression to a small constant factor while keeping the
// large wins on selective workloads. A novel candidate — 97% of what a
// clean model sends — always ends there, so the accumulator is the audit: a
// scatter per sparse list and one axpyRun per run of dense rows (SSE2 on
// amd64). Adding q·(+0) to a non-negative sum is an exact no-op, so a row's
// zeros cost bandwidth and no bits.

import (
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

	// accBatch queries at most share one accumulator pass, accTile documents
	// at a time: a tile of every dense row a novel query adds (38 on bench/'s
	// corpus: 300 KB) stays in L2 until the last query of the group has added
	// it. Tiles of 512 and 2 048 measured within noise of 1 024; 256 was ~12%
	// slower.
	accBatch = 16
	accTile  = 1024

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
// Segment.dense (-1 otherwise), ws is its doc-indexed row of Segment.dws and
// docs is nil: the row is the list. There is no position here: the gather
// engine reads lists by streaming, by doc-indexed access (dense) or by
// binary search, and the accumulator keeps where each sparse list stopped at
// the last tile edge in searchScratch.pos.
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
// on amd64, which never fuses), and the same ones axpyRun's separate MULPD
// and ADDPD produce.

// searchScratch holds one query's state from resolution to result, pooled
// across queries: its cursors, the gather engine's work arrays, and what the
// accumulator carries from tile to tile.
type searchScratch struct {
	qts   []uint64
	curs  []pruneCursor
	ord   []int32
	touch []int32
	pref  []float64
	tail  []float64
	prime []int32
	h     matchHeap
	qnorm float64

	acc  []float64 // the gather engine's per-document sums, then one tile of the accumulator's
	offs []int     // dense cursors in canonical order: where each one's row starts in dws
	qs   []float64 // and their query counts
	pos  []int32   // per cursor: the first posting of a sparse list at or past the current tile
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

// denseRun fills sc.offs and sc.qs for the dense cursors, in canonical
// order: nDocs slots per row of Segment.dws.
func (sc *searchScratch) denseRun(nDocs int) {
	offs, qs := sc.offs[:0], sc.qs[:0]
	for i := range sc.curs {
		if cur := &sc.curs[i]; cur.row >= 0 {
			offs = append(offs, int(cur.row)*nDocs)
			qs = append(qs, cur.qw)
		}
	}
	sc.offs, sc.qs = offs, qs
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

// searchTopK is searchBatch for one text.
func (g *Segment) searchTopK(text string, k int, mode int, dead []uint64) []Match {
	var out [1][]Match
	g.searchBatch([]string{text}, k, mode, dead, out[:])
	return out[0]
}

// searchBatch is the one scoring entry behind Best, TopK and BestBatch:
// out[i] receives the exact top-k matches of texts[i] over the segment's
// live documents, best first, indices segment-local (nil when the query or
// the segment is empty). At most accBatch texts; out is the caller's, so a
// single query allocates nothing a batch needs. mode selects the engine
// (searchAuto: the gather engine for k == 1 on at least pruneMinDocs
// documents, the accumulator for everything else); every choice returns
// bit-identical results. Each query resolves and runs the gather engine on
// its own; the ones that need the accumulator — k > 1, tiny segments, every
// bail-out — wait, and share one pass (see accumulate).
//
// dead is the snapshot's tombstone bitmap for this segment: dead documents
// never reach the heap AND never set the pruning threshold (a dead doc's
// score raising theta could wrongly prune a live doc), so the result is
// bit-identical to scoring a segment that never contained them. dead may
// be nil (no tombstones — the common case, zero overhead on the scan
// loops beyond one predictable branch).
func (g *Segment) searchBatch(texts []string, k int, mode int, dead []uint64, out [][]Match) {
	clear(out)
	nDocs := len(g.names)
	if k <= 0 || nDocs == 0 {
		return
	}
	k = min(k, nDocs)
	usePruned := k == 1 && (mode == searchPruned || (mode == searchAuto && nDocs >= pruneMinDocs))
	statsOn := pruneStatsOn.Load()
	var wait [accBatch]*searchScratch
	var slot [accBatch]int
	nWait := 0
	for ti, text := range texts {
		sc := scratchPool.Get().(*searchScratch)
		qts, qnorm := g.resolveQuery(text, sc.qts)
		sc.qts = qts[:0]
		if qnorm == 0 {
			scratchPool.Put(sc)
			continue
		}
		sc.qnorm = qnorm

		// Build cursors in canonical query order (qts is in the query's
		// first-appearance order): the canonical evaluation order. Terms with
		// empty posting lists cannot contribute and are dropped — dropping
		// preserves the relative order, so per-document sums stay canonical.
		curs := sc.curs[:0]
		totalPostings := 0
		for _, qt := range qts {
			id := qtermID(qt)
			cur := g.list(id)
			if cur.df == 0 {
				continue
			}
			cur.qw, cur.ub = qtermW(qt), qtermW(qt)*g.tmax[id]
			curs = append(curs, cur)
			totalPostings += int(cur.df)
		}
		sc.curs = curs
		if len(curs) == 0 {
			scratchPool.Put(sc)
			out[ti] = []Match{}
			continue
		}

		sc.h = sc.h[:0]
		if cap(sc.h) < k {
			sc.h = make(matchHeap, 0, k)
		}
		if statsOn {
			pruneCounters.total.Add(uint64(totalPostings))
			if usePruned {
				pruneCounters.queries.Add(1)
			}
		}
		if usePruned && g.searchPrunedBest(sc, totalPostings, statsOn, dead) {
			out[ti] = sc.drain()
			continue
		}
		wait[nWait], slot[nWait] = sc, ti
		nWait++
	}
	if nWait == 0 {
		return
	}
	g.accumulate(wait[:nWait], k, statsOn, dead)
	for i, sc := range wait[:nWait] {
		out[slot[i]] = sc.drain()
	}
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
	tail := sc.tail[:0]
	if cap(tail) < n+1 {
		tail = make([]float64, n+1)
	}
	tail = tail[:n+1]
	tail[n] = 0
	rcum := 0.0
	for i := n - 1; i >= 0; i-- {
		rcum += curs[i].ub
		tail[i] = rcum * inflate
	}
	sc.tail = tail
	return tail
}

// evalCanonical computes document d's exact dot product — every query
// term, in canonical query order, the bit-identical twin of the
// exhaustive accumulator's per-doc sum — without moving any cursor
// position. Dense lists are read at ws[d] (+0, which changes nothing, when
// d is not in the list); the rest binary-search. With theta >= 0 it
// abandons early (reporting abandoned=true) once the partial sum plus the
// canonical tail bound cannot reach theta.
func evalCanonical(curs []pruneCursor, tail []float64, d int32, theta float64) (acc float64, abandoned bool) {
	for i := range curs {
		if curs[i].row >= 0 {
			acc += float64(curs[i].qw * curs[i].ws[d])
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
// or pruning not paying), which the caller runs — for this query alone or
// for a group of them — over the heap as it was left.
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
	// score the documents they name most often. When no pointer lists
	// exist, fall back to seeding from the most selective high-impact
	// lists, which at worst wastes primeBudget evaluations.
	if n > 1 {
		const (
			primeSelDF   = 4   // pointer lists: terms in almost no documents
			primeWideDF  = 128 // fallback seeding pool
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
		var primeDocs [primeBudget]int32
		var cnts [primeBudget]int
		nPrime := 0
		if len(collect) > 0 {
			slices.Sort(collect)
			// Keep the primeBudget docs with the longest runs (= named by
			// the most pointer terms). Replacement is strict-greater, and
			// runs arrive in ascending doc order, so ties keep lower ids —
			// deterministic.
			for i := 0; i < len(collect); {
				j := i + 1
				for j < len(collect) && collect[j] == collect[i] {
					j++
				}
				run := j - i
				if deadBit(dead, collect[i]) {
					i = j // tombstoned doc: must not seed the threshold
					continue
				}
				if nPrime < primeBudget {
					primeDocs[nPrime], cnts[nPrime] = collect[i], run
					nPrime++
				} else {
					mi := 0
					for s := 1; s < primeBudget; s++ {
						if cnts[s] < cnts[mi] {
							mi = s
						}
					}
					if run > cnts[mi] {
						primeDocs[mi], cnts[mi] = collect[i], run
					}
				}
				i = j
			}
		} else {
			for oi := len(ord) - 1; oi >= 0 && nPrime < primeBudget; oi-- {
				cur := &curs[ord[oi]]
				if len(cur.docs) > primeWideDF {
					continue
				}
				for _, d := range cur.docs {
					if nPrime >= primeBudget {
						break
					}
					if deadBit(dead, d) {
						continue
					}
					dup := false
					for _, p := range primeDocs[:nPrime] {
						if p == d {
							dup = true
							break
						}
					}
					if !dup {
						primeDocs[nPrime] = d
						nPrime++
					}
				}
			}
		}
		// Best guess first (descending vote count, ties by lower doc id):
		// the leader alone decides whether pruning is viable, so the
		// hopeless check can run after one evaluation instead of four.
		for i := 1; i < nPrime; i++ {
			d, ct := primeDocs[i], cnts[i]
			j := i
			for j > 0 && (cnts[j-1] < ct || (cnts[j-1] == ct && primeDocs[j-1] > d)) {
				primeDocs[j], cnts[j] = primeDocs[j-1], cnts[j-1]
				j--
			}
			primeDocs[j], cnts[j] = d, ct
		}
		for pi, d := range primeDocs[:nPrime] {
			acc, _ := evalCanonical(curs, tail, d, -1)
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
		av, abandoned := evalCanonical(curs, tail, d, thetaAcc)
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

// binSearchDocs finds d in a sorted doc-id list.
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
	return 0, false
}

// sortSparseByRatio orders cursor indices by ascending upper bound per
// posting (ub/df): the absorption order that buys the most skipped
// postings per unit of threshold budget. Compared via cross-
// multiplication (no division), ties by ascending index — deterministic.
// Insertion sort: n is small and the slice is reused across queries.
func sortSparseByRatio(ord []int32, curs []pruneCursor) {
	less := func(a, b int32) bool {
		ra := curs[a].ub * float64(len(curs[b].docs))
		rb := curs[b].ub * float64(len(curs[a].docs))
		if ra != rb {
			return ra < rb
		}
		return a < b
	}
	for i := 1; i < len(ord); i++ {
		v := ord[i]
		j := i - 1
		for j >= 0 && less(v, ord[j]) {
			ord[j+1] = ord[j]
			j--
		}
		ord[j+1] = v
	}
}

// accumulate is the exhaustive engine: the classic accumulator over every
// posting of every query term — the same adds in the same canonical order as
// ever — folded into each query's heap in ascending doc order (so tie
// resolution matches the gather engine and the historical TopK exactly), for
// up to accBatch queries in one tiled pass over the documents (the package
// comment says why tiles and runs change no sum). A sparse list scatters its
// postings, resuming at each tile where it stopped at the last; a dense one
// adds its row, the +0 slots of documents outside it included, which leaves
// those documents' sums as they were. The gather engine's bail-outs end here
// too; re-pushing the document a size-1 heap already holds is a no-op.
func (g *Segment) accumulate(queries []*searchScratch, k int, statsOn bool, dead []uint64) {
	nDocs := len(g.names)
	tile := accTile
	if len(queries) == 1 {
		tile = nDocs
	}
	for _, sc := range queries {
		zeros(&sc.acc, min(tile, nDocs))
		sc.denseRun(nDocs)
		zeros(&sc.pos, len(sc.curs))
		if statsOn {
			var visited uint64
			for i := range sc.curs {
				visited += uint64(sc.curs[i].df) // postings, not the slots of a dense row
			}
			pruneCounters.visited.Add(visited)
		}
	}
	for lo := 0; lo < nDocs; lo += tile {
		hi := min(lo+tile, nDocs)
		for _, sc := range queries {
			acc := sc.acc[:hi-lo]
			if lo > 0 {
				clear(acc)
			}
			curs, di := sc.curs, 0
			for i := 0; i < len(curs); {
				cur := &curs[i]
				if cur.row >= 0 {
					run := 1
					for i+run < len(curs) && curs[i+run].row >= 0 {
						run++
					}
					axpyRun(acc, g.dws[lo:], sc.offs[di:di+run], sc.qs[di:di+run])
					di += run
					i += run
					continue
				}
				p, qw := int(sc.pos[i]), cur.qw
				docs := cur.docs
				ws := cur.ws[:len(docs)] // one bound, checks eliminated below
				for ; p < len(docs) && int(docs[p]) < hi; p++ {
					acc[int(docs[p])-lo] += float64(qw * ws[p])
				}
				sc.pos[i] = int32(p)
				i++
			}
			if k == 1 {
				// Single-best scan on raw accumulator values: the division by
				// qnorm is monotone, so it only needs to run when the raw maximum
				// improves — and when two raw values round to the same score, the
				// strict comparisons keep the earlier (lower) index, exactly the
				// heap's tie rule, which also settles the tile's best against the
				// earlier tiles'.
				bestRaw, bestScore, bestIdx := 0.0, 0.0, -1
				for i, a := range acc {
					if a > bestRaw {
						if deadBit(dead, int32(lo+i)) {
							continue // tombstoned: must not win or raise the bar
						}
						bestRaw = a
						if s := a / sc.qnorm; s > bestScore {
							bestScore, bestIdx = s, lo+i
						}
					}
				}
				if bestIdx >= 0 {
					pushMatch(&sc.h, 1, Match{Name: g.names[bestIdx], Index: bestIdx, Score: bestScore})
				}
				continue
			}
			for i, a := range acc {
				if a == 0 || deadBit(dead, int32(lo+i)) {
					continue
				}
				pushMatch(&sc.h, k, Match{Name: g.names[lo+i], Index: lo + i, Score: a / sc.qnorm})
			}
		}
	}
}

// axpyRun is acc[i] += qs[r]*rows[offs[r]+i] for every row r of the run in
// order and every i: what a run of dense lists adjacent in canonical order
// adds to one tile of the accumulator. Per slot it performs exactly the
// additions of one row-at-a-time pass, in the same order; the point of taking
// the rows together is that acc is loaded and stored once per run, not per row
// (SSE2 on amd64, the accumulator in registers sixteen slots at a time; the
// Go loop elsewhere). A lone query's rows stream from memory and the pass is
// bound by that bandwidth, which is why nothing wider than SSE2 is used; a
// group's rows come from L2, and there the saved loads and stores are a
// third of the work (BenchmarkAxpyRun). It panics rather than read outside
// rows: the assembly behind it checks nothing.
func axpyRun(acc, rows []float64, offs []int, qs []float64) {
	if len(qs) < len(offs) {
		panic("similarity: axpyRun has fewer counts than rows")
	}
	for _, off := range offs {
		if off < 0 || off > len(rows)-len(acc) {
			panic("similarity: axpyRun row outside rows")
		}
	}
	axpyRunBody(acc, rows, offs, qs)
}

// axpyRunGo defines what axpyRun computes — the assembly on amd64 is tested
// against it bit for bit — and is its body everywhere else.
func axpyRunGo(acc, rows []float64, offs []int, qs []float64) {
	for r, off := range offs {
		q := qs[r]
		for i, w := range rows[off : off+len(acc)] {
			acc[i] += float64(q * w)
		}
	}
}
