// Package vcache is a content-hash keyed cache for the per-file analyses
// the curation funnel repeats: the vlog syntax verdict, the header/body
// copyright scans, and the MinHash/LSH dedup artifacts. Verdicts are pure
// functions of file content (plus, for dedup artifacts, the dedup Options),
// so memoizing them by content hash is safe across funnel variants, across
// repeated corpora, and across whole curation runs — the dominant cost of
// re-curating a corpus (pprof: ~30% syntax filter, ~16% MinHash signing)
// collapses to a hash lookup on the second pass.
//
// A Store shards its entry map by key so concurrent funnel workers do not
// serialize on one lock. An Entry is one small object per content: the
// audit memo inline, the curation analyses behind a pointer allocated on
// first use, each under its own sync.Once — the first caller computes,
// everyone else waits, and a value is never computed twice no matter how
// many funnel variants share the store.
//
// Stores are unbounded by default; SetBudget bounds the measured resident
// bytes with a two-generation clock (segmented-LRU) eviction policy, so a
// long-lived server curating many disjoint corpora holds its working set
// hot while one-shot sweeps wash through probation. Eviction only forgets
// memoized verdicts — recomputation yields identical values — so curation
// output is byte-identical at any budget.
package vcache

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"unsafe"

	"freehw/internal/dedup"
	"freehw/internal/license"
	"freehw/internal/similarity"
	"freehw/internal/vlog"
)

// Key identifies file content (SHA-256).
type Key [32]byte

// KeyOf hashes file content. The byte view is a zero-copy alias of the
// string — safe because Sum256 neither mutates nor retains its input —
// so hashing a 2 KB candidate does not allocate a 2 KB throwaway copy on
// every audit.
func KeyOf(content string) Key {
	if len(content) == 0 {
		return sha256.Sum256(nil)
	}
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(content), len(content)))
}

// Entry is the only per-content object: the clock bookkeeping its store
// keeps under the shard lock, the audit best-match memo, and a pointer to
// the curation analyses, nil until one of them is first asked for — an
// entry that was only ever audited never pays for them. The entry from
// NewEntry works standalone (no Store) as a pure per-file memo, as does a
// stored entry its store has since evicted.
type Entry struct {
	// Set on insert, then guarded by the owning shard's lock.
	key  Key
	st   *Store // nil for a standalone entry
	cost int64  // bytes charged to the shard for this entry

	an atomic.Pointer[analyses]

	// Audit best-match memo. Unlike the analyses, an audit verdict depends
	// on the corpus index as well as the content, so the memo is keyed by
	// the snapshot version it was computed under: publishing a new corpus
	// invalidates it, and a stale in-flight batch can never clobber a
	// verdict computed against a newer snapshot.
	bmMu  sync.Mutex
	bmVer uint64
	bm    similarity.Match
	bmOK  bool

	ref bool // shard lock: referenced since the clock hand last passed
	hot bool // shard lock: protected generation (survived a sweep with a hit)
}

// analyses are the memoized curation verdicts, pure functions of content
// (plus, for prep, the store's dedup Options).
type analyses struct {
	prepOnce sync.Once
	prep     dedup.Prepared

	hdrOnce sync.Once
	hdr     license.ScanResult

	bodyOnce sync.Once
	body     []string

	synOnce sync.Once
	synBad  bool
}

// entryBytes is what a resident entry weighs before any analysis exists:
// the Entry (its size is a malloc size class) plus the 74 bytes measured
// for its map cell — a 32-byte key and a pointer at Go's load factor — and
// its share of the clock ring. analysesBytes is the analyses struct, also
// a size class. TestFootprint holds both to what the heap reports.
const (
	entryBytes    = int64(unsafe.Sizeof(Entry{})) + 74
	analysesBytes = int64(unsafe.Sizeof(analyses{}))
)

// NewEntry returns a standalone entry (per-file memoization without a
// store, the cache-disabled mode of the curation funnel).
func NewEntry() *Entry { return &Entry{} }

// lazy returns the entry's analyses, allocating them on first use. The
// loop has one Load site: a goroutine that loses the CompareAndSwap goes
// round and loads the winner's struct, so every caller shares one set of
// sync.Onces and each analysis is still computed once.
func (e *Entry) lazy() *analyses {
	for {
		if a := e.an.Load(); a != nil {
			return a
		}
		if e.an.CompareAndSwap(nil, new(analyses)) {
			e.charge(analysesBytes)
		}
	}
}

// charge adds n bytes to what the entry's shard accounts for it, sweeping
// the shard if that takes it over budget. A standalone entry has no store
// to charge, and one the store has evicted (an Extraction or an in-flight
// request still holds it) is no longer anyone's resident bytes.
func (e *Entry) charge(n int64) {
	if e.st == nil {
		return
	}
	sh := e.st.shardOf(e.key)
	sh.mu.Lock()
	if sh.m[e.key] == e {
		e.cost += n
		e.st.grow(sh, n)
	}
	sh.mu.Unlock()
}

// Prepared returns the memoized dedup artifacts, computing them with p on
// first use. p must be built from the dedup Options the entry's store is
// keyed by (any compatible Preparer computes identical artifacts, so which
// caller wins the race does not matter).
func (e *Entry) Prepared(content string, p *dedup.Preparer) dedup.Prepared {
	a := e.lazy()
	a.prepOnce.Do(func() {
		a.prep = p.Prepare(content)
		e.charge(8 * int64(len(a.prep.Shingles)+len(a.prep.Bands)))
	})
	return a.prep
}

// HeaderScan returns the memoized copyright screen of the header comment.
// The Reasons slice is a defensive copy: entries are shared across funnel
// variants and goroutines, so a caller that sorts or appends must not be
// able to corrupt every future hit.
func (e *Entry) HeaderScan(content string) license.ScanResult {
	a := e.lazy()
	a.hdrOnce.Do(func() { a.hdr = license.ScanHeader(vlog.HeaderComment(content)) })
	res := a.hdr
	if res.Reasons != nil {
		res.Reasons = append([]string(nil), res.Reasons...)
	}
	return res
}

// BodyHits returns the memoized sensitive-content findings of the body,
// as a defensive copy (see HeaderScan).
func (e *Entry) BodyHits(content string) []string {
	a := e.lazy()
	a.bodyOnce.Do(func() { a.body = license.ScanBody(content) })
	if a.body == nil {
		return nil
	}
	return append([]string(nil), a.body...)
}

// SyntaxBad returns the memoized syntax-filter verdict, vlog.Check's: the
// parser's grammar run without building an AST.
func (e *Entry) SyntaxBad(content string) bool {
	a := e.lazy()
	a.synOnce.Do(func() { a.synBad = vlog.Check(content) != nil })
	return a.synBad
}

// SyntaxErr is SyntaxBad with the syntax error: on first use the one check
// that decides the verdict also gives the message, and a memoized bad
// verdict checks once more to get it back.
func (e *Entry) SyntaxErr(content string) (err error) {
	a := e.lazy()
	a.synOnce.Do(func() { err = vlog.Check(content); a.synBad = err != nil })
	if a.synBad && err == nil { // decided by an earlier call
		err = vlog.Check(content)
	}
	return err
}

// CachedBestMatch returns the memoized best corpus match for this content
// under snapshot version ver, if one was stored. A memo from any other
// version misses: the verdict is a function of (content, index), and only
// the version identifies the index.
func (e *Entry) CachedBestMatch(ver uint64) (similarity.Match, bool) {
	e.bmMu.Lock()
	defer e.bmMu.Unlock()
	if e.bmOK && e.bmVer == ver {
		return e.bm, true
	}
	return similarity.Match{}, false
}

// StoreBestMatch records the best-match verdict computed under snapshot
// version ver. Writes from snapshots older than the resident memo are
// dropped, so a slow batch finishing after a corpus swap cannot roll the
// entry back to a stale index's verdict.
func (e *Entry) StoreBestMatch(ver uint64, m similarity.Match) {
	e.bmMu.Lock()
	defer e.bmMu.Unlock()
	if e.bmOK && e.bmVer > ver {
		return
	}
	e.bmVer, e.bm, e.bmOK = ver, m, true
}

// storeShards is the lock-stripe count; a power of two so shard selection
// is a mask. 64 stripes keep contention negligible at any realistic core
// count without bloating small stores.
const storeShards = 64

type shard struct {
	mu    sync.Mutex
	m     map[Key]*Entry
	ring  []*Entry // clock order (insertion order, hand wraps); nil = tombstone
	hand  int
	dead  int // tombstone count in ring
	bytes int64
}

// evict runs the two-generation clock until the shard fits its budget.
// Probationary entries (hot=false) are evicted on their first unreferenced
// visit; referenced entries get promoted to the protected generation, which
// must be demoted once before eviction — a segmented-LRU approximation
// that keeps the funnel's re-scanned entries resident while one-shot
// corpus sweeps wash through probation. Each visit strictly downgrades an
// entry (ref→clear, hot→demote, cold→evict), so the sweep terminates.
//
// Evicted entries become nil tombstones (O(1)); the ring compacts in one
// pass once tombstones outnumber live entries, keeping steady-state inserts
// amortized O(1) instead of copying the ring tail per eviction.
func (sh *shard) evict(budget int64, evictions *atomic.Int64) {
	for sh.bytes > budget && len(sh.ring) > sh.dead {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		switch {
		case e == nil: // tombstone
		case e.ref:
			e.ref = false
			e.hot = true
		case e.hot:
			e.hot = false
		default:
			delete(sh.m, e.key)
			sh.ring[sh.hand] = nil
			sh.dead++
			sh.bytes -= e.cost
			evictions.Add(1)
		}
		sh.hand++
	}
	if sh.dead > len(sh.ring)-sh.dead {
		sh.compact()
	}
}

// compact drops tombstones in one pass, preserving clock order and the
// hand's position relative to surviving entries.
func (sh *shard) compact() {
	kept := sh.ring[:0]
	hand := 0
	for i, e := range sh.ring {
		if e == nil {
			continue
		}
		if i < sh.hand {
			hand++
		}
		kept = append(kept, e)
	}
	// Zero the freed tail so evicted entries are collectable.
	clear(sh.ring[len(kept):])
	sh.ring = kept
	sh.hand = hand
	sh.dead = 0
}

// Store is a sharded content-hash -> Entry map that accounts what its
// entries weigh and holds them to an optional budget. All entries' dedup
// artifacts are computed under the store's dedup Options; analyses that do
// not depend on those options (scans, syntax) are options-agnostic.
//
// Eviction only ever forgets memoized verdicts — a later lookup recomputes
// them from content — so results are byte-identical at any budget; only
// the hit rate changes. The determinism tests pin this across unbounded,
// tight, and effectively-zero budgets.
type Store struct {
	opt    dedup.Options
	budget atomic.Int64 // total byte budget; <= 0 means unbounded
	shards [storeShards]shard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// prepKey reduces dopt to the fields cached dedup artifacts actually
// depend on: Threshold only affects candidate acceptance in the index,
// never the shingles or band hashes, so runs differing only in
// threshold (a natural ablation sweep) share one store.
func prepKey(dopt dedup.Options) dedup.Options {
	n := dopt.Normalized()
	n.Threshold = 0
	return n
}

// NewStore builds an empty, unbounded store for dopt. Use SetBudget to
// bound it.
func NewStore(dopt dedup.Options) *Store {
	s := &Store{opt: prepKey(dopt)}
	for i := range s.shards {
		s.shards[i].m = map[Key]*Entry{}
	}
	return s
}

// SetBudget bounds the store's accounted resident bytes; budget <= 0
// removes the bound. A tighter budget takes effect immediately (resident
// entries are swept down to fit) and on every subsequent insertion.
func (s *Store) SetBudget(budget int64) {
	s.budget.Store(budget)
	if budget <= 0 {
		return
	}
	per := budget / storeShards
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.evict(per, &s.evictions)
		sh.mu.Unlock()
	}
}

// Budget returns the current byte budget (<= 0 means unbounded). Only tests
// call it, cmd/freeset-curate's among them, which is why it is exported.
func (s *Store) Budget() int64 { return s.budget.Load() }

// Options returns the reduced, normalized dedup options the store is
// keyed by (Threshold is zeroed: cached artifacts do not depend on it).
func (s *Store) Options() dedup.Options { return s.opt }

// Compatible reports whether entries cached in s are valid for a funnel
// running with dopt — i.e. whether both resolve to the same artifact-
// relevant dedup parameters.
func (s *Store) Compatible(dopt dedup.Options) bool { return s.opt == prepKey(dopt) }

func (s *Store) shardOf(k Key) *shard { return &s.shards[k[0]&(storeShards-1)] }

// grow charges sh n more bytes and, when the store is bounded, sweeps it
// back under its share of the budget. The caller holds sh.mu.
func (s *Store) grow(sh *shard, n int64) {
	sh.bytes += n
	if b := s.budget.Load(); b > 0 {
		sh.evict(b/storeShards, &s.evictions)
	}
}

// Entry returns the entry for content, creating it on first sight. A hit
// marks the entry referenced for the clock; a miss inserts into probation
// and, when the store is over budget, sweeps the shard back under its
// share. An evicted entry that is still referenced by an Extraction keeps
// working as a standalone memo — eviction only severs future sharing.
func (s *Store) Entry(content string) *Entry {
	k := KeyOf(content)
	sh := s.shardOf(k)
	sh.mu.Lock()
	e, ok := sh.m[k]
	if ok {
		e.ref = true
	} else {
		e = &Entry{key: k, st: s, cost: entryBytes}
		sh.m[k] = e
		sh.ring = append(sh.ring, e)
		s.grow(sh, e.cost)
	}
	sh.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e
}

// Len returns the number of distinct contents resident. Like Stats, it
// is weakly consistent: exact only in quiescence, under load a monitoring
// figure, never a linearizable snapshot.
func (s *Store) Len() int { return s.Stats().Entries }

// Stats reports lookup traffic and residency.
type Stats struct {
	Hits, Misses int64
	Entries      int
	// Bytes is what the resident entries weigh: entryBytes each, plus the
	// analyses and dedup artifacts of those that materialised them.
	Bytes int64
	// Evictions counts entries dropped by the budget clock.
	Evictions int64
}

// Stats returns a snapshot of the store's traffic counters.
//
// The snapshot is weakly consistent, not a point-in-time view: the atomic
// counters are read before the per-shard walk, and each shard is summed
// under its own lock while the others keep moving, so concurrent Entry and
// eviction traffic can be double-counted or missed. Invariants callers may
// rely on: every field is non-negative, Entries/Bytes never exceed what
// the store has ever admitted, and once the store is quiescent Stats
// agrees exactly with the final contents. Callers must not expect
// Hits+Misses to equal the Entry calls observed at any single instant, nor
// Entries to match a Len() racing with writers.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.m)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// sharedStores is the process-wide registry: one store per normalized dedup
// Options, so every curation run over the same parameters shares verdicts.
var (
	sharedMu     sync.Mutex
	sharedStores = map[dedup.Options]*Store{}
)

// Shared returns the process-wide store for dopt, creating it on first use.
// Repeated curation runs with the same artifact-relevant dedup parameters
// (threshold excluded) hit the same store, which is what makes re-curating
// a corpus (or curating overlapping corpora) cheap.
func Shared(dopt dedup.Options) *Store {
	key := prepKey(dopt)
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if s, ok := sharedStores[key]; ok {
		return s
	}
	s := NewStore(key)
	sharedStores[key] = s
	return s
}

// ResetShared drops every process-wide store (tests, or servers that want
// a hard corpus boundary; for a standing memory bound prefer SetBudget on
// the shared store).
func ResetShared() {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	sharedStores = map[dedup.Options]*Store{}
}
