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
// serialize on one lock. Entries memoize each analysis with a sync.Once per
// field: the first caller computes, everyone else waits, and a value is
// never computed twice no matter how many funnel variants share the store.
//
// Stores are unbounded by default; SetBudget bounds approximate resident
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

// Entry memoizes every cached analysis of one file content. The zero-ish
// entry from NewEntry works standalone (no Store) as a pure per-file memo.
type Entry struct {
	prepOnce sync.Once
	prep     dedup.Prepared

	hdrOnce sync.Once
	hdr     license.ScanResult

	bodyOnce sync.Once
	body     []string

	synOnce sync.Once
	synBad  bool

	// Audit best-match memo. Unlike the analyses above, an audit verdict
	// depends on the corpus index as well as the content, so the memo is
	// keyed by the snapshot version it was computed under: publishing a
	// new corpus invalidates it, and a stale in-flight batch can never
	// clobber a verdict computed against a newer snapshot.
	bmMu  sync.Mutex
	bmVer uint64
	bmOK  bool
	bm    similarity.Match
}

// NewEntry returns a standalone entry (per-file memoization without a
// store, the cache-disabled mode of the curation funnel).
func NewEntry() *Entry { return &Entry{} }

// Prepared returns the memoized dedup artifacts, computing them with p on
// first use. p must be built from the dedup Options the entry's store is
// keyed by (any compatible Preparer computes identical artifacts, so which
// caller wins the race does not matter).
func (e *Entry) Prepared(content string, p *dedup.Preparer) dedup.Prepared {
	e.prepOnce.Do(func() { e.prep = p.Prepare(content) })
	return e.prep
}

// HeaderScan returns the memoized copyright screen of the header comment.
// The Reasons slice is a defensive copy: entries are shared across funnel
// variants and goroutines, so a caller that sorts or appends must not be
// able to corrupt every future hit.
func (e *Entry) HeaderScan(content string) license.ScanResult {
	e.hdrOnce.Do(func() { e.hdr = license.ScanHeader(vlog.HeaderComment(content)) })
	res := e.hdr
	if res.Reasons != nil {
		res.Reasons = append([]string(nil), res.Reasons...)
	}
	return res
}

// BodyHits returns the memoized sensitive-content findings of the body,
// as a defensive copy (see HeaderScan).
func (e *Entry) BodyHits(content string) []string {
	e.bodyOnce.Do(func() { e.body = license.ScanBody(content) })
	if e.body == nil {
		return nil
	}
	return append([]string(nil), e.body...)
}

// SyntaxBad returns the memoized syntax-filter verdict. The verdict is
// computed through vlog.CheckFast: the streaming QuickCheck pass decides
// the common well-formed case, the full parser everything else.
func (e *Entry) SyntaxBad(content string) bool {
	e.synOnce.Do(func() { e.synBad = vlog.CheckFast(content) != nil })
	return e.synBad
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

// slotOverhead approximates the fixed bytes an entry costs beyond its
// artifacts: the Entry struct, its map cell, and the clock-ring slot.
const slotOverhead = 512

// entryCost approximates an entry's resident bytes. Cached artifacts scale
// with the content (the shingle set holds one hash per unique shingle, the
// signature and band hashes are fixed, scans are small), so content length
// plus a fixed overhead is a faithful — deliberately approximate — account.
func entryCost(contentLen int) int64 { return slotOverhead + int64(contentLen) }

// slot is one cached entry plus its clock-eviction bookkeeping, guarded by
// the owning shard's lock.
type slot struct {
	e    *Entry
	key  Key
	cost int64
	ref  bool // referenced since the clock hand last passed
	hot  bool // protected generation (survived at least one sweep with a hit)
}

type shard struct {
	mu    sync.Mutex
	m     map[Key]*slot
	ring  []*slot // clock order (insertion order, hand wraps); nil = tombstone
	hand  int
	dead  int // tombstone count in ring
	bytes int64
}

// evict runs the two-generation clock until the shard fits its budget.
// Probationary slots (hot=false) are evicted on their first unreferenced
// visit; referenced slots get promoted to the protected generation, which
// must be demoted once before eviction — a segmented-LRU approximation
// that keeps the funnel's re-scanned entries resident while one-shot
// corpus sweeps wash through probation. Each visit strictly downgrades a
// slot (ref→clear, hot→demote, cold→evict), so the sweep terminates.
//
// Evicted slots become nil tombstones (O(1)); the ring compacts in one
// pass once tombstones outnumber live slots, keeping steady-state inserts
// amortized O(1) instead of copying the ring tail per eviction.
func (sh *shard) evict(budget int64, evictions *atomic.Int64) {
	for sh.bytes > budget && len(sh.ring) > sh.dead {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		sl := sh.ring[sh.hand]
		switch {
		case sl == nil: // tombstone
			sh.hand++
		case sl.ref:
			sl.ref = false
			sl.hot = true
			sh.hand++
		case sl.hot:
			sl.hot = false
			sh.hand++
		default:
			delete(sh.m, sl.key)
			sh.ring[sh.hand] = nil
			sh.dead++
			sh.hand++
			sh.bytes -= sl.cost
			evictions.Add(1)
		}
	}
	if sh.dead > len(sh.ring)-sh.dead {
		sh.compact()
	}
}

// compact drops tombstones in one pass, preserving clock order and the
// hand's position relative to surviving slots.
func (sh *shard) compact() {
	kept := sh.ring[:0]
	hand := 0
	for i, sl := range sh.ring {
		if sl == nil {
			continue
		}
		if i < sh.hand {
			hand++
		}
		kept = append(kept, sl)
	}
	// Zero the freed tail so evicted entries are collectable.
	for i := len(kept); i < len(sh.ring); i++ {
		sh.ring[i] = nil
	}
	sh.ring = kept
	sh.hand = hand
	sh.dead = 0
}

// Store is a sharded content-hash -> Entry map with approximate byte
// accounting and an optional budget. All entries' dedup artifacts are
// computed under the store's dedup Options; analyses that do not depend on
// those options (scans, syntax) are options-agnostic.
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
// never the shingles/signature/band hashes, so runs differing only in
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
		s.shards[i].m = map[Key]*slot{}
	}
	return s
}

// SetBudget bounds the store's approximate resident bytes; budget <= 0
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

// Budget returns the current byte budget (<= 0 means unbounded).
func (s *Store) Budget() int64 { return s.budget.Load() }

// Options returns the reduced, normalized dedup options the store is
// keyed by (Threshold is zeroed: cached artifacts do not depend on it).
func (s *Store) Options() dedup.Options { return s.opt }

// Compatible reports whether entries cached in s are valid for a funnel
// running with dopt — i.e. whether both resolve to the same artifact-
// relevant dedup parameters.
func (s *Store) Compatible(dopt dedup.Options) bool { return s.opt == prepKey(dopt) }

// Entry returns the entry for content, creating it on first sight. A hit
// marks the slot referenced for the clock; a miss inserts into probation
// and, when the store is over budget, sweeps the shard back under its
// share. An evicted entry that is still referenced by an Extraction keeps
// working as a standalone memo — eviction only severs future sharing.
func (s *Store) Entry(content string) *Entry {
	k := KeyOf(content)
	sh := &s.shards[k[0]&(storeShards-1)]
	sh.mu.Lock()
	sl, ok := sh.m[k]
	var e *Entry
	if ok {
		sl.ref = true
		e = sl.e
	} else {
		e = &Entry{}
		sl = &slot{e: e, key: k, cost: entryCost(len(content))}
		sh.m[k] = sl
		sh.ring = append(sh.ring, sl)
		sh.bytes += sl.cost
		if b := s.budget.Load(); b > 0 {
			sh.evict(b/storeShards, &s.evictions)
		}
	}
	sh.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e
}

// Len returns the number of distinct contents seen.
//
// Like Stats, Len is weakly consistent: shards are counted one at a time
// under their own locks, so concurrent Get/Set/eviction traffic can be
// double-counted or missed across the walk. The result is exact only in
// quiescence; under load it is a monitoring figure, never a linearizable
// snapshot.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Stats reports lookup traffic and residency.
type Stats struct {
	Hits, Misses int64
	Entries      int
	// Bytes is the approximate resident size (entryCost accounting).
	Bytes int64
	// Evictions counts entries dropped by the budget clock.
	Evictions int64
}

// Stats returns a snapshot of the store's traffic counters.
//
// The snapshot is weakly consistent, not a point-in-time view: the atomic
// counters are read before the per-shard walk, and each shard is summed
// under its own lock while the others keep moving. Invariants callers may
// rely on: every field is non-negative, Entries/Bytes never exceed what
// the store has ever admitted, and once the store is quiescent Stats
// agrees exactly with the final contents. Callers must not expect
// Hits+Misses to equal the Get calls observed at any single instant, nor
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
