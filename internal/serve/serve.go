// Package serve exposes the curation pipeline as an online audit service —
// the same internal/pipeline stages the offline funnel runs, behind a
// versioned HTTP surface:
//
//	POST /v1/audit       — §III-A infringement verdict for one candidate
//	                       (cosine vs the protected corpus, violation at
//	                       threshold 0.8)
//	POST /v1/audit/batch — many candidates in one deduplicated BestBatch
//	                       index pass
//	POST /v1/filter      — run any stage subset (license, dedup,
//	                       copyright, syntax, similarity) over a candidate
//	                       batch; returns pipeline Verdict envelopes
//	POST /v1/syntax      — curation syntax filter (streaming QuickCheck,
//	                       full parser fallback)
//	POST /v1/scan        — per-file copyright screen (header indicators +
//	                       body key-material needles)
//	POST /v1/corpus      — upload + curate a corpus (JSON or streaming
//	                       NDJSON), build the next index outside the
//	                       publish lock, publish atomically
//	GET  /v1/stats       — traffic (sliding-window qps, queue depth),
//	                       latency percentiles, cache counters
//
// The legacy unversioned paths (/audit, /syntax, /scan, /corpus, /stats)
// are aliases of the same handlers and return byte-identical bodies. All
// non-2xx replies share one structured JSON error envelope (ErrorResponse)
// — including the mux-level 404 and the 429 + Retry-After shed response.
// GET /v1/healthz reports liveness; GET /v1/readyz reports readiness
// (200 only after snapshot replay completes and before draining starts).
//
// With Config.Store set the service is durable: every publish is saved
// through internal/snapstore — crash-safely, before the new snapshot
// starts serving — and NewServer replays the last good version on boot,
// so a restart resumes serving the same corpus at the same version with
// byte-identical verdicts. POST /v1/corpus?version=N republishes a
// retained historical version (point-in-time rollback).
//
// The serving core is an immutable similarity.Snapshot swapped RCU-style
// through an atomic pointer: corpus uploads build the next index off to
// the side — outside the publish lock, so a huge upload never delays a
// concurrent publish — seal it, and publish it in one pointer store, so
// in-flight audits keep answering against whichever snapshot they loaded
// and never observe a half-built index. Audit requests funnel through a
// bounded queue into a micro-batching dispatcher (one snapshot load and
// one deduplicated index pass per batch); when the queue is full the
// service sheds load with 429 instead of stacking goroutines. Verdicts are
// memoized across requests in a shared vcache.Store keyed by content
// hash — and, for audits, by the snapshot version they were computed
// under — so resampled candidates cost a hash lookup.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"freehw/internal/curation"
	"freehw/internal/failpoint"
	"freehw/internal/gitsim"
	"freehw/internal/license"
	"freehw/internal/pipeline"
	"freehw/internal/similarity"
	"freehw/internal/snapstore"
	"freehw/internal/vcache"
	"freehw/internal/vlog"
)

// Failpoints of the serving layer's crash-relevant boundaries, recovery-
// tested alongside the snapstore write path.
var (
	// FPBeforeSwap fires after a publish is durable on disk but before the
	// snapshot pointer swap: a crash here loses the response, not the data
	// — the restarted server replays the saved version.
	FPBeforeSwap = failpoint.Register("serve/before-swap")
	// FPEnqueue fires before an audit enters the bounded queue.
	FPEnqueue = failpoint.Register("serve/enqueue")
	// FPBulkAdmit fires after a bulk request claims its bulkhead slot; an
	// injected fault must still release the slot.
	FPBulkAdmit = failpoint.Register("serve/bulk-admit")
	// FPRollbackLoad fires after a rollback request parses its target
	// version and before it takes the publish lock to load the retained
	// snapshot — the widest window in which a concurrent publish (and its
	// retention sweep) can remove the target. Tests arm it with an action
	// that publishes, turning the race deterministic.
	FPRollbackLoad = failpoint.Register("serve/rollback-load")
	// FPMergeSwap fires after a background merge has rebuilt a compacted
	// segment and revalidated its inputs, immediately before the merged
	// segment replaces the run. A fault here abandons the merge — the
	// writer index is untouched, serving continues on the unmerged
	// segments, and verdicts are unchanged (merges never alter scores).
	FPMergeSwap = failpoint.Register("serve/merge-swap")
)

// Config tunes the service.
type Config struct {
	// Workers bounds scoring concurrency inside a batch (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds pending audits before the service sheds load with
	// 429 (0 = 256).
	QueueDepth int
	// MaxBatch caps how many queued audits one dispatcher pass coalesces
	// into a single snapshot pass (0 = 32).
	MaxBatch int
	// MaxBodyBytes caps request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// Threshold is the violation threshold (0 = the paper's 0.8).
	Threshold float64
	// Curation configures /corpus funnel runs (dedup parameters key the
	// verdict cache). The zero value works; DefaultConfig uses the paper's
	// FreeSet options.
	Curation curation.Options
	// CacheBudget bounds the verdict cache's resident bytes (segmented-
	// LRU eviction, see vcache.SetBudget). Every distinct audited/
	// scanned content inserts an entry, so a long-lived server must be
	// bounded: 0 selects the 256 MiB default, negative means unbounded.
	CacheBudget int64
	// MaxBatchCandidates caps candidates per /v1/audit/batch or
	// /v1/filter request (0 = 4096); larger batches get 413.
	MaxBatchCandidates int
	// MaxInflightBulk bounds concurrently executing bulk requests
	// (/v1/audit/batch and /v1/filter). Beyond it the service sheds load
	// with 429 + Retry-After, mirroring the single-audit queue: bulk
	// requests are strictly more expensive, so they must not be the one
	// path with unbounded concurrency (0 = 4).
	MaxInflightBulk int
	// Store, when set, makes the served corpus durable: every publish is
	// persisted crash-safely before it starts serving, NewServer replays
	// the newest good version on boot, and /v1/corpus?version= can roll
	// back to any retained version. Nil keeps the PR 4 in-memory-only
	// behavior.
	Store *snapstore.Store
	// MergeMaxSegments is the background merger's target segment count:
	// while the index holds more segments, the merger compacts the
	// adjacent pair with the fewest live documents (0 = 8). Delta
	// publishes append one segment each, so this bounds per-query
	// overhead without ever blocking a publish.
	MergeMaxSegments int
	// MergeDeadFraction triggers single-segment compaction: a segment
	// whose tombstoned fraction exceeds it is rebuilt without the dead
	// documents (0 = 0.5).
	MergeDeadFraction float64
	// DisableAutoMerge turns the background merger off (benchmarks, and
	// deployments that prefer an external compaction trigger). Deltas
	// then accumulate one segment per publish indefinitely.
	DisableAutoMerge bool
}

// DefaultConfig returns production-ish defaults with the paper's curation
// options and violation threshold.
func DefaultConfig() Config {
	return Config{
		QueueDepth: 256,
		MaxBatch:   32,
		Threshold:  similarity.DefaultThreshold,
		Curation:   curation.FreeSetOptions(),
	}
}

func (c *Config) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Threshold <= 0 {
		c.Threshold = similarity.DefaultThreshold
	}
	if c.CacheBudget == 0 {
		c.CacheBudget = 256 << 20
	}
	if c.MaxBatchCandidates <= 0 {
		c.MaxBatchCandidates = 4096
	}
	if c.MaxInflightBulk <= 0 {
		c.MaxInflightBulk = 4
	}
	if c.MergeMaxSegments <= 0 {
		c.MergeMaxSegments = 8
	}
	if c.MergeDeadFraction <= 0 {
		c.MergeDeadFraction = 0.5
	}
}

// corpusState is one published index generation. Audits read whichever
// state they load; /corpus swaps the pointer to the next generation.
type corpusState struct {
	snap    *similarity.Snapshot
	version uint64
}

// auditJob is one queued audit.
type auditJob struct {
	text  string
	k     int
	entry *vcache.Entry
	done  chan auditResult
}

// jobPool recycles audit jobs and their 1-buffered result channels.
// Only the normal completion path may Put: a job abandoned on client
// disconnect or shutdown can still receive a late buffered send, so it
// must go to the GC instead of being reused.
var jobPool = sync.Pool{New: func() any { return &auditJob{done: make(chan auditResult, 1)} }}

// auditResult carries the verdict plus the snapshot generation that
// produced it.
type auditResult struct {
	best    similarity.Match
	matches []similarity.Match
	version uint64
	length  int
}

// ReplayInfo reports what NewServer recovered from the snapshot store.
type ReplayInfo struct {
	// Version is the corpus generation recovered from disk (0 = none).
	Version uint64
	// Docs is the recovered snapshot's document count.
	Docs int
	// Skipped lists on-disk versions that failed checksum validation and
	// were passed over in favor of an older good one.
	Skipped []uint64
	// Err is a non-recoverable store error (the server still starts, with
	// an empty corpus).
	Err error
}

// Server is the audit service. Create with NewServer, serve via Handler,
// release the dispatcher with Close.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	store *vcache.Store
	snaps *snapstore.Store

	state atomic.Pointer[corpusState]
	pubMu sync.Mutex // serializes publishes and guards idx

	// idx is the single-writer segmented view behind the served snapshot:
	// delta publishes append segments and tombstone removals here, the
	// background merger compacts runs here, and every successful publish
	// snapshots it. Guarded by pubMu; the snapshots it emits are immutable.
	idx *similarity.Index

	// deltaMu guards deltaPend, the group-commit staging list: concurrent
	// delta uploads enqueue here, and whichever upload wins pubMu commits
	// the whole batch under one Save and one pointer swap.
	deltaMu   sync.Mutex
	deltaPend []*deltaOp

	// mergeKick wakes the background merger after a publish changes the
	// segment set; the 1-token channel coalesces bursts.
	mergeKick chan struct{}

	queue chan *auditJob
	bulk  chan struct{} // bulkhead: in-flight /v1/audit/batch + /v1/filter slots
	stop  chan struct{}
	once  sync.Once

	// pumpMu serializes dispatcher passes: exactly one goroutine — the
	// background dispatcher or a request handler that stole the pump —
	// drains and scores a batch at a time. An idle-path audit handler
	// try-locks it and runs the batch on its own goroutine, skipping two
	// scheduler handoffs; when the pump is busy it kicks the dispatcher
	// instead. batchBuf is the reusable batch slice, owned by whoever
	// holds pumpMu.
	pumpMu   sync.Mutex
	kick     chan struct{} // cap 1: dispatcher wake-up, token coalesced
	batchBuf []*auditJob

	// ready flips on once boot-time snapshot replay completes; draining
	// flips on when shutdown begins. /v1/readyz is 200 only in between,
	// so load balancers neither route to a cold index nor to a server
	// about to exit.
	ready    atomic.Bool
	draining atomic.Bool
	busy     atomic.Int64 // audits currently inside a dispatcher batch
	replay   ReplayInfo

	start time.Time
	m     metrics

	// batchGate, when set (tests), runs at the start of every dispatcher
	// batch — it lets the backpressure test hold the dispatcher mid-batch
	// deterministically.
	batchGate func()
	// buildGate, when set (tests), runs after a corpus build completes but
	// before the publish lock is taken — it lets the concurrency test hold
	// one slow upload there and prove other publishes proceed.
	buildGate func()
}

// NewServer builds the service and starts its dispatcher. With a
// configured snapshot store it replays the newest good on-disk version
// before returning, so the first request already sees the warm index; a
// corrupt or empty store degrades to an empty corpus (inspect Replay),
// never a failed boot.
func NewServer(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:       cfg,
		store:     vcache.NewStore(cfg.Curation.Dedup),
		snaps:     cfg.Store,
		queue:     make(chan *auditJob, cfg.QueueDepth),
		bulk:      make(chan struct{}, cfg.MaxInflightBulk),
		stop:      make(chan struct{}),
		kick:      make(chan struct{}, 1),
		mergeKick: make(chan struct{}, 1),
		start:     time.Now(),
	}
	if cfg.CacheBudget > 0 {
		s.store.SetBudget(cfg.CacheBudget)
	}
	s.idx = similarity.NewIndex()
	s.state.Store(&corpusState{snap: s.idx.Snapshot()})
	if s.snaps != nil {
		snap, version, skipped, err := s.snaps.LoadLatest()
		s.replay = ReplayInfo{Skipped: skipped, Err: err}
		if snap != nil {
			s.replay.Version, s.replay.Docs = version, snap.Len()
			s.idx = similarity.IndexFromSnapshot(snap)
			s.state.Store(&corpusState{snap: snap, version: version})
		}
	}
	s.ready.Store(true)
	s.mux = http.NewServeMux()
	// The /v1 surface is canonical; the unversioned paths are aliases of
	// the same handlers, so legacy and v1 bodies are byte-identical.
	for _, p := range []string{"/audit", "/v1/audit"} {
		s.mux.HandleFunc(p, s.handleAudit)
	}
	s.mux.HandleFunc("/v1/audit/batch", s.handleAuditBatch)
	s.mux.HandleFunc("/v1/filter", s.handleFilter)
	for _, p := range []string{"/syntax", "/v1/syntax"} {
		s.mux.HandleFunc(p, s.handleSyntax)
	}
	for _, p := range []string{"/scan", "/v1/scan"} {
		s.mux.HandleFunc(p, s.handleScan)
	}
	for _, p := range []string{"/corpus", "/v1/corpus"} {
		s.mux.HandleFunc(p, s.handleCorpus)
	}
	for _, p := range []string{"/stats", "/v1/stats"} {
		s.mux.HandleFunc(p, s.handleStats)
	}
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/readyz", s.handleReadyz)
	// Unknown paths get the structured envelope, not net/http's plain-text
	// 404 page.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "not_found", "no such endpoint: "+r.URL.Path)
	})
	go s.dispatch()
	if !cfg.DisableAutoMerge {
		go s.merger()
	}
	return s
}

// Handler returns the service's HTTP handler, wrapped in panic recovery:
// a panicking handler answers with the structured 500 envelope instead of
// a severed connection, and the goroutine's stack is logged rather than
// lost.
func (s *Server) Handler() http.Handler { return recoverMiddleware(s.mux) }

// recoverMiddleware converts a handler panic into the uniform 500
// envelope. http.ErrAbortHandler passes through — that is net/http's own
// deliberate abort signal, not a bug to report.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			log.Printf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			// Best-effort: if the handler already wrote a status line this
			// header write is a no-op on the wire.
			writeErr(w, http.StatusInternalServerError, "internal", "internal server error")
		}()
		next.ServeHTTP(w, r)
	})
}

// Close stops the dispatcher. Queued audits get 503.
func (s *Server) Close() { s.once.Do(func() { close(s.stop) }) }

// Drain marks the server as shutting down: /v1/readyz flips to 503 so
// load balancers stop routing here, while in-flight and already-accepted
// work keeps completing. Call it when shutdown begins, before the HTTP
// listener closes.
func (s *Server) Drain() { s.draining.Store(true) }

// Quiesce blocks until the audit queue is empty and no dispatcher batch
// is in flight — every accepted audit has its verdict — or ctx expires.
// The graceful-shutdown sequence is: Drain, stop the HTTP listener
// (http.Server.Shutdown), Quiesce, Close.
func (s *Server) Quiesce(ctx context.Context) error {
	for {
		if len(s.queue) == 0 && s.busy.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Replay reports what boot-time snapshot recovery found (zero value when
// no store is configured).
func (s *Server) Replay() ReplayInfo { return s.replay }

// current returns the live index generation.
func (s *Server) current() *corpusState { return s.state.Load() }

// errVersionConflict is an If-Version precondition failure: the client's
// expected corpus version no longer matches the published one.
type errVersionConflict struct{ current uint64 }

func (e *errVersionConflict) Error() string {
	return "corpus version precondition failed (current version " + strconv.FormatUint(e.current, 10) + ")"
}

// PublishDocuments replaces the served index with the given documents and
// returns the new generation. The segment builds off to the side — audits
// keep answering against the old snapshot, and the publish lock is NOT
// held during the build, so a huge upload never delays a concurrent
// publish — then publishes atomically. Concurrent publishes are ordered by
// whoever reaches the swap first (last writer wins, versions strictly
// increasing). With a snapshot store, the new version is durable on disk
// before it serves its first audit; a persist failure keeps the previous
// snapshot serving and returns the error.
func (s *Server) PublishDocuments(names, texts []string) (version uint64, indexed int, err error) {
	return s.publishDocuments(names, texts, nil)
}

// publishDocuments is PublishDocuments plus an optional If-Version
// precondition, checked under the publish lock against the live version.
func (s *Server) publishDocuments(names, texts []string, ifVersion *uint64) (version uint64, indexed int, err error) {
	ix := similarity.NewIndex()
	if len(names) > 0 {
		ix.Append(similarity.BuildSegment(names, texts, s.cfg.Workers))
	}
	if s.buildGate != nil {
		s.buildGate()
	}
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if ifVersion != nil {
		// One snapshot load serves both the check and the error: the
		// reported conflict version is exactly the one compared against.
		if cur := s.current().version; *ifVersion != cur {
			return 0, 0, &errVersionConflict{current: cur}
		}
	}
	version, indexed, err = s.publishLocked(ix.Snapshot())
	if err != nil {
		return 0, 0, err
	}
	// The replacement index is now the writer state for future deltas.
	s.idx = ix
	return version, indexed, nil
}

// publishLocked is publish's body for callers that already hold pubMu —
// the rollback path, which must keep the lock across its snapshot load so
// the retention sweep (which only runs inside Save, under this same lock)
// cannot remove the version between validation and republish.
//
//freehw:guardedby pubMu
func (s *Server) publishLocked(snap *similarity.Snapshot) (version uint64, indexed int, err error) {
	version = s.current().version + 1
	if s.snaps != nil {
		if err := s.snaps.Save(version, snap); err != nil {
			return 0, 0, err
		}
	}
	if err := failpoint.Inject(FPBeforeSwap); err != nil {
		// Crash between durability and swap: the version is on disk and
		// will be replayed on restart, but this process never served it.
		return 0, 0, err
	}
	s.state.Store(&corpusState{snap: snap, version: version})
	return version, snap.Len(), nil
}

// deltaOp is one delta upload staged for group commit: a pre-built
// segment of added documents (nil when the delta only removes), the names
// to tombstone, and an optional If-Version precondition.
type deltaOp struct {
	seg       *similarity.Segment
	remove    []string
	ifVersion *uint64
	res       deltaResult
	done      chan struct{}
}

// deltaResult is what a committed (or failed) delta op reports back.
type deltaResult struct {
	version   uint64
	persisted bool
	added     int
	removed   int
	live      int
	err       error
}

// errPublishAborted surfaces to delta ops whose group leader crashed
// before their results were decided.
var errPublishAborted = errors.New("corpus publish aborted")

// applyDelta publishes one delta through the group-commit path: the op
// joins the staging list, and whichever goroutine wins the publish lock
// commits every staged op under a single Save and pointer swap. Uploads
// that arrive while a commit is in flight coalesce into the next batch,
// so N concurrent deltas cost O(batches), not O(N), durability writes.
func (s *Server) applyDelta(op *deltaOp) deltaResult {
	op.done = make(chan struct{})
	s.deltaMu.Lock()
	s.deltaPend = append(s.deltaPend, op)
	s.deltaMu.Unlock()

	s.commitPending()
	<-op.done
	return op.res
}

// commitPending contends for the publish lock and commits whatever delta
// batch is staged by then. An empty batch means a previous leader already
// drained this goroutine's op — its result arrives via op.done. The defer
// keeps pubMu released even when a commit panics out of an injected crash
// (commitDeltaBatchLocked completes every op before re-panicking).
func (s *Server) commitPending() {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.deltaMu.Lock()
	batch := s.deltaPend
	s.deltaPend = nil
	s.deltaMu.Unlock()
	if len(batch) > 0 {
		s.commitDeltaBatchLocked(batch)
	}
}

// commitDeltaBatchLocked applies a staged delta batch to the writer index
// and publishes the result as one new generation. Ops whose If-Version
// precondition fails are skipped (they report the conflict); the rest
// mutate idx — O(delta + segments), never O(corpus) — and share a single
// publishLocked. On a persist failure, or a panic out of an injected
// crash, the writer index is rebuilt from the still-serving snapshot so
// no half-applied batch ever leaks into a later publish; every op is
// always completed, then a panic resumes unwinding.
//
//freehw:guardedby pubMu
func (s *Server) commitDeltaBatchLocked(batch []*deltaOp) {
	cur := s.current()
	committed := false
	defer func() {
		r := recover()
		if !committed {
			s.idx = similarity.IndexFromSnapshot(cur.snap)
			for _, op := range batch {
				if op.res.err == nil && op.res.version == 0 {
					op.res.err = errPublishAborted
				}
			}
		}
		for _, op := range batch {
			close(op.done)
		}
		if r != nil {
			panic(r)
		}
	}()

	var applied []*deltaOp
	for _, op := range batch {
		if op.ifVersion != nil && *op.ifVersion != cur.version {
			op.res.err = &errVersionConflict{current: cur.version}
			continue
		}
		op.res.removed = s.idx.Remove(op.remove)
		if op.seg != nil && op.seg.Docs() > 0 {
			s.idx.Append(op.seg)
			op.res.added = op.seg.Docs()
		}
		applied = append(applied, op)
	}
	if len(applied) == 0 {
		committed = true // nothing touched idx; nothing to roll back
		return
	}
	version, _, err := s.publishLocked(s.idx.Snapshot())
	if err != nil {
		for _, op := range applied {
			op.res.err = err
		}
		return
	}
	committed = true
	live := s.idx.Live()
	for _, op := range applied {
		op.res.version, op.res.persisted, op.res.live = version, s.snaps != nil, live
	}
	s.kickMerge()
}

// kickMerge wakes the background merger (no-op when auto-merge is off or
// a wake-up is already pending).
func (s *Server) kickMerge() {
	if s.cfg.DisableAutoMerge {
		return
	}
	select {
	case s.mergeKick <- struct{}{}:
	default:
	}
}

// merger is the background compaction loop: each kick, it runs merge
// steps until the segment set satisfies the merge policy. Merges never
// block publishes — the expensive rebuild happens outside the publish
// lock, revalidated before the swap — and never change verdicts, so the
// swap reuses the live version rather than minting a new one.
func (s *Server) merger() {
	for {
		select {
		case <-s.stop:
			return
		case <-s.mergeKick:
			for s.mergeOnce() {
				select {
				case <-s.stop:
					return
				default:
				}
			}
		}
	}
}

// mergeOnce plans one compaction under the publish lock, rebuilds the
// merged segment outside it, then revalidates the plan and swaps it in.
// Reports whether it changed the segment set. A panic (injected crash, or
// a bug in the merge path) abandons the step: background compaction must
// never take serving down.
func (s *Server) mergeOnce() (changed bool) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("serve: background merge abandoned: %v", r)
			changed = false
		}
	}()
	i, j, segs, deads, ok := s.planMerge()
	if !ok {
		return false
	}
	merged := similarity.MergeSegments(segs, deads) // outside the lock: O(run)
	return s.swapMerge(i, j, segs, deads, merged)
}

// planMerge picks the next run to compact, returning its ordinals plus
// the frozen inputs MergeSegments consumes outside the lock.
func (s *Server) planMerge() (i, j int, segs []*similarity.Segment, deads [][]uint64, ok bool) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	i, j, ok = pickMergeRun(s.idx, s.cfg.MergeMaxSegments, s.cfg.MergeDeadFraction)
	if !ok {
		return 0, 0, nil, nil, false
	}
	segs, deads = s.idx.Run(i, j)
	return i, j, segs, deads, true
}

// pickMergeRun applies the merge policy: drop or compact any segment that
// is fully or mostly dead (tombstoned fraction above deadFrac), then
// bound the segment count by merging the adjacent pair with the fewest
// combined live documents while more than maxSegs segments remain.
func pickMergeRun(ix *similarity.Index, maxSegs int, deadFrac float64) (int, int, bool) {
	n := ix.Segments()
	for i := 0; i < n; i++ {
		docs, live := ix.SegInfo(i)
		if live == 0 || float64(docs-live) > deadFrac*float64(docs) {
			return i, i, true
		}
	}
	if n > maxSegs {
		best, at := -1, 0
		for i := 0; i+1 < n; i++ {
			_, a := ix.SegInfo(i)
			_, b := ix.SegInfo(i + 1)
			if best < 0 || a+b < best {
				best, at = a+b, i
			}
		}
		return at, at + 1, true
	}
	return 0, 0, false
}

// swapMerge installs a rebuilt segment over run [i, j] if the run is
// still current, republishing the live snapshot in place (same version:
// a merge changes physical layout, never verdicts, so audits memoized
// under this version stay exact). A stale plan — a publish or removal
// raced the rebuild — is dropped; the merger replans on its next kick.
func (s *Server) swapMerge(i, j int, segs []*similarity.Segment, deads [][]uint64, merged *similarity.Segment) bool {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if !s.idx.RunStable(i, j, segs, deads) {
		return false
	}
	if err := failpoint.Inject(FPMergeSwap); err != nil {
		// Injected crash at the swap boundary: the merged segment is
		// dropped, the index is untouched, serving continues unchanged.
		return false
	}
	s.idx.ReplaceRun(i, j, merged)
	cur := s.current()
	s.state.Store(&corpusState{snap: s.idx.Snapshot(), version: cur.version})
	return true
}

// dispatch is the background half of the micro-batching pump: it sleeps
// until an enqueuing handler kicks it (because the pump was already
// held), then drains and scores batches until the queue is empty. On the
// idle path the handler itself runs pump() and the dispatcher never
// wakes.
func (s *Server) dispatch() {
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
			for {
				select {
				case <-s.stop:
					return
				default:
				}
				s.pumpMu.Lock()
				ran := s.pumpLocked()
				s.pumpMu.Unlock()
				if !ran {
					break
				}
			}
		}
	}
}

// pump gives the calling goroutine one shot at being the dispatcher: if
// the pump is free it drains and scores one batch in place and reports
// true. Callers that enqueued work must kick the dispatcher when the
// pump is busy — and after a successful pass that left jobs behind — so
// no job is ever stranded.
func (s *Server) pump() bool {
	if !s.pumpMu.TryLock() {
		return false
	}
	s.pumpLocked()
	s.pumpMu.Unlock()
	if len(s.queue) > 0 {
		s.kickDispatch()
	}
	return true
}

// kickDispatch wakes the background dispatcher; the 1-token channel
// coalesces concurrent kicks.
func (s *Server) kickDispatch() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// pumpLocked drains one batch (up to MaxBatch) and scores it. Caller
// holds pumpMu. Reports whether any job was processed.
//
//freehw:guardedby pumpMu
//freehw:hotpath
func (s *Server) pumpLocked() bool {
	batch := s.batchBuf[:0]
drain:
	for len(batch) < s.cfg.MaxBatch {
		select {
		case job := <-s.queue:
			batch = append(batch, job)
		default:
			break drain
		}
	}
	s.batchBuf = batch
	if len(batch) == 0 {
		return false
	}
	s.busy.Add(1)
	s.runBatch(batch)
	s.busy.Add(-1)
	// Drop the job pointers so completed audits do not linger in the
	// reusable buffer.
	clear(batch)
	return true
}

// runBatch scores one batch against the current snapshot. Best-only jobs
// share a single deduplicated BestBatch pass; top-k jobs fan out over the
// same snapshot. Every verdict lands in the content-hash memo under the
// snapshot version that produced it.
//
//freehw:hotpath
func (s *Server) runBatch(batch []*auditJob) {
	if s.batchGate != nil {
		s.batchGate()
	}
	st := s.current()
	s.m.batches.Add(1)
	s.m.batchedJobs.Add(int64(len(batch)))

	if len(batch) == 1 && batch[0].k <= 1 {
		// Single best-only job — the common idle-path shape: score it
		// directly, no partition slices, no batch fan-out.
		j := batch[0]
		m := st.snap.Best(j.text)
		if j.entry != nil {
			j.entry.StoreBestMatch(st.version, m)
		}
		j.done <- auditResult{best: m, version: st.version, length: st.snap.Len()}
		return
	}

	var bestJobs []*auditJob
	var texts []string
	var topkJobs []*auditJob
	for _, j := range batch {
		if j.k > 1 {
			topkJobs = append(topkJobs, j)
		} else {
			bestJobs = append(bestJobs, j)
			texts = append(texts, j.text)
		}
	}
	if len(bestJobs) > 0 {
		matches := st.snap.BestBatch(s.cfg.Workers, texts)
		for i, j := range bestJobs {
			if j.entry != nil {
				j.entry.StoreBestMatch(st.version, matches[i])
			}
			j.done <- auditResult{best: matches[i], version: st.version, length: st.snap.Len()}
		}
	}
	for _, j := range topkJobs {
		// Clamp client-controlled k: TopK pre-allocates its heap at
		// capacity k, and nothing beyond the corpus size can match anyway.
		k := j.k
		if n := st.snap.Len(); k > n {
			k = n
		}
		ms := st.snap.TopK(j.text, k)
		res := auditResult{matches: ms, version: st.version, length: st.snap.Len()}
		if len(ms) > 0 {
			res.best = ms[0]
		} else {
			res.best = similarity.Match{Index: -1}
		}
		if j.entry != nil {
			j.entry.StoreBestMatch(st.version, res.best)
		}
		j.done <- res
	}
}

// bodyBufPool recycles body read buffers across requests: a fresh
// json.Decoder per request allocates its own bufio layer and scratch,
// which the audit hot path would pay on every call.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decode reads a JSON body under the configured size cap. It replies on
// failure and reports whether the handler should continue. The body is
// slurped into a pooled buffer and unmarshalled from there — same syntax
// errors, no per-request decoder allocations (json.Unmarshal copies what
// it keeps, so nothing aliases the pooled bytes).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, out any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := bodyBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		bodyBufPool.Put(buf)
	}()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large", "request body too large")
		} else {
			writeErr(w, http.StatusBadRequest, "bad_json", "bad request: "+err.Error())
		}
		return false
	}
	if ar, ok := out.(*AuditRequest); ok && parseAuditRequest(buf.Bytes(), ar) {
		return true
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_json", "bad request: "+err.Error())
		return false
	}
	return true
}

// parseAuditRequest decodes the canonical audit body shape —
// {"code": "...", "top_k": n, "threshold": x} — without reflection.
// It reports false on ANY input it cannot prove it decodes exactly as
// encoding/json would (unknown keys, non-ASCII bytes, surrogate escapes,
// exotic numbers), and the caller falls back to json.Unmarshal, so
// behavior — including every error message — is unchanged; the fast path
// only accelerates the overwhelmingly common well-formed case.
//
//freehw:hotpath
func parseAuditRequest(b []byte, out *AuditRequest) bool {
	i, n := skipJSONSpace(b, 0), len(b)
	if i >= n || b[i] != '{' {
		return false
	}
	i = skipJSONSpace(b, i+1)
	if i < n && b[i] == '}' {
		i++
	} else {
		for {
			key, j, ok := parseJSONString(b, i)
			if !ok {
				return false
			}
			i = skipJSONSpace(b, j)
			if i >= n || b[i] != ':' {
				return false
			}
			i = skipJSONSpace(b, i+1)
			switch key {
			case "code":
				s, j, ok := parseJSONString(b, i)
				if !ok {
					return false
				}
				out.Code, i = s, j
			case "top_k":
				v, j, ok := parseJSONInt(b, i)
				if !ok {
					return false
				}
				out.TopK, i = v, j
			case "threshold":
				v, j, ok := parseJSONFloat(b, i)
				if !ok {
					return false
				}
				out.Threshold, i = v, j
			default:
				// Unknown key: json.Unmarshal would skip it; let it.
				return false
			}
			i = skipJSONSpace(b, i)
			if i < n && b[i] == ',' {
				i = skipJSONSpace(b, i+1)
				continue
			}
			if i < n && b[i] == '}' {
				i++
				break
			}
			return false
		}
	}
	return skipJSONSpace(b, i) == n
}

//freehw:hotpath
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// parseJSONString decodes a quoted JSON string starting at b[i]. The fast
// path is restricted to printable ASCII plus the simple escapes and
// non-surrogate \uXXXX — anything else (raw control bytes, non-ASCII,
// invalid escapes) reports !ok so the encoding/json fallback, with its
// UTF-8 coercion and exact error text, handles it instead.
//
//freehw:hotpath
func parseJSONString(b []byte, i int) (s string, next int, ok bool) {
	n := len(b)
	if i >= n || b[i] != '"' {
		return "", 0, false
	}
	i++
	start := i
	for i < n {
		c := b[i]
		if c == '"' {
			return string(b[start:i]), i + 1, true
		}
		if c == '\\' {
			break // escape: switch to the building scan below
		}
		if c < 0x20 || c >= 0x80 {
			return "", 0, false
		}
		i++
	}
	// Escaped string: decode by copying the plain spans between escapes
	// into a Builder sized once — the result string is built in place,
	// so a 2 KB candidate costs one allocation, not an unquote buffer
	// plus a string copy.
	var sb strings.Builder
	sb.Grow(n - start - 1)
	sb.Write(b[start:i])
	for i < n {
		c := b[i]
		switch {
		case c == '"':
			return sb.String(), i + 1, true
		case c == '\\':
			if i+1 >= n {
				return "", 0, false
			}
			i++
			switch b[i] {
			case '"', '\\', '/':
				sb.WriteByte(b[i])
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case 'u':
				if i+4 >= n {
					return "", 0, false
				}
				r := rune(0)
				for k := 1; k <= 4; k++ {
					r <<= 4
					switch c := b[i+k]; {
					case c >= '0' && c <= '9':
						r |= rune(c - '0')
					case c >= 'a' && c <= 'f':
						r |= rune(c-'a') + 10
					case c >= 'A' && c <= 'F':
						r |= rune(c-'A') + 10
					default:
						return "", 0, false
					}
				}
				if r >= 0xD800 && r < 0xE000 {
					return "", 0, false // surrogate: fall back
				}
				var rb [4]byte
				sb.Write(rb[:utf8.EncodeRune(rb[:], r)])
				i += 4
			default:
				return "", 0, false
			}
			i++
		case c < 0x20 || c >= 0x80:
			return "", 0, false
		default:
			span := i
			for span < n {
				c := b[span]
				if c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
					break
				}
				span++
			}
			sb.Write(b[i:span])
			i = span
		}
	}
	return "", 0, false
}

// parseJSONInt accepts plain decimal integers only; fractions, exponents,
// and overflow fall back (json's int-field errors must come from json).
//
//freehw:hotpath
func parseJSONInt(b []byte, i int) (v, next int, ok bool) {
	n, neg := len(b), false
	if i < n && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for i < n && b[i] >= '0' && b[i] <= '9' {
		d := int(b[i] - '0')
		if v > (1<<62)/10 {
			return 0, 0, false
		}
		v = v*10 + d
		i++
	}
	if i == start || (i < n && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')) {
		return 0, 0, false
	}
	if b[start] == '0' && i > start+1 {
		return 0, 0, false // "01" is not a JSON number
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// parseJSONFloat scans the strict JSON number grammar — leading zeros,
// bare dots, and signed prefixes like "+1" are rejected exactly as
// encoding/json rejects them — then defers the conversion to strconv,
// the same parser encoding/json uses, bailing on range errors so their
// message comes from the fallback.
//
//freehw:hotpath
func parseJSONFloat(b []byte, i int) (v float64, next int, ok bool) {
	n, start := len(b), i
	if i < n && b[i] == '-' {
		i++
	}
	digits := func() bool {
		first := i
		for i < n && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > first
	}
	switch {
	case i < n && b[i] == '0':
		i++
	case i < n && b[i] >= '1' && b[i] <= '9':
		digits()
	default:
		return 0, 0, false
	}
	if i < n && b[i] == '.' {
		i++
		if !digits() {
			return 0, 0, false
		}
	}
	if i < n && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < n && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, 0, false
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, 0, false
	}
	return v, i, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr emits the uniform structured error envelope: a stable
// snake_case code plus a human-readable message.
func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorDetail{Code: code, Message: msg}})
}

// retryAfterSeconds derives the shed backoff hint from live queue
// pressure instead of a constant: an empty queue that shed only because
// the dispatcher was mid-batch suggests retrying in a second, a full one
// tells clients to back off harder. The ramp is deliberately coarse —
// 1s floor plus one second per quarter of queue fullness — because the
// hint's job is spreading retries, not forecasting latency.
func (s *Server) retryAfterSeconds() int {
	return 1 + 4*len(s.queue)/s.cfg.QueueDepth
}

// writeShed emits the 429 envelope with the live Retry-After hint in
// both the conventional header and the machine-readable body, so clients
// that only parse JSON still see the backoff.
func (s *Server) writeShed(w http.ResponseWriter, code, msg string) {
	s.m.rejected.Add(1)
	secs := s.retryAfterSeconds()
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests,
		ErrorResponse{Error: ErrorDetail{Code: code, Message: msg, RetryAfterSeconds: secs}})
}

func post(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return false
	}
	return true
}

// admitBulk gates a bulk request (batch audit, filter) through the size
// cap and the in-flight bulkhead, replying and returning nil when the
// request is rejected. The caller must invoke the returned release.
func (s *Server) admitBulk(w http.ResponseWriter, candidates int) (release func()) {
	if candidates == 0 {
		writeErr(w, http.StatusBadRequest, "empty_batch", "no candidates")
		return nil
	}
	if candidates > s.cfg.MaxBatchCandidates {
		writeErr(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			"batch of "+strconv.Itoa(candidates)+" exceeds the "+strconv.Itoa(s.cfg.MaxBatchCandidates)+"-candidate limit")
		return nil
	}
	select {
	case s.bulk <- struct{}{}:
		if err := failpoint.Inject(FPBulkAdmit); err != nil {
			<-s.bulk // an injected fault must not leak the bulkhead slot
			writeErr(w, http.StatusInternalServerError, "internal", err.Error())
			return nil
		}
		return func() { <-s.bulk }
	default:
		// Bulkhead full: bulk work is strictly more expensive than a
		// single audit, so it sheds exactly like the audit queue does.
		s.writeShed(w, "bulk_full", "too many in-flight bulk requests")
		return nil
	}
}

func matchJSON(m similarity.Match) *AuditMatch {
	if m.Index < 0 {
		return nil
	}
	return &AuditMatch{Name: m.Name, Index: m.Index, Score: m.Score}
}

// handleAudit is the request side of the audit hot path: admission, memo
// lookup, enqueue, the inline pump steal, and the response. The latency
// histogram's wall-clock reads are the one sanctioned exception, annotated
// below; everything else stays allocation- and reflection-free.
//
//freehw:hotpath
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if !post(w, r) {
		return
	}
	var req AuditRequest
	if !s.decode(w, r, &req) {
		return
	}
	startT := time.Now() //freehw:nolint hotpath -- one wall-clock read per request anchors the latency histogram
	s.m.audits.Add(1)
	s.m.rate.tick(startT)
	threshold := req.Threshold
	if threshold <= 0 {
		threshold = s.cfg.Threshold
	}
	entry := s.store.Entry(req.Code)

	// Cross-request memo: same content under the live snapshot generation
	// answers without touching the queue or the index.
	if req.TopK <= 1 {
		st := s.current()
		if m, ok := entry.CachedBestMatch(st.version); ok {
			s.m.auditCacheHits.Add(1)
			s.respondAudit(w, req, auditResult{best: m, version: st.version, length: st.snap.Len()}, threshold, true)
			s.m.lat.record(time.Since(startT)) //freehw:nolint hotpath -- latency metric needs the second read; boundary cost, not per-posting
			return
		}
	}

	job := jobPool.Get().(*auditJob)
	job.text, job.k, job.entry = req.Code, req.TopK, entry
	if err := failpoint.Inject(FPEnqueue); err != nil {
		jobPool.Put(job)
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	select {
	case s.queue <- job:
	default:
		// Queue full: shed load now instead of stacking latency.
		job.text, job.entry = "", nil
		jobPool.Put(job)
		s.writeShed(w, "queue_full", "audit queue full")
		return
	}
	// Idle fast path: steal the pump and run the dispatcher pass on this
	// goroutine — the common single-request case then skips two scheduler
	// handoffs. When the pump is already held (a batch is in flight), wake
	// the background dispatcher instead.
	if !s.pump() {
		s.kickDispatch()
	}
	select {
	case res := <-job.done:
		// Only the completed path recycles: an abandoned job's buffered
		// done-send may still be in flight, so those leak to the GC.
		job.text, job.entry = "", nil
		jobPool.Put(job)
		s.respondAudit(w, req, res, threshold, false)
		s.m.lat.record(time.Since(startT)) //freehw:nolint hotpath -- latency metric needs the second read; boundary cost, not per-posting
	case <-r.Context().Done():
		// Client gone; the dispatcher's buffered send still completes.
	case <-s.stop:
		writeErr(w, http.StatusServiceUnavailable, "shutting_down", "server shutting down")
	}
}

func (s *Server) respondAudit(w http.ResponseWriter, req AuditRequest, res auditResult, threshold float64, cached bool) {
	violation := res.best.Index >= 0 && res.best.Score >= threshold
	if violation {
		s.m.violations.Add(1)
	}
	if writeAuditFast(w, &res, threshold, violation, cached) {
		return
	}
	resp := AuditResponse{
		Best:          matchJSON(res.best),
		Violation:     violation,
		Threshold:     threshold,
		CorpusVersion: res.version,
		CorpusLen:     res.length,
		Cached:        cached,
		NoMatch:       res.best.Index < 0,
	}
	for _, m := range res.matches {
		resp.Matches = append(resp.Matches, AuditMatch{Name: m.Name, Index: m.Index, Score: m.Score})
	}
	writeJSON(w, http.StatusOK, resp)
}

// respBufPool recycles the hand-encoded audit response buffers.
var respBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// writeAuditFast emits the AuditResponse wire bytes without reflection.
// The output is byte-identical to writeJSON's — same field order, the
// stdlib's float formatting, the trailing newline Encoder appends — and
// any value the hand encoder cannot prove it renders identically (names
// needing escaping, non-finite floats) reports false so the caller falls
// back to encoding/json.
//
//freehw:hotpath
func writeAuditFast(w http.ResponseWriter, res *auditResult, threshold float64, violation, cached bool) bool {
	if res.best.Index >= 0 && (!jsonPlainASCII(res.best.Name) || !finite(res.best.Score)) {
		return false
	}
	if !finite(threshold) {
		return false
	}
	for i := range res.matches {
		if !jsonPlainASCII(res.matches[i].Name) || !finite(res.matches[i].Score) {
			return false
		}
	}
	bp := respBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, '{')
	if res.best.Index >= 0 {
		b = append(b, `"best":`...)
		b = appendAuditMatch(b, &res.best)
		b = append(b, ',')
	}
	if len(res.matches) > 0 {
		b = append(b, `"matches":[`...)
		for i := range res.matches {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendAuditMatch(b, &res.matches[i])
		}
		b = append(b, `],`...)
	}
	b = append(b, `"violation":`...)
	b = strconv.AppendBool(b, violation)
	b = append(b, `,"threshold":`...)
	b = appendJSONFloat(b, threshold)
	b = append(b, `,"corpus_version":`...)
	b = strconv.AppendUint(b, res.version, 10)
	b = append(b, `,"corpus_len":`...)
	b = strconv.AppendInt(b, int64(res.length), 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached)
	if res.best.Index < 0 {
		b = append(b, `,"no_match":true`...)
	}
	b = append(b, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	*bp = b[:0]
	respBufPool.Put(bp)
	return true
}

//freehw:hotpath
func appendAuditMatch(b []byte, m *similarity.Match) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, m.Name...)
	b = append(b, `","index":`...)
	b = strconv.AppendInt(b, int64(m.Index), 10)
	b = append(b, `,"score":`...)
	b = appendJSONFloat(b, m.Score)
	return append(b, '}')
}

// jsonPlainASCII reports whether s renders into a JSON string verbatim:
// printable ASCII with nothing encoding/json escapes (quotes, backslash,
// or its HTML-safe set <, >, &).
//
//freehw:hotpath
func jsonPlainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

//freehw:hotpath
func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendJSONFloat formats exactly as encoding/json's floatEncoder does:
// shortest round-trip form, 'f' in the human range, 'e' outside it with
// the two-digit exponent squeezed ("e-09" → "e-9").
//
//freehw:hotpath
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// handleAuditBatch audits a whole candidate batch against one snapshot
// load: memo hits answer immediately, the misses share a single
// deduplicated BestBatch index pass. This is the bulk face of /v1/audit —
// same verdicts, amortized cost.
func (s *Server) handleAuditBatch(w http.ResponseWriter, r *http.Request) {
	if !post(w, r) {
		return
	}
	var req AuditBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	release := s.admitBulk(w, len(req.Candidates))
	if release == nil {
		return
	}
	defer release()
	startT := time.Now()
	s.m.audits.Add(int64(len(req.Candidates)))
	s.m.rate.tick(startT)
	threshold := req.Threshold
	if threshold <= 0 {
		threshold = s.cfg.Threshold
	}

	st := s.current()
	entries := make([]*vcache.Entry, len(req.Candidates))
	matches := make([]similarity.Match, len(req.Candidates))
	cached := make([]bool, len(req.Candidates))
	var missIdx []int
	var missTexts []string
	for i, c := range req.Candidates {
		entries[i] = s.store.Entry(c.Code)
		if m, ok := entries[i].CachedBestMatch(st.version); ok {
			s.m.auditCacheHits.Add(1)
			matches[i], cached[i] = m, true
		} else {
			missIdx = append(missIdx, i)
			missTexts = append(missTexts, c.Code)
		}
	}
	if len(missTexts) > 0 {
		s.m.batches.Add(1)
		s.m.batchedJobs.Add(int64(len(missTexts)))
		for j, m := range st.snap.BestBatch(s.cfg.Workers, missTexts) {
			i := missIdx[j]
			matches[i] = m
			entries[i].StoreBestMatch(st.version, m)
		}
	}

	resp := AuditBatchResponse{
		Results:       make([]AuditBatchResult, len(req.Candidates)),
		Threshold:     threshold,
		CorpusVersion: st.version,
		CorpusLen:     st.snap.Len(),
	}
	arena := make([]AuditMatch, len(req.Candidates)) // one alloc for all Best pointers
	for i, c := range req.Candidates {
		violation := matches[i].Index >= 0 && matches[i].Score >= threshold
		if violation {
			s.m.violations.Add(1)
			resp.Violations++
		}
		var best *AuditMatch
		if m := matches[i]; m.Index >= 0 {
			arena[i] = AuditMatch{Name: m.Name, Index: m.Index, Score: m.Score}
			best = &arena[i]
		}
		resp.Results[i] = AuditBatchResult{
			Key:       c.Key,
			Best:      best,
			Violation: violation,
			Cached:    cached[i],
			NoMatch:   best == nil,
		}
	}
	// Batch wall time is deliberately NOT fed into the audit latency ring:
	// audit_p50/p99_ms describe single /v1/audit requests, and one sample
	// per N-candidate batch would corrupt those percentiles (filter
	// requests likewise stay out).
	writeJSON(w, http.StatusOK, resp)
}

// stagesFor resolves wire stage names to pipeline stages. An empty list
// selects the paper's four-stage funnel; "similarity" audits against the
// given snapshot at the request's threshold.
func (s *Server) stagesFor(names []string, st *corpusState, threshold float64) ([]pipeline.Stage, error) {
	if len(names) == 0 {
		names = []string{pipeline.StageLicense, pipeline.StageDedup, pipeline.StageCopyright, pipeline.StageSyntax}
	}
	stages := make([]pipeline.Stage, 0, len(names))
	for _, n := range names {
		switch n {
		case pipeline.StageLicense:
			stages = append(stages, pipeline.License())
		case pipeline.StageDedup:
			stages = append(stages, pipeline.Dedup(s.cfg.Curation.Dedup, s.cfg.Curation.Shards))
		case pipeline.StageCopyright:
			stages = append(stages, pipeline.Copyright())
		case pipeline.StageSyntax:
			stages = append(stages, pipeline.Syntax())
		case pipeline.StageSimilarity:
			stages = append(stages, pipeline.Similarity(st.snap, threshold))
		default:
			return nil, errors.New("unknown stage: " + n)
		}
	}
	return stages, nil
}

// handleFilter runs an arbitrary stage subset over a candidate batch —
// the offline curation funnel as a per-request composition, returning the
// pipeline's Verdict envelopes verbatim.
func (s *Server) handleFilter(w http.ResponseWriter, r *http.Request) {
	if !post(w, r) {
		return
	}
	var req FilterRequest
	if !s.decode(w, r, &req) {
		return
	}
	release := s.admitBulk(w, len(req.Candidates))
	if release == nil {
		return
	}
	defer release()
	threshold := req.Threshold
	if threshold <= 0 {
		threshold = s.cfg.Threshold
	}
	st := s.current()
	stages, err := s.stagesFor(req.Stages, st, threshold)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_stage", err.Error())
		return
	}
	s.m.filters.Add(1)
	s.m.rate.tick(time.Now())

	cands := make([]*pipeline.Candidate, len(req.Candidates))
	for i, c := range req.Candidates {
		cands[i] = &pipeline.Candidate{
			Key:      c.Key,
			Content:  c.Code,
			Licensed: c.Licensed || license.Accepted(license.ClassifySPDX(c.SPDX)),
			Entry:    s.store.Entry(c.Code),
		}
	}
	rep := pipeline.Execute(s.cfg.Workers, stages, cands)
	resp := FilterResponse{
		Verdicts:      rep.Verdicts,
		Stages:        make([]FilterStageStat, len(rep.Stages)),
		CorpusVersion: st.version,
	}
	for i, t := range rep.Stages {
		resp.Stages[i] = FilterStageStat{Stage: t.Stage, In: t.In, Kept: t.Kept}
		if req.Timings {
			resp.Stages[i].DurationUS = t.Duration.Microseconds()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSyntax(w http.ResponseWriter, r *http.Request) {
	if !post(w, r) {
		return
	}
	var req SyntaxRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.m.syntaxChecks.Add(1)
	s.m.rate.tick(time.Now())
	// The syntax stage is the same value the offline funnel composes; its
	// verdict memoizes in the server's store.
	out := pipeline.Syntax().Evaluate(&pipeline.Candidate{Content: req.Code, Entry: s.store.Entry(req.Code)})
	resp := SyntaxResponse{OK: !out.Reject}
	if !resp.OK {
		// The memo stores only the verdict; re-derive the message on the
		// rare bad path (QuickCheck routes it to the full parser anyway).
		if err := vlog.CheckFast(req.Code); err != nil {
			resp.Error = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	if !post(w, r) {
		return
	}
	var req ScanRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.m.scans.Add(1)
	s.m.rate.tick(time.Now())
	entry := s.store.Entry(req.Code)
	hdr := entry.HeaderScan(req.Code)
	hits := entry.BodyHits(req.Code)
	writeJSON(w, http.StatusOK, ScanResponse{
		Protected: hdr.Protected || len(hits) > 0,
		Reasons:   hdr.Reasons,
		Company:   hdr.Company,
		BodyHits:  hits,
	})
}

// handleCorpus serves /corpus and /v1/corpus — one handler, so the two
// paths behave byte-identically. A JSON body carries one CorpusRequest; a
// streaming NDJSON body (Content-Type application/x-ndjson, index mode
// via the ?index= query parameter, publish mode via ?mode=) carries one
// document, removal, or repo per line — the shape a crawler pipes without
// buffering the whole upload in the client. Either way the next index
// builds outside the publish lock.
//
// mode=replace (the default) rebuilds the corpus from the request alone.
// mode=delta (alias: append) publishes an incremental generation: the
// uploaded documents become one new segment, removals tombstone existing
// names, and the publish costs O(delta + segments) — never O(corpus). In
// NDJSON delta uploads, document lines stream straight into the segment
// builder, so peak memory is O(segment), not O(upload). An If-Version
// request header makes either mode conditional: the publish applies only
// if the live corpus version still matches, else 409 version_conflict.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	if !post(w, r) {
		return
	}
	if v := r.URL.Query().Get("version"); v != "" {
		s.handleRollback(w, v)
		return
	}
	var ifVersion *uint64
	if h := r.Header.Get("If-Version"); h != "" {
		v, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_if_version", "If-Version must be a decimal corpus version")
			return
		}
		ifVersion = &v
	}
	var req CorpusRequest
	var builder *similarity.SegmentBuilder
	streamed := 0
	if strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		req.Index = r.URL.Query().Get("index")
		req.Mode = r.URL.Query().Get("mode")
		if req.Mode == "delta" || req.Mode == "append" {
			// Delta NDJSON is the O(segment)-memory path: document lines
			// go straight into the builder instead of accumulating.
			builder = similarity.NewSegmentBuilder()
		}
		if !s.decodeNDJSON(w, r, &req, builder) {
			return
		}
		streamed = builderLen(builder)
	} else if !s.decode(w, r, &req) {
		return
	}
	var delta bool
	switch req.Mode {
	case "", "replace":
	case "delta", "append":
		delta = true
	default:
		writeErr(w, http.StatusBadRequest, "bad_mode", `mode must be "replace" or "delta"`)
		return
	}
	if !delta && len(req.Remove) > 0 {
		writeErr(w, http.StatusBadRequest, "bad_mode", `"remove" requires mode "delta"`)
		return
	}
	mode := req.Index
	if mode == "" {
		mode = "protected"
	}
	if mode != "protected" && mode != "curated" && mode != "all" {
		writeErr(w, http.StatusBadRequest, "bad_index", `index must be "protected", "curated", or "all"`)
		return
	}
	if len(req.Documents) == 0 && len(req.Repos) == 0 && streamed == 0 {
		if !delta || len(req.Remove) == 0 {
			writeErr(w, http.StatusBadRequest, "empty_corpus", "no documents or repos")
			return
		}
	}
	s.m.corpusPosts.Add(1)
	s.m.rate.tick(time.Now())

	var names, texts []string
	for _, d := range req.Documents {
		names = append(names, d.Name)
		texts = append(texts, d.Text)
	}
	resp := CorpusResponse{Index: mode}
	if len(req.Repos) > 0 {
		repos := make([]gitsim.RepoData, len(req.Repos))
		for i, rr := range req.Repos {
			repos[i] = gitsim.RepoData{Meta: gitsim.RepoMeta{FullName: rr.Name, SPDX: rr.SPDX}}
			for _, f := range rr.Files {
				repos[i].Files = append(repos[i].Files, gitsim.RepoFile{Path: f.Path, Content: f.Content})
			}
		}
		opt := s.cfg.Curation
		// The server owns its verdict store; funnel runs always read
		// through it, so any client-facing cache knobs in cfg.Curation are
		// overridden here rather than conflicting with the extraction.
		opt.Cache, opt.NoCache, opt.CacheBudget = s.store, false, 0
		ex := curation.ExtractWithCache(repos, opt.Dedup, opt.Workers, s.store)
		res, err := curation.RunExtracted(ex, opt)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "internal", "curation: "+err.Error())
			return
		}
		resp.Funnel = &FunnelCounts{
			ReposSeen:        res.ReposSeen,
			ReposLicensed:    res.ReposLicensed,
			TotalFiles:       res.TotalFiles,
			AfterLicense:     res.AfterLicense,
			AfterDedup:       res.AfterDedup,
			CopyrightRemoved: res.CopyrightRemoved,
			SyntaxRemoved:    res.SyntaxRemoved,
			FinalFiles:       res.FinalFiles,
		}
		switch mode {
		case "curated":
			for _, f := range res.Files {
				names = append(names, f.Key())
				texts = append(texts, f.Content)
			}
		case "all":
			for _, f := range ex.Files() {
				rec := f.Record()
				names = append(names, rec.Key())
				texts = append(texts, rec.Content)
			}
		default: // protected
			for _, f := range ex.ProtectedFiles() {
				rec := f.Record()
				names = append(names, rec.Key())
				texts = append(texts, rec.Content)
			}
		}
	}

	if delta {
		if builder == nil {
			builder = similarity.NewSegmentBuilder()
		}
		for i := range names {
			builder.Add(names[i], texts[i])
		}
		var seg *similarity.Segment
		added := builder.Len()
		if added > 0 {
			seg = builder.Seal()
		}
		res := s.applyDelta(&deltaOp{seg: seg, remove: req.Remove, ifVersion: ifVersion})
		if res.err != nil {
			var vc *errVersionConflict
			if errors.As(res.err, &vc) {
				writeVersionConflict(w, vc.current)
				return
			}
			// The previous snapshot keeps serving; nothing half-published.
			writeErr(w, http.StatusInternalServerError, "persist_failed", "publish not durable: "+res.err.Error())
			return
		}
		resp.Version = int64(res.version)
		resp.Indexed = res.live
		resp.Added = res.added
		resp.Removed = res.removed
		resp.Persisted = res.persisted
		writeJSON(w, http.StatusOK, resp)
		return
	}

	version, indexed, err := s.publishDocuments(names, texts, ifVersion)
	if err != nil {
		var vc *errVersionConflict
		if errors.As(err, &vc) {
			writeVersionConflict(w, vc.current)
			return
		}
		// The previous snapshot keeps serving; nothing half-published.
		writeErr(w, http.StatusInternalServerError, "persist_failed", "publish not durable: "+err.Error())
		return
	}
	resp.Version = int64(version)
	resp.Indexed = indexed
	resp.Persisted = s.snaps != nil
	writeJSON(w, http.StatusOK, resp)
}

// builderLen is builder.Len() tolerating nil (non-delta NDJSON uploads
// have no builder).
func builderLen(b *similarity.SegmentBuilder) int {
	if b == nil {
		return 0
	}
	return b.Len()
}

// writeVersionConflict answers an If-Version precondition failure with
// the structured 409, naming the live version so the client can re-read
// and retry (PR 5's conditional-publish contract, completed).
func writeVersionConflict(w http.ResponseWriter, current uint64) {
	writeJSON(w, http.StatusConflict, ErrorResponse{Error: ErrorDetail{
		Code:           "version_conflict",
		Message:        "corpus version changed; re-read and retry (current version " + strconv.FormatUint(current, 10) + ")",
		CurrentVersion: current,
	}})
}

// handleRollback serves POST /v1/corpus?version=N: point-in-time rollback
// by conditional republish. The retained version N is loaded from the
// snapshot store, re-validated against its checksums, and published as a
// NEW generation — history stays append-only, so a rollback is itself
// visible, durable, and rollback-able.
func (s *Server) handleRollback(w http.ResponseWriter, verStr string) {
	if s.snaps == nil {
		writeErr(w, http.StatusBadRequest, "no_store", "rollback requires a snapshot store (-data-dir)")
		return
	}
	version, err := strconv.ParseUint(verStr, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_version", "version must be a decimal integer")
		return
	}
	if err := failpoint.Inject(FPRollbackLoad); err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", "rollback: "+err.Error())
		return
	}
	// Load and republish under the publish lock. The retention sweep runs
	// only inside Save, and Save runs only under this lock, so the
	// retained set is frozen from here on: a version that validates below
	// cannot be swept before its contents become the next generation, and
	// a Load miss is a stable fact rather than a race with a concurrent
	// publish. Rollbacks are rare; briefly delaying a concurrent publish's
	// swap is the price of never serving a spurious 404.
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	snap, err := s.snaps.Load(version)
	if errors.Is(err, snapstore.ErrNotFound) {
		// Re-scan to answer precisely: a generation this store once held
		// that the retention sweep removed is a 409 (gone by policy — the
		// client should pick a retained version), while a version that was
		// never published is a plain 404.
		if cur := s.current().version; version >= 1 && version <= cur {
			msg := "version " + verStr + " was removed by the retention sweep"
			if vs, verr := s.snaps.Versions(); verr == nil && len(vs) > 0 {
				msg += fmt.Sprintf(" (retained: %d-%d)", vs[0], vs[len(vs)-1])
			}
			writeErr(w, http.StatusConflict, "version_swept", msg)
			return
		}
		writeErr(w, http.StatusNotFound, "version_not_found", "no snapshot was ever published as version "+verStr)
		return
	}
	if err != nil {
		writeErr(w, http.StatusConflict, "version_corrupt", "retained snapshot failed validation: "+err.Error())
		return
	}
	s.m.corpusPosts.Add(1)
	s.m.rate.tick(time.Now())
	newVersion, indexed, err := s.publishLocked(snap)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "persist_failed", "rollback not durable: "+err.Error())
		return
	}
	// Future deltas build on the rolled-back generation's segments.
	s.idx = similarity.IndexFromSnapshot(snap)
	writeJSON(w, http.StatusOK, CorpusResponse{
		Version:        int64(newVersion),
		Indexed:        indexed,
		Index:          "rollback",
		Persisted:      true,
		RolledBackFrom: version,
	})
}

// handleHealthz is liveness: the process is up and the mux is answering.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", UptimeSeconds: time.Since(s.start).Seconds()})
}

// handleReadyz is readiness: 200 only after boot-time snapshot replay
// completed and before draining began — the window in which a load
// balancer should route traffic here.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	switch {
	case s.draining.Load():
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining for shutdown")
	case !s.ready.Load():
		writeErr(w, http.StatusServiceUnavailable, "not_ready", "snapshot replay in progress")
	default:
		st := s.current()
		writeJSON(w, http.StatusOK, ReadyResponse{
			Ready:         true,
			CorpusVersion: st.version,
			CorpusLen:     st.snap.Len(),
		})
	}
}

// decodeNDJSON reads a streaming newline-delimited corpus upload into req:
// each line is one CorpusLine (a document, a removal, or a repo), decoded
// incrementally under the body-size cap; index and publish modes come from
// the ?index= and ?mode= query parameters. With a non-nil builder (delta
// mode), document lines feed the segment builder directly — the upload is
// tokenized line by line and never accumulated, so peak memory is one
// segment's postings, not the request body. It replies on failure and
// reports whether the handler should continue.
func (s *Server) decodeNDJSON(w http.ResponseWriter, r *http.Request, req *CorpusRequest, builder *similarity.SegmentBuilder) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	for line := 1; ; line++ {
		var l CorpusLine
		err := dec.Decode(&l)
		if err == io.EOF {
			return true
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large", "request body too large")
			} else {
				writeErr(w, http.StatusBadRequest, "bad_json", "bad NDJSON record "+strconv.Itoa(line)+": "+err.Error())
			}
			return false
		}
		switch {
		case l.Repo != nil:
			req.Repos = append(req.Repos, *l.Repo)
		case l.Remove != "":
			req.Remove = append(req.Remove, l.Remove)
		case l.Name != "" || l.Text != "":
			if builder != nil {
				builder.Add(l.Name, l.Text)
			} else {
				req.Documents = append(req.Documents, CorpusDocument{Name: l.Name, Text: l.Text})
			}
		default:
			writeErr(w, http.StatusBadRequest, "bad_record", "NDJSON record "+strconv.Itoa(line)+" has neither document fields, a removal, nor a repo")
			return false
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	st := s.current()
	cs := s.store.Stats()
	p50, p99 := s.m.lat.percentiles()
	now := time.Now()
	uptime := now.Sub(s.start).Seconds()
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds:  uptime,
		CorpusVersion:  st.version,
		CorpusLen:      st.snap.Len(),
		Segments:       st.snap.Segments(),
		Audits:         s.m.audits.Load(),
		AuditCacheHits: s.m.auditCacheHits.Load(),
		SyntaxChecks:   s.m.syntaxChecks.Load(),
		Scans:          s.m.scans.Load(),
		Filters:        s.m.filters.Load(),
		CorpusPosts:    s.m.corpusPosts.Load(),
		Rejected:       s.m.rejected.Load(),
		Violations:     s.m.violations.Load(),
		Batches:        s.m.batches.Load(),
		BatchedAudits:  s.m.batchedJobs.Load(),
		QPS:            s.m.rate.rate(now, uptime),
		QueueDepth:     len(s.queue),
		AuditP50Ms:     p50,
		AuditP99Ms:     p99,
		Cache: CacheStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Entries:   cs.Entries,
			Bytes:     cs.Bytes,
			Evictions: cs.Evictions,
		},
	})
}
