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
// All non-2xx replies share one structured JSON error envelope
// (ErrorResponse) — including the mux-level 404 and the 429 + Retry-After
// shed response.
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
// and never observe a half-built index. An audit is scored on its own
// handler goroutine once it holds one of QueueDepth admission slots (bulk
// requests hold one of MaxInflightBulk); when every slot is taken the
// service sheds load with 429 instead of stacking goroutines. Verdicts are
// memoized across requests in a shared vcache.Store keyed by content
// hash — and, for audits, by the snapshot version they were computed
// under — so resampled candidates cost a hash lookup.
//
// Four seams, a file each: publisher.go mints corpus versions and knows no
// HTTP, dispatch.go is admission and the single-audit scorer, codec.go
// reads and writes the wire, handlers.go is the glue; this file is what
// they share — Config, Server and its lifecycle.
package serve

import (
	"log"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"freehw/internal/curation"
	"freehw/internal/failpoint"
	"freehw/internal/similarity"
	"freehw/internal/snapstore"
	"freehw/internal/vcache"
)

// Failpoints of the serving layer's crash-relevant boundaries, recovery-
// tested alongside the snapstore write path.
var (
	// FPBeforeSwap fires after a publish is durable on disk but before the
	// snapshot pointer swap: a crash here loses the response, not the data
	// — the restarted server replays the saved version.
	FPBeforeSwap = failpoint.Register("serve/before-swap")
	// FPAdmit fires after an audit claims its admission slot; an injected
	// fault must still release the slot.
	FPAdmit = failpoint.Register("serve/admit")
	// FPBulkAdmit fires after a bulk request claims its bulkhead slot; an
	// injected fault must still release the slot.
	FPBulkAdmit = failpoint.Register("serve/bulk-admit")
	// FPRollbackLoad fires after a rollback request parses its target
	// version and before the publisher takes the publish lock to load the
	// retained snapshot — the widest window in which a concurrent publish (and its
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
	// Workers bounds scoring concurrency inside a bulk request
	// (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds in-flight /v1/audit scoring before the service
	// sheds load with 429 (0 = 256).
	QueueDepth int
	// MaxBodyBytes caps request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// Threshold is the violation threshold (0 = the paper's 0.8).
	Threshold float64
	// Curation configures /corpus funnel runs (dedup parameters key the
	// verdict cache). The zero value works; DefaultConfig uses the paper's
	// FreeSet options.
	Curation curation.Options
	// CacheBudget bounds the verdict cache's resident bytes (segmented-
	// LRU eviction, see vcache.SetBudget) as the store measures them: the
	// entry of a content that was only audited, its analyses and dedup
	// artifacts on top for one that was filtered. Every distinct audited/
	// scanned content inserts an entry, so a long-lived server must be
	// bounded: 0 selects the 256 MiB default, negative means unbounded.
	CacheBudget int64
	// MaxBatchCandidates caps candidates per /v1/audit/batch or
	// /v1/filter request (0 = 4096); larger batches get 413.
	MaxBatchCandidates int
	// MaxInflightBulk bounds concurrently executing bulk requests
	// (/v1/audit/batch and /v1/filter). Beyond it the service sheds load
	// with 429 + Retry-After, mirroring single-audit admission: bulk
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
		Threshold:  similarity.DefaultThreshold,
		Curation:   curation.FreeSetOptions(),
	}
}

func (c *Config) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
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

// Server is the audit service. Create with NewServer, serve via Handler,
// stop the background merger with Close.
type Server struct {
	publisher // the served corpus: s.current() and every way to change it

	cfg   Config
	mux   *http.ServeMux
	store *vcache.Store

	admit chan struct{} // in-flight /v1/audit scoring slots
	bulk  chan struct{} // bulkhead: in-flight /v1/audit/batch + /v1/filter slots
	stop  chan struct{}
	once  sync.Once

	// ready flips on once boot-time snapshot replay completes; draining
	// flips on when shutdown begins. /v1/readyz is 200 only in between,
	// so load balancers neither route to a cold index nor to a server
	// about to exit.
	ready    atomic.Bool
	draining atomic.Bool
	replay   ReplayInfo

	start time.Time
	m     metrics
}

// NewServer builds the service and starts its background merger (unless
// DisableAutoMerge). With a configured snapshot store it replays the
// newest good on-disk version before returning, so the first request
// already sees the warm index; a corrupt or empty store degrades to an
// empty corpus (inspect Replay), never a failed boot.
func NewServer(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:   cfg,
		store: vcache.NewStore(cfg.Curation.Dedup),
		admit: make(chan struct{}, cfg.QueueDepth),
		bulk:  make(chan struct{}, cfg.MaxInflightBulk),
		stop:  make(chan struct{}),
		start: time.Now(),
	}
	if cfg.CacheBudget > 0 {
		s.store.SetBudget(cfg.CacheBudget)
	}
	s.replay = s.open(cfg)
	s.ready.Store(true)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/audit", s.handleAudit)
	s.mux.HandleFunc("/v1/audit/batch", s.handleAuditBatch)
	s.mux.HandleFunc("/v1/filter", s.handleFilter)
	s.mux.HandleFunc("/v1/syntax", s.handleSyntax)
	s.mux.HandleFunc("/v1/scan", s.handleScan)
	s.mux.HandleFunc("/v1/corpus", s.handleCorpus)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/readyz", s.handleReadyz)
	// Unknown paths get the structured envelope, not net/http's plain-text
	// 404 page.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "not_found", "no such endpoint: "+r.URL.Path)
	})
	if !cfg.DisableAutoMerge {
		go s.merger(s.stop)
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

// Close stops the background merger. Requests still being served finish
// normally: every request does its work on its own handler goroutine.
func (s *Server) Close() { s.once.Do(func() { close(s.stop) }) }

// Drain marks the server as shutting down: /v1/readyz flips to 503 so
// load balancers stop routing here, while in-flight work keeps completing.
// The graceful-shutdown sequence is: Drain, http.Server.Shutdown (which
// waits for every handler, and so for every admitted audit), Close.
func (s *Server) Drain() { s.draining.Store(true) }

// Replay reports what boot-time snapshot recovery found (zero value when
// no store is configured).
func (s *Server) Replay() ReplayInfo { return s.replay }

// PublishDocuments replaces the served index with the given documents and
// returns the new generation (see publisher.replace). A persist failure
// keeps the previous snapshot serving and returns the error.
func (s *Server) PublishDocuments(names, texts []string) (version uint64, indexed int, err error) {
	var seg *similarity.Segment
	if len(names) > 0 {
		seg = similarity.BuildSegment(names, texts, s.workers)
	}
	res, err := s.replace(seg, nil)
	return res.version, res.live, err
}
