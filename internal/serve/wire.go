package serve

import "freehw/internal/pipeline"

// Wire types for the audit service. Everything is plain JSON so any
// generation pipeline (AutoVCoder/VFlow-style samplers, CI gates, editor
// plugins) can call the service without a client library.
//
// The surface lives under /v1 (/v1/audit, /v1/audit/batch, /v1/filter,
// /v1/corpus, /v1/syntax, /v1/scan, /v1/stats).

// AuditRequest asks for the §III-A infringement verdict on one candidate
// completion.
type AuditRequest struct {
	// Code is the candidate Verilog to audit.
	Code string `json:"code"`
	// TopK, when > 1, returns the k closest corpus matches instead of
	// just the best one.
	TopK int `json:"top_k,omitempty"`
	// Threshold overrides the server's violation threshold for this
	// request when > 0 (paper default: 0.8).
	Threshold float64 `json:"threshold,omitempty"`
}

// AuditMatch is one corpus match.
type AuditMatch struct {
	Name  string  `json:"name"`
	Index int     `json:"index"`
	Score float64 `json:"score"`
}

// AuditResponse is the verdict. Best is absent when nothing in the corpus
// shares a term with the candidate (or the corpus is empty); NoMatch then
// says so explicitly, so clients distinguish "audited, nothing matched"
// from a response that merely omitted the field.
type AuditResponse struct {
	Best          *AuditMatch  `json:"best,omitempty"`
	Matches       []AuditMatch `json:"matches,omitempty"`
	Violation     bool         `json:"violation"`
	Threshold     float64      `json:"threshold"`
	CorpusVersion uint64       `json:"corpus_version"`
	CorpusLen     int          `json:"corpus_len"`
	// Cached marks a verdict served from the cross-request memo (same
	// content hash, same corpus version) without touching the index.
	Cached bool `json:"cached"`
	// NoMatch is the explicit no-match verdict: the candidate shares no
	// indexed term with any corpus document, so there is no best match
	// and no violation at any threshold.
	NoMatch bool `json:"no_match,omitempty"`
}

// SyntaxRequest asks for the curation syntax-filter verdict.
type SyntaxRequest struct {
	Code string `json:"code"`
}

// SyntaxResponse reports the vlog verdict: the streaming QuickCheck
// decides well-formed files, the full parser everything suspicious.
type SyntaxResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// ScanRequest asks for the per-file copyright screen.
type ScanRequest struct {
	Code string `json:"code"`
}

// ScanResponse reports the header/body copyright scan.
type ScanResponse struct {
	Protected bool     `json:"protected"`
	Reasons   []string `json:"reasons,omitempty"`
	Company   string   `json:"company,omitempty"`
	BodyHits  []string `json:"body_hits,omitempty"`
}

// CorpusDocument is one pre-vetted protected document, indexed as-is.
type CorpusDocument struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// CorpusFile is one file of an uploaded repository.
type CorpusFile struct {
	Path    string `json:"path"`
	Content string `json:"content"`
}

// CorpusRepo is one uploaded repository, run through the curation funnel.
type CorpusRepo struct {
	Name  string       `json:"name"`
	SPDX  string       `json:"spdx,omitempty"`
	Files []CorpusFile `json:"files"`
}

// CorpusRequest replaces the served index. Documents are indexed verbatim;
// Repos run through the curation funnel first, and Index selects which of
// their files join the published corpus:
//
//   - "protected" (default): files the copyright screen flags — the
//     §III-A reference corpus hiding inside the upload
//   - "curated": the FreeSet funnel output (license gate, dedup,
//     copyright screen, syntax check)
//   - "all": every extracted Verilog file
//
// Mode selects the publish semantics:
//
//   - "replace" (default): the request's documents become the whole
//     corpus, as before
//   - "delta" (alias "append"): the documents become ONE new segment
//     appended to the served corpus and Remove tombstones existing
//     names — the publish costs O(delta + segments), never O(corpus)
//
// An If-Version request header makes either mode conditional on the
// live corpus version (mismatch answers 409 version_conflict naming the
// current version).
type CorpusRequest struct {
	Index     string           `json:"index,omitempty"`
	Mode      string           `json:"mode,omitempty"`
	Documents []CorpusDocument `json:"documents,omitempty"`
	Repos     []CorpusRepo     `json:"repos,omitempty"`
	// Remove lists document names to tombstone (delta mode only). Every
	// live occurrence of each name is removed.
	Remove []string `json:"remove,omitempty"`
}

// FunnelCounts mirrors the curation funnel stages for uploaded repos.
type FunnelCounts struct {
	ReposSeen        int `json:"repos_seen"`
	ReposLicensed    int `json:"repos_licensed"`
	TotalFiles       int `json:"total_files"`
	AfterLicense     int `json:"after_license"`
	AfterDedup       int `json:"after_dedup"`
	CopyrightRemoved int `json:"copyright_removed"`
	SyntaxRemoved    int `json:"syntax_removed"`
	FinalFiles       int `json:"final_files"`
}

// CorpusResponse reports the published index.
type CorpusResponse struct {
	Version int64         `json:"version"`
	Indexed int           `json:"indexed"`
	Index   string        `json:"index"`
	Funnel  *FunnelCounts `json:"funnel,omitempty"`
	// Persisted reports that the published version was durably saved to
	// the snapshot store before it started serving (absent when the
	// server runs without persistence).
	Persisted bool `json:"persisted,omitempty"`
	// RolledBackFrom, on a /v1/corpus?version=N rollback, is the retained
	// version whose contents the new generation republished.
	RolledBackFrom uint64 `json:"rolled_back_from,omitempty"`
	// Added and Removed report a delta publish's effect: documents
	// appended as the new segment, and live documents tombstoned. In
	// delta responses Indexed is the TOTAL live corpus size after the
	// publish, not the per-request count.
	Added   int `json:"added,omitempty"`
	Removed int `json:"removed,omitempty"`
}

// HealthResponse is the GET /v1/healthz payload: process liveness.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_s"`
}

// ReadyResponse is the GET /v1/readyz 200 payload: snapshot replay has
// completed and the server is not draining. Not-ready states answer 503
// with the structured error envelope (codes "not_ready", "draining").
type ReadyResponse struct {
	Ready         bool   `json:"ready"`
	CorpusVersion uint64 `json:"corpus_version"`
	CorpusLen     int    `json:"corpus_len"`
}

// CacheStats mirrors the shared verdict cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions"`
}

// StatsResponse is the /stats and /v1/stats payload.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_s"`
	CorpusVersion uint64  `json:"corpus_version"`
	CorpusLen     int     `json:"corpus_len"`
	// Segments is the served snapshot's segment count — delta publishes
	// append one each; the background merger compacts them back down.
	Segments       int   `json:"segments"`
	Audits         int64 `json:"audits"`
	AuditCacheHits int64 `json:"audit_cache_hits"`
	SyntaxChecks   int64 `json:"syntax_checks"`
	Scans          int64 `json:"scans"`
	Filters        int64 `json:"filters"`
	CorpusPosts    int64 `json:"corpus_posts"`
	Rejected       int64 `json:"rejected"`
	Violations     int64 `json:"violations"`
	// Batches counts scoring passes — one per /v1/audit that was scored,
	// one per /v1/audit/batch with memo misses — and BatchedAudits the
	// candidates they scored, so their ratio is the mean pass size.
	Batches       int64 `json:"batches"`
	BatchedAudits int64 `json:"batched_audits"`
	// QPS is request throughput over a sliding 60-second window (shorter
	// while uptime is below 60s), not a lifetime average.
	QPS float64 `json:"qps"`
	// QueueDepth is the number of /v1/audit requests holding an
	// admission slot right now (at most Config.QueueDepth).
	QueueDepth int        `json:"queue_depth"`
	AuditP50Ms float64    `json:"audit_p50_ms"`
	AuditP99Ms float64    `json:"audit_p99_ms"`
	Cache      CacheStats `json:"cache"`
}

// ErrorDetail is the machine-readable error payload: a stable snake_case
// code for programs plus a human-readable message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds accompanies 429 shed responses: the backoff hint
	// of the Retry-After header, derived from the semaphore that refused,
	// for clients that only parse the JSON body.
	RetryAfterSeconds int `json:"retry_after_s,omitempty"`
	// CurrentVersion accompanies 409 version_conflict responses: the live
	// corpus version the If-Version precondition was compared against, so
	// conditional publishers can re-read and retry without a second round
	// trip.
	CurrentVersion uint64 `json:"current_version,omitempty"`
}

// ErrorResponse is the uniform structured envelope of every non-2xx reply
// (including the mux-level 404 and the 429 + Retry-After shed response).
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// AuditBatchCandidate is one candidate of a batch audit. Key is echoed
// back so clients can correlate results; it does not affect the verdict.
type AuditBatchCandidate struct {
	Key  string `json:"key,omitempty"`
	Code string `json:"code"`
}

// AuditBatchRequest audits many candidates in one request: the whole batch
// shares a single snapshot load and one deduplicated BestBatch index pass,
// so screening a RAG corpus or a sampler's n-best list costs far less than
// n separate /v1/audit calls.
type AuditBatchRequest struct {
	Candidates []AuditBatchCandidate `json:"candidates"`
	// Threshold overrides the server's violation threshold when > 0.
	Threshold float64 `json:"threshold,omitempty"`
}

// AuditBatchResult is one candidate's verdict within a batch.
type AuditBatchResult struct {
	Key       string      `json:"key,omitempty"`
	Best      *AuditMatch `json:"best,omitempty"`
	Violation bool        `json:"violation"`
	Cached    bool        `json:"cached"`
	// NoMatch marks the explicit no-match verdict (see AuditResponse).
	NoMatch bool `json:"no_match,omitempty"`
}

// AuditBatchResponse reports the batch verdicts, in request order, all
// computed against one corpus snapshot.
type AuditBatchResponse struct {
	Results       []AuditBatchResult `json:"results"`
	Violations    int                `json:"violations"`
	Threshold     float64            `json:"threshold"`
	CorpusVersion uint64             `json:"corpus_version"`
	CorpusLen     int                `json:"corpus_len"`
}

// FilterCandidate is one candidate of a /v1/filter run. Licensed (or an
// accepted SPDX id) feeds the license stage; bare candidates fail it.
type FilterCandidate struct {
	Key      string `json:"key,omitempty"`
	Code     string `json:"code"`
	SPDX     string `json:"spdx,omitempty"`
	Licensed bool   `json:"licensed,omitempty"`
}

// FilterRequest runs any stage subset over a candidate batch — the
// offline curation funnel as an online, per-request composition. Stages
// execute in the order given; an empty list selects the paper's four
// stages ("license", "dedup", "copyright", "syntax"). "similarity" adds
// the §III-A infringement check against the served corpus snapshot.
type FilterRequest struct {
	Stages     []string          `json:"stages,omitempty"`
	Candidates []FilterCandidate `json:"candidates"`
	// Threshold overrides the similarity stage's violation threshold.
	Threshold float64 `json:"threshold,omitempty"`
	// Timings includes per-stage wall-clock durations in the response
	// (off by default so responses are deterministic for fixtures).
	Timings bool `json:"timings,omitempty"`
}

// FilterStageStat reports one executed stage: the funnel shape plus,
// when requested, wall time.
type FilterStageStat struct {
	Stage      string `json:"stage"`
	In         int    `json:"in"`
	Kept       int    `json:"kept"`
	DurationUS int64  `json:"duration_us,omitempty"`
}

// FilterResponse carries the pipeline's verdict envelopes verbatim — the
// same object the offline curation funnel computes.
type FilterResponse struct {
	Verdicts []pipeline.Verdict `json:"verdicts"`
	Stages   []FilterStageStat  `json:"stages"`
	// CorpusVersion identifies the snapshot a similarity stage consulted
	// (the live version when the stage was not requested).
	CorpusVersion uint64 `json:"corpus_version"`
}

// CorpusLine is one NDJSON line of a streaming /v1/corpus upload: a
// verbatim document (name/text), a removal (delta mode), or a repository
// to run through the funnel. In delta mode document lines stream straight
// into the new segment's builder, so an arbitrarily large upload peaks at
// one segment's memory.
type CorpusLine struct {
	Name   string      `json:"name,omitempty"`
	Text   string      `json:"text,omitempty"`
	Remove string      `json:"remove,omitempty"`
	Repo   *CorpusRepo `json:"repo,omitempty"`
}
