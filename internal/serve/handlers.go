package serve

import (
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"freehw/internal/curation"
	"freehw/internal/failpoint"
	"freehw/internal/gitsim"
	"freehw/internal/license"
	"freehw/internal/pipeline"
	"freehw/internal/similarity"
	"freehw/internal/vcache"
)

// The handlers: admission, one call into the scorer, the publisher, the
// verdict store or the pipeline, and a response.

// allow answers 405 unless the request uses the endpoint's one method.
func allow(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", method+" only")
	}
	return r.Method == method
}

// handleAudit is the audit hot path: memo lookup, admission, score,
// respond. The latency histogram's wall-clock reads are the one
// sanctioned exception, annotated below; everything else stays
// allocation- and reflection-free.
//
//freehw:hotpath
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
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
	key := vcache.KeyOf(req.Code)

	// Cross-request memo: same content under the live snapshot generation
	// answers without taking an admission slot or touching the index.
	if req.TopK <= 1 {
		st := s.current()
		if m, ok := s.remembered(st, key); ok {
			s.m.auditCacheHits.Add(1)
			s.respondAudit(w, auditResult{best: m, version: st.version, length: st.snap.Len()}, threshold, true)
			s.m.lat.record(time.Since(startT)) //freehw:nolint hotpath -- latency metric needs the second read; boundary cost, not per-posting
			return
		}
	}

	if !s.claim(w, s.admit, FPAdmit, "queue_full", "too many in-flight audits") {
		return
	}
	defer func() { <-s.admit }() // deferred, so a panic cannot leak the slot
	s.respondAudit(w, s.score(req.Code, req.TopK, key), threshold, false)
	s.m.lat.record(time.Since(startT)) //freehw:nolint hotpath -- latency metric needs the second read; boundary cost, not per-posting
}

// remembered returns the verdict the store remembers for key under st's
// version, named from st's snapshot. A record holds no name, and the
// snapshot of the version it was computed under names its index exactly:
// a merge swaps at the same version and keeps every global live index,
// and every other publish mints a new version.
//
//freehw:hotpath
func (s *Server) remembered(st *corpusState, key vcache.Key) (similarity.Match, bool) {
	i, score, ok := s.store.CachedBestMatch(key, st.version)
	if !ok {
		return similarity.Match{}, false
	}
	m := similarity.Match{Index: i, Score: score}
	if i >= 0 {
		m.Name = st.snap.Name(i)
	}
	return m, true
}

func (s *Server) respondAudit(w http.ResponseWriter, res auditResult, threshold float64, cached bool) {
	violation := res.best.Index >= 0 && res.best.Score >= threshold
	if violation {
		s.m.violations.Add(1)
	}
	if !writeAuditFast(w, &res, threshold, violation, cached) {
		writeJSON(w, http.StatusOK, auditResponse(&res, threshold, violation, cached))
	}
}

// auditResponse is the verdict as a wire struct: the encoding/json
// rendering writeAuditFast must match byte for byte, and its fallback.
func auditResponse(res *auditResult, threshold float64, violation, cached bool) AuditResponse {
	resp := AuditResponse{
		Violation:     violation,
		Threshold:     threshold,
		CorpusVersion: res.version,
		CorpusLen:     res.length,
		Cached:        cached,
		NoMatch:       res.best.Index < 0,
	}
	if m := res.best; m.Index >= 0 {
		resp.Best = &AuditMatch{Name: m.Name, Index: m.Index, Score: m.Score}
	}
	for _, m := range res.matches {
		resp.Matches = append(resp.Matches, AuditMatch{Name: m.Name, Index: m.Index, Score: m.Score})
	}
	return resp
}

// handleAuditBatch audits a whole candidate batch against one snapshot
// load: memo hits answer immediately, the misses go through one
// deduplicated BestBatch, one Best per distinct text. This is the bulk face
// of /v1/audit — same verdicts, amortized cost.
func (s *Server) handleAuditBatch(w http.ResponseWriter, r *http.Request) {
	var req AuditBatchRequest
	if !s.decodeBulk(w, r, &req) {
		return
	}
	defer func() { <-s.bulk }()
	if !s.batchFits(w, len(req.Candidates)) {
		return
	}
	startT := time.Now()
	s.m.audits.Add(int64(len(req.Candidates)))
	s.m.rate.tick(startT)
	threshold := req.Threshold
	if threshold <= 0 {
		threshold = s.cfg.Threshold
	}

	st := s.current()
	n := len(req.Candidates)
	resp := AuditBatchResponse{
		Results:       make([]AuditBatchResult, n),
		Threshold:     threshold,
		CorpusVersion: st.version,
		CorpusLen:     st.snap.Len(),
	}
	arena := make([]AuditMatch, n) // one alloc for all Best pointers
	verdict := func(i int, m similarity.Match, cached bool) {
		res := &resp.Results[i]
		res.Key, res.Cached, res.NoMatch = req.Candidates[i].Key, cached, m.Index < 0
		if m.Index < 0 {
			return
		}
		arena[i] = AuditMatch{Name: m.Name, Index: m.Index, Score: m.Score}
		res.Best = &arena[i]
		if res.Violation = m.Score >= threshold; res.Violation {
			s.m.violations.Add(1)
			resp.Violations++
		}
	}
	keys := make([]vcache.Key, n)
	missIdx := make([]int, 0, n)
	missTexts := make([]string, 0, n)
	for i, c := range req.Candidates {
		keys[i] = vcache.KeyOf(c.Code)
		if m, ok := s.remembered(st, keys[i]); ok {
			s.m.auditCacheHits.Add(1)
			verdict(i, m, true)
		} else {
			missIdx = append(missIdx, i)
			missTexts = append(missTexts, c.Code)
		}
	}
	if len(missTexts) > 0 {
		s.m.batches.Add(1)
		s.m.batchedJobs.Add(int64(len(missTexts)))
		for j, m := range st.snap.BestBatch(s.cfg.Workers, missTexts) {
			s.store.StoreBestMatch(keys[missIdx[j]], st.version, m.Index, m.Score)
			verdict(missIdx[j], m, false)
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
			stages = append(stages, pipeline.Dedup(s.cfg.Curation.Dedup))
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
	var req FilterRequest
	if !s.decodeBulk(w, r, &req) {
		return
	}
	defer func() { <-s.bulk }()
	if !s.batchFits(w, len(req.Candidates)) {
		return
	}
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
	var req SyntaxRequest
	if !s.decodeBulk(w, r, &req) {
		return
	}
	defer func() { <-s.bulk }()
	s.m.syntaxChecks.Add(1)
	s.m.rate.tick(time.Now())
	// The verdict is the one the offline funnel's syntax stage memoizes in
	// the server's store, and the check that decides it gives the message.
	resp := SyntaxResponse{OK: true}
	if err := s.store.Entry(req.Code).SyntaxErr(req.Code); err != nil {
		resp.OK, resp.Error = false, err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	var req ScanRequest
	if !s.decodeBulk(w, r, &req) {
		return
	}
	defer func() { <-s.bulk }()
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

// handleCorpus serves POST /v1/corpus. A JSON body carries one
// CorpusRequest; a streaming NDJSON body (Content-Type
// application/x-ndjson, index mode via the ?index= query parameter, publish
// mode via ?mode=) carries one document, removal, or repo per line — the
// shape a crawler pipes without buffering the whole upload in the client.
// Either way the next index builds outside the publish lock.
//
// mode=replace (the default) rebuilds the corpus from the request alone.
// mode=delta (alias: append) publishes an incremental generation: the
// uploaded documents become one new segment, removals tombstone existing
// names, and the publish costs O(delta + segments) — never O(corpus).
// In either mode and format one pass of bodyScanner (codec.go) reads the
// body through the size cap, record by record, and each document goes
// straight into one segment builder — a JSON body may name its mode after
// its documents — so peak memory is O(segment) plus the largest record, not
// O(upload); a JSON body may carry one "documents" key (a second is 400
// bad_json), and a body over the cap is 413 wherever the cap falls. ?version=N rolls
// back to retained version N instead. An If-Version request header makes
// any of the three conditional: the publish applies only if the live
// corpus version still matches, else 409 version_conflict — and of the
// conditional publishes naming one version, exactly one can win.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
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
	if v := r.URL.Query().Get("version"); v != "" {
		s.handleRollback(w, v, ifVersion)
		return
	}
	var req CorpusRequest
	builder := similarity.NewSegmentBuilder()
	if strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		req.Index = r.URL.Query().Get("index")
		req.Mode = r.URL.Query().Get("mode")
		if !s.decodeNDJSON(w, r, &req, builder.Add) {
			return
		}
	} else if err := decodeCorpus(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &req, builder.Add); err != nil {
		writeBodyErr(w, "bad request", err)
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
	if builder.Len() == 0 && len(req.Repos) == 0 && (!delta || len(req.Remove) == 0) {
		writeErr(w, http.StatusBadRequest, "empty_corpus", "no documents or repos")
		return
	}
	s.m.corpusPosts.Add(1)
	s.m.rate.tick(time.Now())

	resp := CorpusResponse{Index: mode}
	if len(req.Repos) > 0 {
		repos := make([]gitsim.RepoData, len(req.Repos))
		for i, rr := range req.Repos {
			repos[i] = gitsim.RepoData{Meta: gitsim.RepoMeta{FullName: rr.Name, SPDX: rr.SPDX}}
			for _, f := range rr.Files {
				repos[i].Files = append(repos[i].Files, gitsim.RepoFile{Path: f.Path, Content: f.Content})
			}
		}
		// The server owns its verdict store; funnel runs always read
		// through it.
		opt := s.cfg.Curation
		ex := curation.ExtractWithCache(repos, opt.Dedup, opt.Workers, s.store)
		res := curation.RunExtracted(ex, opt)
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
		files := res.Files // curated
		if mode != "curated" {
			extracted := ex.ProtectedFiles()
			if mode == "all" {
				extracted = ex.Files()
			}
			files = nil
			for _, f := range extracted {
				files = append(files, f.Record())
			}
		}
		for _, f := range files {
			builder.Add(f.Key(), f.Content)
		}
	}

	var seg *similarity.Segment
	if builder.Len() > 0 {
		seg = builder.Seal()
	}
	var res published
	var err error
	if delta {
		res, err = s.delta(seg, req.Remove, ifVersion)
	} else {
		res, err = s.replace(seg, ifVersion)
	}
	if err != nil {
		writePublishErr(w, err)
		return
	}
	resp.Version, resp.Indexed, resp.Added, resp.Removed = int64(res.version), res.live, res.added, res.removed
	resp.Persisted = s.snaps != nil
	writeJSON(w, http.StatusOK, resp)
}

// handleRollback serves POST /v1/corpus?version=N: point-in-time rollback
// by conditional republish of a retained version.
func (s *Server) handleRollback(w http.ResponseWriter, verStr string, ifVersion *uint64) {
	version, err := strconv.ParseUint(verStr, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_version", "version must be a decimal integer")
		return
	}
	if err := failpoint.Inject(FPRollbackLoad); err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", "rollback: "+err.Error())
		return
	}
	s.m.corpusPosts.Add(1)
	s.m.rate.tick(time.Now())
	res, err := s.rollback(version, ifVersion)
	if err != nil {
		writePublishErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, CorpusResponse{
		Version:        int64(res.version),
		Indexed:        res.live,
		Index:          "rollback",
		Persisted:      true,
		RolledBackFrom: version,
	})
}

// writePublishErr is the one mapping from the publisher's failures to the
// error envelope: the code and message travel as they are, the code picks
// the status.
func writePublishErr(w http.ResponseWriter, err error) {
	var pe *publishError
	if !errors.As(err, &pe) {
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	status := http.StatusConflict // codeConflict, codeSwept, codeCorrupt
	switch pe.code {
	case codeNoStore:
		status = http.StatusBadRequest
	case codeNotFound:
		status = http.StatusNotFound
	case codePersist:
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, ErrorResponse{Error: ErrorDetail{Code: pe.code, Message: pe.msg, CurrentVersion: pe.current}})
}

// handleHealthz is liveness: the process is up and the mux is answering.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", UptimeSeconds: time.Since(s.start).Seconds()})
}

// handleReadyz is readiness: 200 until draining begins — NewServer returns
// only after boot-time snapshot replay, so that is the whole window in
// which a load balancer should route traffic here.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	switch {
	case s.draining.Load():
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining for shutdown")
	default:
		st := s.current()
		writeJSON(w, http.StatusOK, ReadyResponse{
			Ready:         true,
			CorpusVersion: st.version,
			CorpusLen:     st.snap.Len(),
		})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
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
		QueueDepth:     len(s.admit),
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
