package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freehw/internal/failpoint"
	"freehw/internal/pipeline"
	"freehw/internal/similarity"
)

var updateGolden = flag.Bool("update", false, "rewrite the /v1 golden fixtures in testdata")

const v1Protected = `// Copyright (c) 2023 MegaChip Inc. All rights reserved.
// Proprietary and confidential. Do not distribute.
module secret_core(input [31:0] k, output [31:0] y);
  assign y = (k ^ 32'hDEADBEEF) + 32'h0BADF00D;
endmodule
`

const v1Clean = `module adder(input [3:0] a, b, output [4:0] s);
  assign s = a + b;
endmodule
`

const v1Broken = "module broken(input a; assign"

// do drives the handler and returns status plus raw body bytes.
func do(t *testing.T, h http.Handler, method, path, contentType string, body []byte) (int, []byte) {
	t.Helper()
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The unversioned aliases (/audit, /corpus, ...) were removed in PR 18:
// they answer the structured 404 like any unknown path.
func TestUnversionedPathsGone(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()
	rows := []struct{ method, path string }{
		{http.MethodPost, "/audit"},
		{http.MethodPost, "/syntax"},
		{http.MethodPost, "/scan"},
		{http.MethodPost, "/corpus"},
		{http.MethodGet, "/stats"},
	}
	for _, row := range rows {
		code, body := do(t, s.Handler(), row.method, row.path, "application/json", mustJSON(t, AuditRequest{Code: v1Clean}))
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: %v: %s", row.path, err, body)
		}
		if code != http.StatusNotFound || er.Error.Code != "not_found" {
			t.Errorf("%s %s = %d %+v, want 404 not_found", row.method, row.path, code, er.Error)
		}
	}
}

// checkGolden compares got against the named fixture (rewriting it under
// -update). The fixtures are the /v1 API contract: a diff here is a wire
// format change and must be deliberate.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: response diverged from golden fixture:\ngot:  %swant: %s", name, got, want)
	}
}

// The /v1 responses and error envelopes are pinned by golden fixtures —
// the machine-readable API contract a client can code against.
func TestV1GoldenContract(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()
	h := s.Handler()

	// Empty-corpus audit first, then publish and exercise each endpoint.
	_, body := do(t, h, http.MethodPost, "/v1/audit", "application/json", mustJSON(t, AuditRequest{Code: v1Clean}))
	checkGolden(t, "audit_empty.golden.json", body)

	code, body := do(t, h, http.MethodPost, "/v1/corpus", "application/json", mustJSON(t, CorpusRequest{
		Index: "protected",
		Repos: []CorpusRepo{{Name: "acme/ip", SPDX: "MIT", Files: []CorpusFile{
			{Path: "rtl/secret_core.v", Content: v1Protected},
			{Path: "rtl/clean.v", Content: v1Clean},
			{Path: "rtl/broken.v", Content: v1Broken},
		}}},
	}))
	if code != http.StatusOK {
		t.Fatalf("corpus publish: %d: %s", code, body)
	}
	checkGolden(t, "corpus_publish.golden.json", body)

	_, body = do(t, h, http.MethodPost, "/v1/audit", "application/json", mustJSON(t, AuditRequest{Code: v1Protected}))
	checkGolden(t, "audit_violation.golden.json", body)

	_, body = do(t, h, http.MethodPost, "/v1/audit/batch", "application/json", mustJSON(t, AuditBatchRequest{
		Candidates: []AuditBatchCandidate{
			{Key: "regurgitated", Code: v1Protected},
			{Key: "fresh", Code: v1Clean},
			{Key: "regurgitated-again", Code: v1Protected},
		},
	}))
	checkGolden(t, "audit_batch.golden.json", body)

	_, body = do(t, h, http.MethodPost, "/v1/filter", "application/json", mustJSON(t, FilterRequest{
		Candidates: []FilterCandidate{
			{Key: "kept.v", Code: v1Clean, SPDX: "MIT"},
			{Key: "unlicensed.v", Code: v1Clean + "// unique tail\n"},
			{Key: "dup.v", Code: v1Clean, SPDX: "Apache-2.0"},
			{Key: "protected.v", Code: v1Protected, Licensed: true},
			{Key: "broken.v", Code: v1Broken, Licensed: true},
		},
	}))
	checkGolden(t, "filter_paper_funnel.golden.json", body)

	_, body = do(t, h, http.MethodPost, "/v1/filter", "application/json", mustJSON(t, FilterRequest{
		Stages: []string{"similarity", "syntax"},
		Candidates: []FilterCandidate{
			{Key: "regurgitated.v", Code: v1Protected},
			{Key: "clean.v", Code: v1Clean},
		},
	}))
	checkGolden(t, "filter_similarity.golden.json", body)

	// Error envelopes: stable codes, same shape everywhere.
	_, body = do(t, h, http.MethodGet, "/v1/nope", "", nil)
	checkGolden(t, "error_not_found.golden.json", body)
	_, body = do(t, h, http.MethodGet, "/v1/audit", "", nil)
	checkGolden(t, "error_method_not_allowed.golden.json", body)
	_, body = do(t, h, http.MethodPost, "/v1/filter", "application/json", mustJSON(t, FilterRequest{
		Stages:     []string{"entropy"},
		Candidates: []FilterCandidate{{Code: v1Clean}},
	}))
	checkGolden(t, "error_bad_stage.golden.json", body)
	_, body = do(t, h, http.MethodPost, "/v1/corpus", "application/json", mustJSON(t, CorpusRequest{Index: "everything"}))
	checkGolden(t, "error_bad_index.golden.json", body)
	_, body = do(t, h, http.MethodPost, "/v1/corpus", "application/json", []byte(`{}`))
	checkGolden(t, "error_empty_corpus.golden.json", body)
	_, body = do(t, h, http.MethodPost, "/v1/audit", "application/json", []byte(`{broken`))
	checkGolden(t, "error_bad_json.golden.json", body)
}

// /v1/audit/batch must answer byte-identically to offline Corpus.Best for
// every candidate, share one snapshot generation across the batch, and
// memoize so a repeat batch is all cache hits.
func TestAuditBatchMatchesOffline(t *testing.T) {
	names := make([]string, 40)
	texts := make([]string, 40)
	for i := range names {
		names[i] = fmt.Sprintf("d%d.v", i)
		texts[i] = fmt.Sprintf("module m%d(input [7:0] a, output [7:0] y); assign y = a ^ 8'd%d; endmodule\n", i, i)
	}
	offline := similarity.NewCorpus(names, texts)

	s := NewServer(DefaultConfig())
	defer s.Close()
	s.PublishDocuments(names, texts)

	var req AuditBatchRequest
	for i := 0; i < 64; i++ {
		code := texts[i%len(texts)]
		if i%3 == 0 {
			code = fmt.Sprintf("module q%d(output z); assign z = 1'b%d; endmodule\n", i, i%2)
		}
		req.Candidates = append(req.Candidates, AuditBatchCandidate{Key: fmt.Sprintf("c%d", i), Code: code})
	}
	code, body := do(t, s.Handler(), http.MethodPost, "/v1/audit/batch", "application/json", mustJSON(t, req))
	if code != http.StatusOK {
		t.Fatalf("batch audit: %d: %s", code, body)
	}
	var resp AuditBatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(req.Candidates) || resp.CorpusVersion != 1 || resp.CorpusLen != len(names) {
		t.Fatalf("batch response = %+v", resp)
	}
	for i, res := range resp.Results {
		want := offline.Best(req.Candidates[i].Code)
		got := similarity.Match{Index: -1}
		if res.Best != nil {
			got = similarity.Match{Name: res.Best.Name, Index: res.Best.Index, Score: res.Best.Score}
		}
		if got != want {
			t.Fatalf("candidate %d: served %+v != offline %+v", i, got, want)
		}
		if res.Violation != (want.Index >= 0 && want.Score >= similarity.DefaultThreshold) {
			t.Fatalf("candidate %d: violation flag wrong: %+v", i, res)
		}
		if res.Key != req.Candidates[i].Key {
			t.Fatalf("candidate %d: key %q not echoed", i, res.Key)
		}
	}
	// Second pass: everything answers from the version-keyed memo.
	_, body = do(t, s.Handler(), http.MethodPost, "/v1/audit/batch", "application/json", mustJSON(t, req))
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if !res.Cached {
			t.Fatalf("candidate %d not cached on repeat batch: %+v", i, res)
		}
	}
}

// A slow corpus build must not delay a concurrent publish: the next index
// builds outside the publish lock, so only the version bump serializes.
func TestConcurrentPublishNotBlockedBySlowBuild(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()

	slowEntered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	// Gate only the first build (the slow upload); later publishes pass.
	s.buildGate = func() {
		if first.CompareAndSwap(false, true) {
			close(slowEntered)
			<-release
		}
	}

	slowDone := make(chan CorpusResponse, 1)
	go func() {
		code, body := do(t, s.Handler(), http.MethodPost, "/v1/corpus", "application/json", mustJSON(t, CorpusRequest{
			Index:     "all",
			Documents: []CorpusDocument{{Name: "slow.v", Text: v1Protected}},
		}))
		var cr CorpusResponse
		if code == http.StatusOK {
			json.Unmarshal(body, &cr)
		}
		slowDone <- cr
	}()
	<-slowEntered // the slow upload finished building and is held pre-lock

	// A concurrent publish must complete while the slow one is held. With
	// the pre-PR-5 build-under-lock this deadlocks until release.
	fastDone := make(chan struct{})
	var fastVersion uint64
	go func() {
		fastVersion, _, _ = s.PublishDocuments([]string{"fast.v"}, []string{v1Clean})
		close(fastDone)
	}()
	select {
	case <-fastDone:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent publish blocked behind a slow corpus build")
	}
	if fastVersion != 1 {
		t.Fatalf("fast publish version = %d, want 1", fastVersion)
	}
	// Audits see the fast corpus immediately, version 1.
	_, body := do(t, s.Handler(), http.MethodPost, "/v1/audit", "application/json", mustJSON(t, AuditRequest{Code: v1Clean}))
	var ar AuditResponse
	json.Unmarshal(body, &ar)
	if ar.CorpusVersion != 1 || ar.Best == nil || ar.Best.Name != "fast.v" {
		t.Fatalf("audit during held publish = %+v", ar)
	}

	close(release)
	cr := <-slowDone
	if cr.Version != 2 || cr.Indexed != 1 {
		t.Fatalf("slow publish = %+v", cr)
	}
	_, body = do(t, s.Handler(), http.MethodPost, "/v1/audit", "application/json", mustJSON(t, AuditRequest{Code: v1Protected}))
	json.Unmarshal(body, &ar)
	if ar.CorpusVersion != 2 || ar.Best == nil || ar.Best.Name != "slow.v" {
		t.Fatalf("audit after slow publish = %+v", ar)
	}
}

// /v1/corpus accepts a streaming NDJSON upload: one JSON value per line,
// documents and repos mixed, index mode in the query string.
func TestCorpusNDJSONStreaming(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()

	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.Encode(CorpusLine{Name: "doc1.v", Text: v1Protected})
	enc.Encode(CorpusLine{Name: "doc2.v", Text: "module other(output o); assign o = 1'b1; endmodule\n"})
	enc.Encode(CorpusLine{Repo: &CorpusRepo{Name: "acme/ip", SPDX: "MIT", Files: []CorpusFile{
		{Path: "rtl/clean.v", Content: v1Clean},
		{Path: "rtl/broken.v", Content: v1Broken},
	}}})

	code, body := do(t, s.Handler(), http.MethodPost, "/v1/corpus?index=all", "application/x-ndjson", []byte(b.String()))
	if code != http.StatusOK {
		t.Fatalf("ndjson corpus: %d: %s", code, body)
	}
	var cr CorpusResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	// 2 verbatim documents + 2 extracted repo files.
	if cr.Version != 1 || cr.Indexed != 4 || cr.Index != "all" {
		t.Fatalf("ndjson corpus response = %+v", cr)
	}
	if cr.Funnel == nil || cr.Funnel.TotalFiles != 2 {
		t.Fatalf("ndjson funnel = %+v", cr.Funnel)
	}
	// The streamed documents are audited like any other publish.
	_, body = do(t, s.Handler(), http.MethodPost, "/v1/audit", "application/json", mustJSON(t, AuditRequest{Code: v1Protected}))
	var ar AuditResponse
	json.Unmarshal(body, &ar)
	if !ar.Violation || ar.Best == nil || ar.Best.Name != "doc1.v" {
		t.Fatalf("audit after ndjson publish = %+v", ar)
	}

	// A malformed line reports its record number in the envelope.
	code, body = do(t, s.Handler(), http.MethodPost, "/v1/corpus", "application/x-ndjson",
		[]byte(`{"name":"ok.v","text":"module a(); endmodule"}`+"\n{oops\n"))
	if code != http.StatusBadRequest {
		t.Fatalf("bad ndjson line: %d: %s", code, body)
	}
	var er ErrorResponse
	json.Unmarshal(body, &er)
	if er.Error.Code != "bad_json" || !strings.Contains(er.Error.Message, "record 2") {
		t.Fatalf("bad ndjson envelope = %+v", er)
	}
	// A line with neither shape is rejected explicitly.
	code, body = do(t, s.Handler(), http.MethodPost, "/v1/corpus", "application/x-ndjson", []byte("{}\n"))
	if code != http.StatusBadRequest {
		t.Fatalf("empty ndjson record: %d: %s", code, body)
	}
	json.Unmarshal(body, &er)
	if er.Error.Code != "bad_record" {
		t.Fatalf("empty ndjson record envelope = %+v", er)
	}
}

// /v1/filter composes stage subsets per request and returns the same
// pipeline verdict envelope the offline funnel produces.
func TestFilterStageComposition(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()
	s.PublishDocuments([]string{"secret.v"}, []string{v1Protected})

	// Syntax-only: the protected file passes, broken fails.
	code, body := do(t, s.Handler(), http.MethodPost, "/v1/filter", "application/json", mustJSON(t, FilterRequest{
		Stages: []string{"syntax"},
		Candidates: []FilterCandidate{
			{Key: "p.v", Code: v1Protected},
			{Key: "b.v", Code: v1Broken},
		},
	}))
	if code != http.StatusOK {
		t.Fatalf("filter: %d: %s", code, body)
	}
	var fr FilterResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Verdicts) != 2 || !fr.Verdicts[0].Accept || fr.Verdicts[1].Accept {
		t.Fatalf("syntax-only verdicts = %+v", fr.Verdicts)
	}
	if fr.Verdicts[1].Stage != pipeline.StageSyntax {
		t.Fatalf("rejecting stage = %q", fr.Verdicts[1].Stage)
	}
	if len(fr.Stages) != 1 || fr.Stages[0].In != 2 || fr.Stages[0].Kept != 1 {
		t.Fatalf("stage stats = %+v", fr.Stages)
	}
	if fr.Stages[0].DurationUS != 0 {
		t.Fatalf("timings leaked without request: %+v", fr.Stages)
	}

	// Similarity against the served snapshot: the regurgitated candidate
	// rejects with the matched document in the reason.
	_, body = do(t, s.Handler(), http.MethodPost, "/v1/filter", "application/json", mustJSON(t, FilterRequest{
		Stages:     []string{"similarity"},
		Candidates: []FilterCandidate{{Key: "r.v", Code: v1Protected}},
	}))
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Verdicts[0].Accept || len(fr.Verdicts[0].Reasons) != 1 ||
		!strings.HasPrefix(fr.Verdicts[0].Reasons[0], "similarity:violation:secret.v:") {
		t.Fatalf("similarity verdict = %+v", fr.Verdicts[0])
	}
	if fr.CorpusVersion != 1 {
		t.Fatalf("corpus version = %d", fr.CorpusVersion)
	}

	// Timings appear only on request.
	_, body = do(t, s.Handler(), http.MethodPost, "/v1/filter", "application/json", mustJSON(t, FilterRequest{
		Stages:     []string{"syntax"},
		Candidates: []FilterCandidate{{Key: "p.v", Code: v1Protected}},
		Timings:    true,
	}))
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Stages) != 1 {
		t.Fatalf("stages = %+v", fr.Stages)
	}
}

// Bulk endpoints (/v1/audit/batch, /v1/filter) enforce the candidate cap
// and shed load through the bulkhead with 429 + Retry-After, mirroring
// single-audit admission.
func TestBulkBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatchCandidates = 2
	cfg.MaxInflightBulk = 1
	s := NewServer(cfg)
	defer s.Close()
	s.PublishDocuments([]string{"d.v"}, []string{v1Clean})

	// Over the candidate cap: 413 with a stable code.
	code, body := do(t, s.Handler(), http.MethodPost, "/v1/audit/batch", "application/json", mustJSON(t, AuditBatchRequest{
		Candidates: []AuditBatchCandidate{{Code: "a"}, {Code: "b"}, {Code: "c"}},
	}))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch = %d: %s", code, body)
	}
	var er ErrorResponse
	json.Unmarshal(body, &er)
	if er.Error.Code != "batch_too_large" {
		t.Fatalf("oversized batch envelope = %+v", er)
	}

	// Bulkhead full: the next bulk request sheds with 429 + Retry-After.
	s.bulk <- struct{}{}
	r := httptest.NewRequest(http.MethodPost, "/v1/filter", bytes.NewReader(mustJSON(t, FilterRequest{
		Stages:     []string{"syntax"},
		Candidates: []FilterCandidate{{Code: v1Clean}},
	})))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
		t.Fatalf("held bulkhead = %d (Retry-After %q)", w.Code, w.Header().Get("Retry-After"))
	}
	json.Unmarshal(w.Body.Bytes(), &er)
	if er.Error.Code != "bulk_full" {
		t.Fatalf("bulkhead envelope = %+v", er)
	}
	// The hint reads the bulkhead that refused (1 of 1 held → 1 + 4 = 5),
	// not the idle audit slots.
	if er.Error.RetryAfterSeconds != 5 || w.Header().Get("Retry-After") != "5" {
		t.Fatalf("held bulkhead Retry-After = %q / %d, want 5", w.Header().Get("Retry-After"), er.Error.RetryAfterSeconds)
	}
	<-s.bulk

	// Released: the same requests succeed, and the slot is returned after
	// each (two back-to-back requests share the single slot fine).
	for i := 0; i < 2; i++ {
		code, body = do(t, s.Handler(), http.MethodPost, "/v1/audit/batch", "application/json", mustJSON(t, AuditBatchRequest{
			Candidates: []AuditBatchCandidate{{Code: v1Clean}},
		}))
		if code != http.StatusOK {
			t.Fatalf("post-release batch %d = %d: %s", i, code, body)
		}
	}
}

// /v1/syntax and /v1/scan parse or scan a whole posted body, so they hold
// a bulkhead slot like /v1/filter: with every slot held both shed with 429,
// bulk_full and Retry-After, and once one is free both answer and give
// their slot back.
func TestSyntaxAndScanTakeBulkSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInflightBulk = 1
	s := NewServer(cfg)
	defer s.Close()
	reqs := []struct {
		path string
		body any
	}{
		{"/v1/syntax", SyntaxRequest{Code: v1Broken}},
		{"/v1/scan", ScanRequest{Code: v1Protected}},
	}
	s.bulk <- struct{}{}
	for _, rq := range reqs {
		r := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(mustJSON(t, rq.body)))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		var er ErrorResponse
		json.Unmarshal(w.Body.Bytes(), &er)
		if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" || er.Error.Code != "bulk_full" {
			t.Fatalf("%s with the bulkhead held = %d (Retry-After %q): %s", rq.path, w.Code, w.Header().Get("Retry-After"), w.Body)
		}
	}
	<-s.bulk
	for _, rq := range reqs {
		for i := 0; i < 2; i++ {
			if code, body := do(t, s.Handler(), http.MethodPost, rq.path, "application/json", mustJSON(t, rq.body)); code != http.StatusOK {
				t.Fatalf("%s after release, try %d = %d: %s", rq.path, i, code, body)
			}
		}
	}
	if n := len(s.bulk); n != 0 {
		t.Fatalf("%d bulkhead slots still held after every request answered", n)
	}
}

// countingReader counts the bytes read from it.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// A bulk request the bulkhead sheds is refused before its body is read:
// with every MaxInflightBulk slot held, each bulk endpoint answers 429,
// bulk_full and Retry-After having read 0 bytes of the body. An empty
// batch, checked once the body is read, gives its slot back.
func TestShedBulkReadsNoBody(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInflightBulk = 2
	s := NewServer(cfg)
	defer s.Close()
	for i := 0; i < cfg.MaxInflightBulk; i++ {
		s.bulk <- struct{}{}
	}
	for path, body := range map[string]any{
		"/v1/syntax":      SyntaxRequest{Code: v1Clean},
		"/v1/scan":        ScanRequest{Code: v1Clean},
		"/v1/filter":      FilterRequest{Candidates: []FilterCandidate{{Code: v1Clean}}},
		"/v1/audit/batch": AuditBatchRequest{Candidates: []AuditBatchCandidate{{Code: v1Clean}}},
	} {
		body := &countingReader{r: bytes.NewReader(mustJSON(t, body))}
		r := httptest.NewRequest(http.MethodPost, path, body)
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		var er ErrorResponse
		json.Unmarshal(w.Body.Bytes(), &er)
		if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" || er.Error.Code != "bulk_full" {
			t.Errorf("%s with the bulkhead held = %d (Retry-After %q): %s", path, w.Code, w.Header().Get("Retry-After"), w.Body)
		}
		if n := body.n.Load(); n != 0 {
			t.Errorf("%s read %d bytes of a body it shed", path, n)
		}
	}
	for i := 0; i < cfg.MaxInflightBulk; i++ {
		<-s.bulk
	}
	if code, body := do(t, s.Handler(), http.MethodPost, "/v1/filter", "application/json", mustJSON(t, FilterRequest{})); code != http.StatusBadRequest {
		t.Fatalf("empty filter batch = %d: %s", code, body)
	}
	if n := len(s.bulk); n != 0 {
		t.Fatalf("%d bulkhead slots still held after an empty batch", n)
	}
}

// /stats reports a sliding-window qps (not a lifetime average) and the
// number of audits in flight as its queue depth.
func TestStatsWindowedQPSAndQueueDepth(t *testing.T) {
	defer failpoint.DisableAll()
	cfg := DefaultConfig()
	cfg.QueueDepth = 4
	s := NewServer(cfg)
	defer s.Close()
	s.PublishDocuments([]string{"d.v"}, []string{v1Clean})

	for i := 0; i < 30; i++ {
		do(t, s.Handler(), http.MethodPost, "/v1/audit", "application/json",
			mustJSON(t, AuditRequest{Code: fmt.Sprintf("module q%d(); endmodule", i)}))
	}
	_, body := do(t, s.Handler(), http.MethodGet, "/v1/stats", "", nil)
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Audits != 30 {
		t.Fatalf("audits = %d", st.Audits)
	}
	// 30 requests landed within the last second or two; a lifetime average
	// over a fresh server would be similar, but the windowed rate must be
	// at least the count divided by the (floored) one-second window — i.e.
	// nonzero and large, not diluted.
	if st.QPS < 5 {
		t.Fatalf("windowed qps = %.2f, want the recent burst to dominate", st.QPS)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("idle queue depth = %d", st.QueueDepth)
	}

	// Hold one audit inside admission: the depth must surface.
	entered, release := holdAdmitted(1)
	done := make(chan struct{})
	go func() {
		do(t, s.Handler(), http.MethodPost, "/v1/audit", "application/json", mustJSON(t, AuditRequest{Code: "module h0(); endmodule"}))
		close(done)
	}()
	<-entered
	_, body = do(t, s.Handler(), http.MethodGet, "/v1/stats", "", nil)
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.QueueDepth != 1 {
		t.Fatalf("queue depth with one audit held = %d, want 1", st.QueueDepth)
	}
	release()
	<-done
}
