package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"freehw/internal/failpoint"
	"freehw/internal/similarity"
)

// postJSON drives the handler directly (no sockets) and decodes the reply.
func postJSON(t *testing.T, h http.Handler, path string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if resp != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
			t.Fatalf("%s: bad response %q: %v", path, w.Body.String(), err)
		}
	}
	return w.Code
}

func randVerilog(rng *rand.Rand, idx int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module m%d(input clk, output reg [7:0] q%d);\n", idx, idx)
	for j := 0; j < 6+rng.Intn(10); j++ {
		fmt.Fprintf(&sb, "  wire [7:0] s%d_%d = q%d ^ 8'h%02X;\n", idx, j, idx, rng.Intn(256))
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

// The four endpoints plus /stats, end to end over real HTTP.
func TestServeEndToEnd(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	httpPost := func(path string, req, resp any) int {
		t.Helper()
		body, _ := json.Marshal(req)
		r, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if resp != nil && r.StatusCode == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
				t.Fatal(err)
			}
		}
		return r.StatusCode
	}

	protected := `// Copyright (c) 2023 MegaChip Inc. All rights reserved.
// Proprietary and confidential. Do not distribute.
module secret_core(input [31:0] k, output [31:0] y);
  assign y = (k ^ 32'hDEADBEEF) + 32'h0BADF00D;
endmodule
`
	clean := `module adder(input [3:0] a, b, output [4:0] s);
  assign s = a + b;
endmodule
`
	// Empty corpus: audit answers, nothing matches.
	var audit AuditResponse
	if code := httpPost("/v1/audit", AuditRequest{Code: protected}, &audit); code != http.StatusOK {
		t.Fatalf("audit on empty corpus: %d", code)
	}
	if audit.Best != nil || audit.Violation || audit.CorpusVersion != 0 {
		t.Fatalf("empty-corpus audit = %+v", audit)
	}

	// Publish a corpus of documents.
	var cr CorpusResponse
	if code := httpPost("/v1/corpus", CorpusRequest{Documents: []CorpusDocument{
		{Name: "secret_core.v", Text: protected},
		{Name: "other.v", Text: "module other(input x, output y); assign y = ~x; endmodule"},
	}}, &cr); code != http.StatusOK {
		t.Fatalf("corpus publish: %d", code)
	}
	if cr.Version != 1 || cr.Indexed != 2 {
		t.Fatalf("corpus response = %+v", cr)
	}

	// A regurgitated candidate violates; verdict matches the offline path
	// byte for byte.
	offline := similarity.NewCorpus(
		[]string{"secret_core.v", "other.v"},
		[]string{protected, "module other(input x, output y); assign y = ~x; endmodule"})
	want := offline.Best(protected)
	if code := httpPost("/v1/audit", AuditRequest{Code: protected}, &audit); code != http.StatusOK {
		t.Fatalf("audit: %d", code)
	}
	if audit.Best == nil || !audit.Violation || audit.CorpusVersion != 1 {
		t.Fatalf("audit = %+v", audit)
	}
	if audit.Best.Name != want.Name || audit.Best.Index != want.Index || audit.Best.Score != want.Score {
		t.Fatalf("served verdict %+v != offline %+v", audit.Best, want)
	}
	// The same candidate again is a memo hit with the identical verdict.
	var again AuditResponse
	httpPost("/v1/audit", AuditRequest{Code: protected}, &again)
	if !again.Cached || *again.Best != *audit.Best {
		t.Fatalf("repeat audit not cached or diverged: %+v vs %+v", again, audit)
	}
	// Clean code does not violate.
	httpPost("/v1/audit", AuditRequest{Code: clean}, &audit)
	if audit.Violation {
		t.Fatalf("clean candidate flagged: %+v", audit)
	}
	// TopK returns ordered matches without zero-score padding.
	httpPost("/v1/audit", AuditRequest{Code: protected, TopK: 5}, &audit)
	if len(audit.Matches) == 0 || audit.Matches[0].Score < 0.99 {
		t.Fatalf("topk audit = %+v", audit)
	}
	for _, m := range audit.Matches {
		if m.Score == 0 {
			t.Fatalf("zero-score match served: %+v", audit.Matches)
		}
	}
	// An absurd client-supplied top_k must be clamped to the corpus size,
	// not pre-allocate a heap of that capacity.
	httpPost("/v1/audit", AuditRequest{Code: protected, TopK: 2_000_000_000}, &audit)
	if len(audit.Matches) == 0 || len(audit.Matches) > 2 || !audit.Violation {
		t.Fatalf("huge top_k audit = %+v", audit)
	}

	// Syntax: good and bad.
	var syn SyntaxResponse
	httpPost("/v1/syntax", SyntaxRequest{Code: clean}, &syn)
	if !syn.OK || syn.Error != "" {
		t.Fatalf("clean syntax = %+v", syn)
	}
	httpPost("/v1/syntax", SyntaxRequest{Code: "module broken(input a; assign"}, &syn)
	if syn.OK || syn.Error == "" {
		t.Fatalf("broken syntax = %+v", syn)
	}

	// Scan: protected header flagged, clean file not.
	var scan ScanResponse
	httpPost("/v1/scan", ScanRequest{Code: protected}, &scan)
	if !scan.Protected || len(scan.Reasons) == 0 || scan.Company == "" {
		t.Fatalf("protected scan = %+v", scan)
	}
	httpPost("/v1/scan", ScanRequest{Code: clean}, &scan)
	if scan.Protected {
		t.Fatalf("clean scan = %+v", scan)
	}

	// Stats reflect the traffic.
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Audits < 5 || stats.SyntaxChecks != 2 || stats.Scans != 2 || stats.CorpusPosts != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.AuditCacheHits == 0 || stats.Violations == 0 || stats.CorpusVersion != 1 || stats.CorpusLen != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Batches == 0 || stats.BatchedAudits == 0 {
		t.Fatalf("no batches recorded: %+v", stats)
	}

	// Error paths: wrong method, bad JSON, empty corpus post.
	if gr, _ := http.Get(ts.URL + "/v1/audit"); gr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /audit = %d", gr.StatusCode)
	}
	br, _ := http.Post(ts.URL+"/v1/audit", "application/json", strings.NewReader("{not json"))
	if br.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", br.StatusCode)
	}
	er, _ := http.Post(ts.URL+"/v1/corpus", "application/json", strings.NewReader("{}"))
	if er.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty corpus post = %d", er.StatusCode)
	}
}

// /corpus with repos runs the curation funnel; each index mode publishes
// the right file set.
func TestCorpusUploadModes(t *testing.T) {
	protected := `// Copyright (c) 2021 HyperSilicon Corp. All rights reserved.
// This file is proprietary and confidential.
module hs_crypt(input [15:0] d, output [15:0] q);
  assign q = d ^ 16'hC0DE;
endmodule
`
	clean := `// A permissively licensed counter.
module counter(input clk, rst, output reg [7:0] q);
  always @(posedge clk) if (rst) q <= 0; else q <= q + 1;
endmodule
`
	badSyntax := "module oops(input a; assign y ="
	upload := CorpusRequest{Repos: []CorpusRepo{
		{Name: "acme/ip-mix", SPDX: "MIT", Files: []CorpusFile{
			{Path: "rtl/hs_crypt.v", Content: protected},
			{Path: "rtl/counter.v", Content: clean},
			{Path: "rtl/oops.v", Content: badSyntax},
			{Path: "README.md", Content: "not verilog"},
		}},
	}}

	for _, tc := range []struct {
		mode    string
		indexed int
	}{
		{"protected", 1}, // only the flagged file
		{"curated", 1},   // funnel keeps only the clean file
		{"all", 3},       // every .v file
	} {
		s := NewServer(DefaultConfig())
		req := upload
		req.Index = tc.mode
		var cr CorpusResponse
		if code := postJSON(t, s.Handler(), "/v1/corpus", req, &cr); code != http.StatusOK {
			t.Fatalf("%s: corpus post = %d", tc.mode, code)
		}
		if cr.Indexed != tc.indexed {
			t.Fatalf("%s: indexed %d, want %d (funnel %+v)", tc.mode, cr.Indexed, tc.indexed, cr.Funnel)
		}
		if cr.Funnel == nil || cr.Funnel.TotalFiles != 3 || cr.Funnel.CopyrightRemoved != 1 || cr.Funnel.SyntaxRemoved != 1 {
			t.Fatalf("%s: funnel = %+v", tc.mode, cr.Funnel)
		}
		// In protected mode the protected file must be auditable.
		if tc.mode == "protected" {
			var audit AuditResponse
			postJSON(t, s.Handler(), "/v1/audit", AuditRequest{Code: protected}, &audit)
			if !audit.Violation || audit.Best == nil || !strings.Contains(audit.Best.Name, "hs_crypt") {
				t.Fatalf("protected upload not served: %+v", audit)
			}
		}
		s.Close()
	}
}

// When every admission slot is taken the service sheds load with 429
// instead of queueing unboundedly. FPAdmit holds the admitted audit so
// the slot state is deterministic.
func TestAuditBackpressure(t *testing.T) {
	defer failpoint.DisableAll()
	cfg := DefaultConfig()
	cfg.QueueDepth = 1
	s := NewServer(cfg)
	defer s.Close()
	s.PublishDocuments([]string{"d"}, []string{"module d(input x, output y); assign y = x; endmodule"})

	entered, release := holdAdmitted(1)
	held := make(chan int)
	go func() {
		held <- postJSON(t, s.Handler(), "/v1/audit", AuditRequest{Code: "module q0(); endmodule"}, nil)
	}()
	<-entered
	// The one slot is taken: the next audit must shed.
	if code := postJSON(t, s.Handler(), "/v1/audit", AuditRequest{Code: "module q1(); endmodule"}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d", code)
	}
	release()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request = %d", code)
	}
	var stats StatsResponse
	r := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	json.Unmarshal(w.Body.Bytes(), &stats)
	if stats.Rejected != 1 {
		t.Fatalf("rejected = %d", stats.Rejected)
	}
}

// An audit held inside admission holds only its own slot: another audit
// on the same server is scored and answered meanwhile.
func TestHeldAuditBlocksNoOther(t *testing.T) {
	defer failpoint.DisableAll()
	s := NewServer(DefaultConfig())
	defer s.Close()
	s.PublishDocuments([]string{"d"}, []string{"module d(input x, output y); assign y = x; endmodule"})

	entered, release := holdAdmitted(1)
	held := make(chan int)
	go func() {
		held <- postJSON(t, s.Handler(), "/v1/audit", AuditRequest{Code: "module q0(); endmodule"}, nil)
	}()
	<-entered
	var resp AuditResponse
	if code := postJSON(t, s.Handler(), "/v1/audit", AuditRequest{Code: "module q1(); endmodule"}, &resp); code != http.StatusOK {
		t.Fatalf("audit beside a held one = %d, want 200", code)
	}
	if resp.Best == nil || resp.Cached {
		t.Fatalf("audit beside a held one was not scored: %+v", resp)
	}
	release()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request = %d", code)
	}
}

// A 160 KB body of 32 000 macro uses, each expansion of which copies the
// rest of the file, gets a prompt "bad" syntax verdict naming the lexer's
// expansion budget instead of exhausting memory.
func TestSyntaxMacroFlood(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()
	code := "`define W 1'b0\nmodule m; wire [31999:0] w = {" + strings.Repeat("`W , ", 31999) + "`W}; endmodule\n"
	var syn SyntaxResponse
	if got := postJSON(t, s.Handler(), "/v1/syntax", SyntaxRequest{Code: code}, &syn); got != http.StatusOK {
		t.Fatalf("/v1/syntax = %d", got)
	}
	if syn.OK || !strings.Contains(syn.Error, "macro expansion budget") {
		t.Fatalf("macro flood syntax = %+v", syn)
	}
}

// Audits hammered concurrently with corpus publishes must never race
// (run with -race), and every verdict must be byte-identical to the
// offline Corpus.Best of the snapshot generation that served it — the
// old snapshot keeps answering until the swap.
func TestConcurrentAuditDuringPublish(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const versions = 4
	docSets := make([][]string, versions+1)
	nameSets := make([][]string, versions+1)
	offline := make([]*similarity.Corpus, versions+1)
	for v := 1; v <= versions; v++ {
		n := 20 + v*5
		names := make([]string, n)
		texts := make([]string, n)
		for i := range texts {
			names[i] = fmt.Sprintf("v%d_d%d.v", v, i)
			texts[i] = randVerilog(rng, v*1000+i)
		}
		nameSets[v], docSets[v] = names, texts
		offline[v] = similarity.NewCorpus(names, texts)
	}
	queries := make([]string, 64)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = docSets[1+i%versions][i%10] // exact corpus hits
		} else {
			queries[i] = randVerilog(rng, 9000+i)
		}
	}

	cfg := DefaultConfig()
	cfg.QueueDepth = 512
	s := NewServer(cfg)
	defer s.Close()
	s.PublishDocuments(nameSets[1], docSets[1])

	var served, shed, mismatches atomic.Int64
	var wg sync.WaitGroup
	stopPub := make(chan struct{})
	// Publisher: swap through versions 2..4 while audits are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 2; v <= versions; v++ {
			var cr CorpusResponse
			var docs []CorpusDocument
			for i := range docSets[v] {
				docs = append(docs, CorpusDocument{Name: nameSets[v][i], Text: docSets[v][i]})
			}
			if code := postJSON(t, s.Handler(), "/v1/corpus", CorpusRequest{Index: "all", Documents: docs}, &cr); code != http.StatusOK {
				t.Errorf("publish v%d: %d", v, code)
			}
			if cr.Version != int64(v) {
				t.Errorf("publish got version %d, want %d", cr.Version, v)
			}
		}
		close(stopPub)
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(int64(g)))
			i := 0
			for {
				select {
				case <-stopPub:
					if i > 20 { // keep auditing a little past the last swap
						return
					}
				default:
				}
				i++
				q := queries[grng.Intn(len(queries))]
				body, _ := json.Marshal(AuditRequest{Code: q})
				r := httptest.NewRequest(http.MethodPost, "/v1/audit", bytes.NewReader(body))
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, r)
				switch w.Code {
				case http.StatusTooManyRequests:
					shed.Add(1)
					continue
				case http.StatusOK:
				default:
					t.Errorf("audit status %d: %s", w.Code, w.Body.String())
					return
				}
				var resp AuditResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Errorf("bad audit body: %v", err)
					return
				}
				if resp.CorpusVersion < 1 || resp.CorpusVersion > versions {
					t.Errorf("impossible version %d", resp.CorpusVersion)
					return
				}
				want := offline[resp.CorpusVersion].Best(q)
				got := similarity.Match{Index: -1}
				if resp.Best != nil {
					got = similarity.Match{Name: resp.Best.Name, Index: resp.Best.Index, Score: resp.Best.Score}
				}
				if got != want {
					mismatches.Add(1)
					t.Errorf("v%d verdict %+v != offline %+v", resp.CorpusVersion, got, want)
					return
				}
				served.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no audits served")
	}
	if mismatches.Load() > 0 {
		t.Fatalf("%d verdicts diverged from offline scoring (%d served, %d shed)",
			mismatches.Load(), served.Load(), shed.Load())
	}
	// After the last publish settles, audits answer from version 4.
	var final AuditResponse
	postJSON(t, s.Handler(), "/v1/audit", AuditRequest{Code: queries[0]}, &final)
	if final.CorpusVersion != versions {
		t.Fatalf("final version = %d", final.CorpusVersion)
	}
}
