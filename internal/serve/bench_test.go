package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"freehw/internal/corpus"
	"freehw/internal/similarity"
	"freehw/internal/snapstore"
)

// BenchmarkServeAudit measures end-to-end /audit throughput through the
// handler (JSON decode, content-hash memo, micro-batch queue, snapshot
// scoring, JSON encode) against a 500-document corpus. Queries rotate
// through 4096 distinct candidates, so the steady state mixes index
// passes with cross-request memo hits — the mix a generation pipeline
// resampling candidates actually produces.
func BenchmarkServeAudit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	names := make([]string, 500)
	texts := make([]string, 500)
	for i := range texts {
		names[i] = fmt.Sprintf("d%d.v", i)
		texts[i] = randVerilog(rng, i)
	}
	cfg := DefaultConfig()
	cfg.QueueDepth = 4096
	cfg.CacheBudget = 64 << 20
	s := NewServer(cfg)
	defer s.Close()
	s.PublishDocuments(names, texts)

	const distinct = 4096
	bodies := make([][]byte, distinct)
	for i := range bodies {
		q := randVerilog(rng, 10000+i)
		bodies[i], _ = json.Marshal(AuditRequest{Code: q})
	}

	b.ReportAllocs()
	b.ResetTimer()
	var rejected atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			i++
			r := httptest.NewRequest(http.MethodPost, "/v1/audit", bytes.NewReader(bodies[i%distinct]))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, r)
			if w.Code == http.StatusTooManyRequests {
				rejected.Add(1)
				continue
			}
			if w.Code != http.StatusOK {
				b.Fatalf("audit status %d: %s", w.Code, w.Body.String())
			}
		}
	})
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "audits/s")
	}
}

// diverseVerilog builds a corpus document whose identifiers are unique to
// the document (sig_<idx>_<j>, port names carrying idx). Real protected
// corpora look like this — distinct designs share the Verilog keyword and
// punctuation vocabulary but almost no identifiers — and it is the shape
// that rewards impact-ordered pruning: a near-duplicate query's rare terms
// pin the true match, and the upper bounds rule out everything else
// without reading its postings.
func diverseVerilog(rng *rand.Rand, idx int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module design_%d(input clk_%d, input rst_%d, output reg [31:0] out_%d);\n", idx, idx, idx, idx)
	for j := 0; j < 8+rng.Intn(8); j++ {
		fmt.Fprintf(&sb, "  wire [%d:0] sig_%d_%d = sig_%d_%d ^ %d'h%x;\n",
			rng.Intn(31)+1, idx, j, idx, rng.Intn(j+1), rng.Intn(31)+2, rng.Int63n(1<<20))
	}
	fmt.Fprintf(&sb, "  always @(posedge clk_%d) out_%d <= sig_%d_0;\nendmodule\n", idx, idx, idx)
	return sb.String()
}

// BenchmarkServeAuditLargeCorpus runs the cold audit path against diverse
// corpora of increasing size, with near-duplicate candidates (a corpus
// document with one mutated line — the §III-A infringement case). Because
// scoring is pruned, per-audit latency should grow far slower than corpus
// size, and the reported skip metric (fraction of postings never read)
// should climb toward 1 as the corpus grows. Compare against
// BenchmarkServeAuditCold, whose homogeneous 500-doc corpus is the pruning
// worst case.
func BenchmarkServeAuditLargeCorpus(b *testing.B) {
	for _, nDocs := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("docs=%d", nDocs), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			names := make([]string, nDocs)
			texts := make([]string, nDocs)
			for i := range texts {
				names[i] = fmt.Sprintf("d%d.v", i)
				texts[i] = diverseVerilog(rng, i)
			}
			cfg := DefaultConfig()
			cfg.QueueDepth = 4096
			cfg.CacheBudget = 64 << 20
			s := NewServer(cfg)
			defer s.Close()
			s.PublishDocuments(names, texts)

			// Near-duplicate candidates: a random corpus document with its
			// final line rewritten. Every query is distinct (no memo hits).
			bodies := make([][]byte, b.N)
			for i := range bodies {
				src := texts[rng.Intn(nDocs)]
				q := strings.TrimSuffix(src, "endmodule\n") +
					fmt.Sprintf("  wire probe_%d = 1'b1;\nendmodule\n", i)
				bodies[i], _ = json.Marshal(AuditRequest{Code: q})
			}

			similarity.EnablePruneStats(true)
			similarity.ResetPruneStats()
			defer similarity.EnablePruneStats(false)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := httptest.NewRequest(http.MethodPost, "/v1/audit", bytes.NewReader(bodies[i]))
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					b.Fatalf("audit status %d: %s", w.Code, w.Body.String())
				}
			}
			b.StopTimer()
			st := similarity.ReadPruneStats()
			if st.PostingsTotal > 0 {
				b.ReportMetric(1-float64(st.PostingsVisited)/float64(st.PostingsTotal), "skip-frac")
			}
			if b.N > 0 {
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "audits/s")
			}
		})
	}
}

// BenchmarkServeAuditCold isolates the uncached path: every request is a
// fresh candidate, so each one pays the full snapshot index pass.
func BenchmarkServeAuditCold(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	names := make([]string, 500)
	texts := make([]string, 500)
	for i := range texts {
		names[i] = fmt.Sprintf("d%d.v", i)
		texts[i] = randVerilog(rng, i)
	}
	cfg := DefaultConfig()
	cfg.QueueDepth = 4096
	cfg.CacheBudget = 64 << 20
	s := NewServer(cfg)
	defer s.Close()
	s.PublishDocuments(names, texts)

	queries := make([]string, b.N)
	for i := range queries {
		queries[i] = randVerilog(rng, 20000+i)
	}
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i], _ = json.Marshal(AuditRequest{Code: queries[i]})
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/audit", bytes.NewReader(bodies[i]))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("audit status %d", w.Code)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "audits/s")
	}
}

// BenchmarkCorpusUpload publishes bench/'s base corpus — its 8 000 protected
// documents at -seed 1 — through Handler() as one JSON body and as NDJSON,
// to a server without a store and to one with a snapstore keeping three
// versions, as bench/ runs it, where every publish is a durable replace
// (segment file, fsync, retention sweep). MB/s
// counts body bytes. It times the publish layers bench/'s
// serve.publish_full_ms does not reach, which starts past the body decode.
func BenchmarkCorpusUpload(b *testing.B) {
	var req CorpusRequest
	var ndjson bytes.Buffer
	for _, pf := range corpus.BuildProtectedCorpus(1*1_000_003+1, 8000) {
		req.Documents = append(req.Documents, CorpusDocument{Name: pf.Name, Text: pf.Source})
		line, err := json.Marshal(CorpusLine{Name: pf.Name, Text: pf.Source})
		if err != nil {
			b.Fatal(err)
		}
		ndjson.Write(line)
		ndjson.WriteByte('\n')
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json", "application/json", body},
		{"ndjson", "application/x-ndjson", ndjson.Bytes()},
	} {
		for _, store := range []string{"none", "snapstore"} {
			b.Run("format="+f.name+"/store="+store, func(b *testing.B) {
				cfg := DefaultConfig()
				if store == "snapstore" {
					st, err := snapstore.Open(b.TempDir(), 3)
					if err != nil {
						b.Fatal(err)
					}
					cfg.Store = st
				}
				s := NewServer(cfg)
				defer s.Close()
				h := s.Handler()
				b.SetBytes(int64(len(f.body)))
				b.ReportAllocs()
				for b.Loop() {
					r := httptest.NewRequest(http.MethodPost, "/v1/corpus", bytes.NewReader(f.body))
					r.Header.Set("Content-Type", f.contentType)
					w := httptest.NewRecorder()
					h.ServeHTTP(w, r)
					if w.Code != http.StatusOK {
						b.Fatalf("publish: %d %s", w.Code, w.Body)
					}
				}
			})
		}
	}
}
