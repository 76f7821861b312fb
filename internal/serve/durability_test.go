package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freehw/internal/failpoint"
	"freehw/internal/similarity"
	"freehw/internal/snapstore"
)

// durableServer builds a server persisting into dir.
func durableServer(t *testing.T, dir string) *Server {
	t.Helper()
	st, err := snapstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = st
	s := NewServer(cfg)
	t.Cleanup(s.Close)
	return s
}

func docSet(seed int64, n int) (names, texts []string) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("s%d_d%d.v", seed, i))
		texts = append(texts, randVerilog(rng, int(seed)*1000+i))
	}
	return names, texts
}

// auditBest returns the served best match for one candidate.
func auditBest(t *testing.T, s *Server, code string) (similarity.Match, uint64) {
	t.Helper()
	var resp AuditResponse
	if got := postJSON(t, s.Handler(), "/v1/audit", AuditRequest{Code: code}, &resp); got != http.StatusOK {
		t.Fatalf("audit = %d", got)
	}
	m := similarity.Match{Index: -1}
	if resp.Best != nil {
		m = similarity.Match{Name: resp.Best.Name, Index: resp.Best.Index, Score: resp.Best.Score}
	}
	return m, resp.CorpusVersion
}

// Bit-flip the newest on-disk snapshot: the restarted server must detect
// the corruption by checksum and serve the previous good version, and a
// rollback to the corrupt version answers 409 version_corrupt and moves
// nothing.
func TestRestartSkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	names1, texts1 := docSet(5, 12)
	names2, texts2 := docSet(6, 14)
	offline1 := similarity.NewCorpus(names1, texts1)

	s := durableServer(t, dir)
	if _, _, err := s.PublishDocuments(names1, texts1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PublishDocuments(names2, texts2); err != nil {
		t.Fatal(err)
	}
	s.Close()

	corruptNewestSnapshot(t, dir)

	s2 := durableServer(t, dir)
	rep := s2.Replay()
	if rep.Version != 1 || len(rep.Skipped) != 1 || rep.Skipped[0] != 2 {
		t.Fatalf("replay after corruption = %+v, want v1 with [2] skipped", rep)
	}
	servesV1 := func() {
		t.Helper()
		for _, q := range texts1[:4] {
			m, v := auditBest(t, s2, q)
			if v != 1 {
				t.Fatalf("version = %d", v)
			}
			if want := offline1.Best(q); m != want {
				t.Fatalf("verdict %+v != offline %+v", m, want)
			}
		}
	}
	servesV1()
	a := corpusCall(s2.Handler(), "/v1/corpus?version=2", "application/json", "", []byte("{}"))
	if a.code != http.StatusConflict || a.er.Error.Code != codeCorrupt {
		t.Fatalf("rollback to the corrupt version = %d %+v, want 409 %s", a.code, a.er.Error, codeCorrupt)
	}
	servesV1()
}

// corruptNewestSnapshot flips one payload byte in the highest-version
// snapshot file.
func corruptNewestSnapshot(t *testing.T, dir string) {
	t.Helper()
	st, err := snapstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	versions, err := st.Versions()
	if err != nil || len(versions) == 0 {
		t.Fatalf("versions = %v err %v", versions, err)
	}
	path := st.Path(versions[len(versions)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestHealthzReadyz(t *testing.T) {
	s := durableServer(t, t.TempDir())
	get := func(path string) (int, string) {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		return w.Code, w.Body.String()
	}
	if code, body := get("/v1/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz = %d %s", code, body)
	}
	if code, body := get("/v1/readyz"); code != http.StatusOK || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("readyz = %d %s", code, body)
	}

	// Before replay completes the server reports not ready.
	s.ready.Store(false)
	if code, body := get("/v1/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "not_ready") {
		t.Fatalf("cold readyz = %d %s", code, body)
	}
	s.ready.Store(true)

	// Draining flips readiness off while health stays up.
	s.Drain()
	if code, body := get("/v1/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz = %d %s", code, body)
	}
	if code, _ := get("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("draining healthz = %d", code)
	}

	// Wrong methods get the structured 405.
	r := httptest.NewRequest(http.MethodPost, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz = %d", w.Code)
	}
}

// holdAdmitted arms FPAdmit so that the first n audits to claim an
// admission slot block inside it, each sending on entered first, until
// release is called; later audits pass straight through. Callers defer
// failpoint.DisableAll.
func holdAdmitted(n int) (entered <-chan struct{}, release func()) {
	ch := make(chan struct{}, n)
	gate := make(chan struct{})
	var seen atomic.Int64
	failpoint.Enable(FPAdmit, func(string) error {
		if seen.Add(1) <= int64(n) {
			ch <- struct{}{}
			<-gate
		}
		return nil
	})
	return ch, func() { close(gate) }
}

// The 429 shed response derives Retry-After from the admission
// semaphore's pressure and carries it in the envelope body as well as the
// header.
func TestRetryAfterFromQueueDepth(t *testing.T) {
	defer failpoint.DisableAll()
	cfg := DefaultConfig()
	cfg.QueueDepth = 4
	s := NewServer(cfg)
	defer s.Close()
	if _, _, err := s.PublishDocuments([]string{"d"}, []string{"module d(input x, output y); assign y = x; endmodule"}); err != nil {
		t.Fatal(err)
	}

	entered, release := holdAdmitted(cfg.QueueDepth)
	var wg sync.WaitGroup
	for i := 0; i < cfg.QueueDepth; i++ { // QueueDepth audits in flight
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, s.Handler(), "/v1/audit", AuditRequest{Code: fmt.Sprintf("module q%d(); endmodule", i)}, nil)
		}(i)
		<-entered
	}

	// Every slot taken: 4 of 4 → 1 + 4*4/4 = 5 seconds.
	body, _ := json.Marshal(AuditRequest{Code: "module shed(); endmodule"})
	r := httptest.NewRequest(http.MethodPost, "/v1/audit", strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("shed = %d", w.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.RetryAfterSeconds != 5 {
		t.Fatalf("retry_after_s = %d, want 5 (every slot taken)", er.Error.RetryAfterSeconds)
	}
	if got := w.Header().Get("Retry-After"); got != strconv.Itoa(er.Error.RetryAfterSeconds) {
		t.Fatalf("Retry-After header %q != body %d", got, er.Error.RetryAfterSeconds)
	}
	release()
	wg.Wait()

	// With every audit answered, the hint relaxes back to the 1s floor.
	if got := retryAfterSeconds(s.admit); got != 1 {
		t.Fatalf("idle retryAfterSeconds = %d, want 1", got)
	}
}

// Graceful shutdown over a real listener: every audit accepted before the
// drain began completes with 200 — none dropped — and the server exits
// cleanly afterwards.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	defer failpoint.DisableAll()
	cfg := DefaultConfig()
	cfg.QueueDepth = 64
	s := NewServer(cfg)
	defer s.Close()
	if _, _, err := s.PublishDocuments([]string{"d"}, []string{"module d(input x, output y); assign y = x; endmodule"}); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	const inflight = 8
	entered, release := holdAdmitted(inflight)
	codes := make([]int, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(AuditRequest{Code: fmt.Sprintf("module g%d(); endmodule", i)})
			resp, err := http.Post(base+"/v1/audit", "application/json", strings.NewReader(string(body)))
			if err != nil {
				codes[i] = -1
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	// Wait until every audit holds its admission slot.
	for i := 0; i < inflight; i++ {
		<-entered
	}

	// Begin the drain while every request is still in flight.
	s.Drain()
	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownDone <- httpSrv.Shutdown(ctx) }()
	time.Sleep(10 * time.Millisecond) // listener now refusing new work
	release()                         // the held audits score and answer

	if err := <-shutdownDone; err != nil {
		t.Fatalf("http shutdown: %v", err)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("in-flight audit %d finished with %d during graceful shutdown", i, code)
		}
	}
	if n := len(s.admit); n != 0 {
		t.Fatalf("%d admission slots still held after Shutdown returned", n)
	}
	s.Close()
}

// A panicking handler answers with the structured 500 envelope instead of
// a severed connection.
func TestPanicRecoveryMiddleware(t *testing.T) {
	h := recoverMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	r := httptest.NewRequest(http.MethodGet, "/v1/audit", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d", w.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error.Code != "internal" {
		t.Fatalf("panic envelope = %s (err %v)", w.Body.String(), err)
	}

	// net/http's own abort sentinel must pass through untouched.
	aborts := recoverMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler swallowed")
		}
	}()
	aborts.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

// An injected fault after bulkhead admission must release the slot: the
// next bulk request still gets in.
func TestBulkFaultReleasesBulkhead(t *testing.T) {
	defer failpoint.DisableAll()
	cfg := DefaultConfig()
	cfg.MaxInflightBulk = 1
	s := NewServer(cfg)
	defer s.Close()
	if _, _, err := s.PublishDocuments([]string{"d"}, []string{"module d(input x, output y); assign y = x; endmodule"}); err != nil {
		t.Fatal(err)
	}
	req := AuditBatchRequest{Candidates: []AuditBatchCandidate{{Code: "module b(); endmodule"}}}

	failpoint.EnableError(FPBulkAdmit)
	if got := postJSON(t, s.Handler(), "/v1/audit/batch", req, nil); got != http.StatusInternalServerError {
		t.Fatalf("injected bulk = %d", got)
	}
	failpoint.DisableAll()
	if got := postJSON(t, s.Handler(), "/v1/audit/batch", req, nil); got != http.StatusOK {
		t.Fatalf("bulk after injected fault = %d — bulkhead slot leaked", got)
	}
}

// An injected fault at the admission failpoint must answer 500 and
// release its slot: on a one-slot server the very next audit succeeds.
func TestAdmitFaultAnswersAndRecovers(t *testing.T) {
	defer failpoint.DisableAll()
	cfg := DefaultConfig()
	cfg.QueueDepth = 1
	s := NewServer(cfg)
	defer s.Close()
	if _, _, err := s.PublishDocuments([]string{"d"}, []string{"module d(input x, output y); assign y = x; endmodule"}); err != nil {
		t.Fatal(err)
	}
	req := AuditRequest{Code: "module b(input a, output y); assign y = a; endmodule"}

	failpoint.EnableError(FPAdmit)
	if got := postJSON(t, s.Handler(), "/v1/audit", req, nil); got != http.StatusInternalServerError {
		t.Fatalf("injected admission fault = %d, want 500", got)
	}
	failpoint.DisableAll()

	var resp AuditResponse
	if got := postJSON(t, s.Handler(), "/v1/audit", req, &resp); got != http.StatusOK {
		t.Fatalf("audit after injected admission fault = %d — the fault leaked the only slot", got)
	}
	if resp.Best == nil {
		t.Fatal("recovered audit returned no verdict")
	}
}
