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
	"path/filepath"
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

// A restarted server must serve the persisted corpus at the persisted
// version with verdicts byte-identical to both the pre-crash server and
// the offline scorer.
func TestWarmRestartServesIdenticalVerdicts(t *testing.T) {
	dir := t.TempDir()
	names1, texts1 := docSet(1, 20)
	names2, texts2 := docSet(2, 25)
	offline := similarity.NewCorpus(names2, texts2)
	queries := append(append([]string(nil), texts2[:5]...), "module fresh(); endmodule")

	s := durableServer(t, dir)
	if _, _, err := s.PublishDocuments(names1, texts1); err != nil {
		t.Fatal(err)
	}
	var cr CorpusResponse
	var docs []CorpusDocument
	for i := range texts2 {
		docs = append(docs, CorpusDocument{Name: names2[i], Text: texts2[i]})
	}
	if got := postJSON(t, s.Handler(), "/v1/corpus", CorpusRequest{Index: "all", Documents: docs}, &cr); got != http.StatusOK {
		t.Fatalf("publish = %d", got)
	}
	if cr.Version != 2 || !cr.Persisted {
		t.Fatalf("publish response = %+v", cr)
	}
	before := make([]similarity.Match, len(queries))
	for i, q := range queries {
		m, v := auditBest(t, s, q)
		if v != 2 {
			t.Fatalf("pre-restart version = %d", v)
		}
		before[i] = m
	}
	s.Close()

	// "Restart": a brand-new server over the same directory.
	s2 := durableServer(t, dir)
	rep := s2.Replay()
	if rep.Version != 2 || rep.Docs != len(texts2) || rep.Err != nil || len(rep.Skipped) != 0 {
		t.Fatalf("replay = %+v", rep)
	}
	for i, q := range queries {
		m, v := auditBest(t, s2, q)
		if v != 2 {
			t.Fatalf("post-restart version = %d", v)
		}
		if m != before[i] {
			t.Fatalf("query %d: recovered verdict %+v != pre-crash %+v", i, m, before[i])
		}
		if want := offline.Best(q); m != want {
			t.Fatalf("query %d: recovered verdict %+v != offline %+v", i, m, want)
		}
	}
	// Version numbering resumes, not resets.
	if v, _, err := s2.PublishDocuments(names1, texts1); err != nil || v != 3 {
		t.Fatalf("post-restart publish = v%d err %v", v, err)
	}
}

// crashRecovers is the version a restart serves after the version-2
// publish crashes at each persistence failpoint. The descriptor's rename
// is the one commit point: every crash before it recovers v1, every crash
// after it v2 (at-least-once publish).
var crashRecovers = map[string]uint64{
	snapstore.FPBeforeTempWrite: 1,
	snapstore.FPAfterSegWrite:   1,
	snapstore.FPAfterSegSync:    1,
	snapstore.FPAfterSegCommit:  1,
	snapstore.FPAfterTempWrite:  1,
	snapstore.FPAfterTempSync:   1,
	snapstore.FPAfterSave:       2,
	snapstore.FPBeforeSegGC:     2,
	FPBeforeSwap:                2,
}

// persistenceFailpoints returns the registered persistence failpoints,
// sorted, and fails unless they are exactly crashRecovers' rows.
func persistenceFailpoints(t *testing.T) []string {
	t.Helper()
	var points []string
	for _, p := range failpoint.List() {
		if strings.HasPrefix(p, "snapstore/") || p == FPBeforeSwap {
			if _, ok := crashRecovers[p]; !ok {
				t.Fatalf("persistence failpoint %s has no row in crashRecovers", p)
			}
			points = append(points, p)
		}
	}
	if len(points) != len(crashRecovers) {
		t.Fatalf("registered persistence failpoints %v; crashRecovers has %d rows", points, len(crashRecovers))
	}
	return points
}

// crashModes arms a failpoint to fail or to panic.
var crashModes = map[string]func(string){"error": failpoint.EnableError, "panic": failpoint.EnablePanic}

// assertOnlyLiveFiles fails unless st's directory holds nothing but its
// descriptors and the segments they name: no temp file, no orphan segment,
// no MANIFEST.
func assertOnlyLiveFiles(t *testing.T, st *snapstore.Store) {
	t.Helper()
	versions, err := st.Versions()
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, v := range versions {
		snap, err := st.Load(v)
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		live[filepath.Base(st.Path(v))] = true
		for i := 0; i < snap.Segments(); i++ {
			live[filepath.Base(st.SegPath(snap.Segment(i).ID()))] = true
		}
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !live[e.Name()] {
			t.Fatalf("store holds %s, which no version names", e.Name())
		}
	}
}

// Crash a live /v1/corpus publish at every registered persistence
// failpoint, in error and panic mode. The serving process must keep
// answering from the old snapshot (the publish fails with 500, nothing
// half-swaps), and a restarted server must recover the version
// crashRecovers names, with byte-identical verdicts and only live files.
func TestServeKillAndRecoverEveryFailpoint(t *testing.T) {
	names1, texts1 := docSet(3, 15)
	names2, texts2 := docSet(4, 18)
	offline := map[uint64]*similarity.Corpus{1: similarity.NewCorpus(names1, texts1), 2: similarity.NewCorpus(names2, texts2)}
	queries := append(append([]string(nil), texts1[:4]...), texts2[:4]...)
	var docs []CorpusDocument
	for i := range texts2 {
		docs = append(docs, CorpusDocument{Name: names2[i], Text: texts2[i]})
	}

	for _, fp := range persistenceFailpoints(t) {
		t.Run(fp, func(t *testing.T) {
			for _, mode := range []string{"error", "panic"} {
				t.Run(mode, func(t *testing.T) {
					defer failpoint.DisableAll()
					dir := t.TempDir()
					s := durableServer(t, dir)
					if _, _, err := s.PublishDocuments(names1, texts1); err != nil {
						t.Fatal(err)
					}

					crashModes[mode](fp)
					if got := postJSON(t, s.Handler(), "/v1/corpus", CorpusRequest{Index: "all", Documents: docs}, nil); got != http.StatusInternalServerError {
						t.Fatalf("crashed publish = %d, want 500", got)
					}
					failpoint.DisableAll()

					// The live server never swapped: verdicts still come from v1,
					// byte-identical to offline scoring of corpus 1.
					for _, q := range queries {
						m, v := auditBest(t, s, q)
						if v != 1 {
							t.Fatalf("live version after crashed publish = %d", v)
						}
						if want := offline[1].Best(q); m != want {
							t.Fatalf("live verdict %+v != offline v1 %+v", m, want)
						}
					}
					s.Close()

					// Restart from disk.
					s2 := durableServer(t, dir)
					rep := s2.Replay()
					if rep.Version != crashRecovers[fp] || len(rep.Skipped) != 0 {
						t.Fatalf("replay = %+v, want v%d skipping nothing", rep, crashRecovers[fp])
					}
					assertOnlyLiveFiles(t, s2.snaps)
					for _, q := range queries {
						m, v := auditBest(t, s2, q)
						if v != rep.Version {
							t.Fatalf("recovered version = %d, replay said %d", v, rep.Version)
						}
						if want := offline[rep.Version].Best(q); m != want {
							t.Fatalf("recovered verdict %+v != offline %+v", m, want)
						}
					}
				})
			}
		})
	}
}

// Bit-flip the newest on-disk snapshot: the restarted server must detect
// the corruption by checksum and serve the previous good version.
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

// POST /v1/corpus?version=N republishes a retained version as a new
// generation; bogus versions answer with structured errors.
func TestRollbackRepublish(t *testing.T) {
	dir := t.TempDir()
	names1, texts1 := docSet(7, 10)
	names2, texts2 := docSet(8, 11)
	offline1 := similarity.NewCorpus(names1, texts1)

	s := durableServer(t, dir)
	if _, _, err := s.PublishDocuments(names1, texts1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PublishDocuments(names2, texts2); err != nil {
		t.Fatal(err)
	}

	var cr CorpusResponse
	if got := postJSON(t, s.Handler(), "/v1/corpus?version=1", struct{}{}, &cr); got != http.StatusOK {
		t.Fatalf("rollback = %d", got)
	}
	if cr.Version != 3 || cr.RolledBackFrom != 1 || cr.Index != "rollback" || cr.Indexed != len(texts1) {
		t.Fatalf("rollback response = %+v", cr)
	}
	// Rolled-back generation serves corpus 1's verdicts at version 3.
	for _, q := range texts1[:3] {
		m, v := auditBest(t, s, q)
		if v != 3 {
			t.Fatalf("post-rollback version = %d", v)
		}
		if want := offline1.Best(q); m != want {
			t.Fatalf("post-rollback verdict %+v != offline v1 %+v", m, want)
		}
	}
	// The rollback is itself durable: a restart replays it.
	s.Close()
	s2 := durableServer(t, dir)
	if rep := s2.Replay(); rep.Version != 3 {
		t.Fatalf("replayed rollback version = %d", rep.Version)
	}

	if got := postJSON(t, s2.Handler(), "/v1/corpus?version=99", struct{}{}, nil); got != http.StatusNotFound {
		t.Fatalf("rollback to missing version = %d, want 404", got)
	}
	if got := postJSON(t, s2.Handler(), "/v1/corpus?version=x", struct{}{}, nil); got != http.StatusBadRequest {
		t.Fatalf("rollback to garbage version = %d, want 400", got)
	}

	// Without a store, rollback is a structured 400, not a surprise.
	plain := NewServer(DefaultConfig())
	defer plain.Close()
	if got := postJSON(t, plain.Handler(), "/v1/corpus?version=1", struct{}{}, nil); got != http.StatusBadRequest {
		t.Fatalf("storeless rollback = %d, want 400", got)
	}
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

// The retention sweep runs inside Save, which a concurrent publish can
// trigger at any moment — including between a rollback request admitting
// a target version and loading it. The failpoint makes that interleaving
// deterministic: two publishes land in the gap and sweep the target. The
// fixed handler answers with a precise 409 ("swept by retention", naming
// the surviving range), never the old spurious 404, and never a
// republish of contents it could no longer validate; a version that was
// never published stays a plain 404.
func TestRollbackRetentionSweepRace(t *testing.T) {
	dir := t.TempDir()
	st, err := snapstore.Open(dir, 2) // retain only the 2 newest versions
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = st
	s := NewServer(cfg)
	defer s.Close()

	names1, texts1 := docSet(21, 8)
	names2, texts2 := docSet(22, 9)
	names3, texts3 := docSet(23, 7)
	offline3 := similarity.NewCorpus(names3, texts3)
	if _, _, err := s.PublishDocuments(names1, texts1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PublishDocuments(names2, texts2); err != nil {
		t.Fatal(err)
	}

	// Arm the race: while the rollback-to-1 request sits between parsing
	// its target and taking the publish lock, two publishes complete,
	// advancing to version 4 and sweeping versions 1 and 2.
	fired := false
	failpoint.Enable(FPRollbackLoad, func(string) error {
		if fired {
			return nil
		}
		fired = true
		if _, _, err := s.PublishDocuments(names3, texts3); err != nil {
			t.Error(err)
		}
		if _, _, err := s.PublishDocuments(names3, texts3); err != nil {
			t.Error(err)
		}
		return nil
	})
	defer failpoint.DisableAll()

	r := httptest.NewRequest(http.MethodPost, "/v1/corpus?version=1", strings.NewReader("{}"))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusConflict {
		t.Fatalf("raced rollback = %d %s, want 409", w.Code, w.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != "version_swept" || !strings.Contains(er.Error.Message, "retained: 3-4") {
		t.Fatalf("raced rollback error = %+v, want version_swept naming the retained range", er.Error)
	}
	if !fired {
		t.Fatal("failpoint never fired — the race was not exercised")
	}

	// A version that never existed is still a 404, not a 409.
	failpoint.DisableAll()
	r = httptest.NewRequest(http.MethodPost, "/v1/corpus?version=99", strings.NewReader("{}"))
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusNotFound {
		t.Fatalf("never-published rollback = %d, want 404", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != "version_not_found" {
		t.Fatalf("never-published rollback error = %+v", er.Error)
	}

	// A retained version still rolls back, and the rolled-back generation
	// serves that corpus's exact verdicts.
	var cr CorpusResponse
	if got := postJSON(t, s.Handler(), "/v1/corpus?version=3", struct{}{}, &cr); got != http.StatusOK {
		t.Fatalf("retained rollback = %d", got)
	}
	if cr.Version != 5 || cr.RolledBackFrom != 3 {
		t.Fatalf("retained rollback response = %+v", cr)
	}
	for _, q := range texts3[:3] {
		m, v := auditBest(t, s, q)
		if v != 5 {
			t.Fatalf("post-rollback version = %d", v)
		}
		if want := offline3.Best(q); m != want {
			t.Fatalf("post-rollback verdict %+v != offline %+v", m, want)
		}
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
