package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freehw/internal/failpoint"
	"freehw/internal/similarity"
	"freehw/internal/snapstore"
)

// crashCommits says, for each persistence failpoint, whether a publish that
// crashes there has committed its version. The descriptor's rename is the
// one commit point: a crash before it leaves the previous version newest on
// disk, a crash after it the new one (at-least-once publish).
var crashCommits = map[string]bool{
	snapstore.FPBeforeTempWrite: false,
	snapstore.FPAfterSegWrite:   false,
	snapstore.FPAfterSegSync:    false,
	snapstore.FPAfterSegCommit:  false,
	snapstore.FPAfterTempWrite:  false,
	snapstore.FPAfterTempSync:   false,
	snapstore.FPAfterSave:       true,
	snapstore.FPBeforeSegGC:     true,
	FPBeforeSwap:                true,
}

// persistenceFailpoints returns the registered persistence failpoints,
// sorted, and fails unless they are exactly crashCommits' rows.
func persistenceFailpoints(t *testing.T) []string {
	t.Helper()
	var points []string
	for _, p := range failpoint.List() {
		if strings.HasPrefix(p, "snapstore/") || p == FPBeforeSwap {
			if _, ok := crashCommits[p]; !ok {
				t.Fatalf("persistence failpoint %s has no row in crashCommits", p)
			}
			points = append(points, p)
		}
	}
	if len(points) != len(crashCommits) {
		t.Fatalf("registered persistence failpoints %v; crashCommits has %d rows", points, len(crashCommits))
	}
	return points
}

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

// fault is one scheduled fault: a replace or a delta crashed at a
// persistence failpoint, a merge abandoned at FPMergeSwap, or (fp
// FPRollbackLoad) a rollback raced by a publish.
type fault struct {
	fp, mode string // mode: "error" or "panic"
	delta    bool
}

// faultCells is every fault the model must fire: each persistence
// failpoint × error/panic × replace/delta, FPMergeSwap in both modes and,
// with a store, the rollback race. Without a store only serve/before-swap
// is on a publish's path.
func faultCells(t *testing.T, durable bool) []fault {
	points, race := []string{FPBeforeSwap}, []fault(nil)
	if durable {
		points, race = persistenceFailpoints(t), []fault{{fp: FPRollbackLoad}}
	}
	var cells []fault
	for _, fp := range points {
		for _, mode := range []string{"error", "panic"} {
			cells = append(cells, fault{fp, mode, false}, fault{fp, mode, true})
		}
	}
	return append(append(cells, fault{FPMergeSwap, "error", false}, fault{FPMergeSwap, "panic", false}), race...)
}

// arm makes fp fail in mode, sending on hit (unless it is full) each time
// it fires.
func arm(fp, mode string, hit chan<- struct{}) {
	failpoint.Enable(fp, func(name string) error {
		select {
		case hit <- struct{}{}:
		default:
		}
		if mode == "panic" {
			panic(failpoint.PanicValue{Name: name})
		}
		return failpoint.ErrInjected
	})
}

// answer is a decoded /v1/corpus reply: the envelope its status carries.
type answer struct {
	code int
	cr   CorpusResponse
	er   ErrorResponse
}

// corpusCall posts body to target, a /v1/corpus URL, with an If-Version
// header ("" for none).
func corpusCall(h http.Handler, target, ctype, ifVersion string, body []byte) answer {
	r := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	r.Header.Set("Content-Type", ctype)
	if ifVersion != "" {
		r.Header.Set("If-Version", ifVersion)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	a := answer{code: w.Code}
	if w.Code == http.StatusOK {
		json.Unmarshal(w.Body.Bytes(), &a.cr)
	} else {
		json.Unmarshal(w.Body.Bytes(), &a.er)
	}
	return a
}

// upload is one prepared replace or delta: its request, what a delta adds
// and removes, and the live documents once it commits.
type upload struct {
	target, ctype, ifVersion string
	body                     []byte
	delta                    bool
	added, removed           int
	names, texts             []string
}

// Malformed /v1/corpus requests: each answers 400 with its code and moves
// nothing.
var malformedUploads = []struct{ target, ifVersion, body, code string }{
	{"/v1/corpus", "x", `{"documents":[{"name":"y.v","text":"module y(); endmodule"}]}`, "bad_if_version"},
	{"/v1/corpus?version=1", "x", `{}`, "bad_if_version"},
	{"/v1/corpus?version=x", "", `{}`, "bad_version"},
	{"/v1/corpus", "", `{"mode":"merge","documents":[{"name":"y.v","text":"module y(); endmodule"}]}`, "bad_mode"},
	{"/v1/corpus", "", `{"documents":[{"name":"y.v","text":"module y(); endmodule"}],"remove":["a"]}`, "bad_mode"},
	{"/v1/corpus", "", `{"mode":"delta"}`, "empty_corpus"},
}

// modelRetain is the snapshot store's retention bound in the model.
const modelRetain = 4

// publisherModel is the trivially-correct corpus lifecycle: the live
// documents in publish order and their version, the newest version ever
// committed (a publish that crashed after its descriptor's rename committed
// one the live server never served), and every committed generation's
// documents, for rollback and replay.
type publisherModel struct {
	names, texts    []string
	version, minted uint64
	history         map[uint64][2][]string
}

// record commits a generation on disk: the next version, not served.
func (m *publisherModel) record(names, texts []string) {
	m.minted++
	m.history[m.minted] = [2][]string{names, texts}
}

// serve makes committed version v live, as a publish or a replay does.
func (m *publisherModel) serve(v uint64) {
	m.names, m.texts, m.version = m.history[v][0], m.history[v][1], v
}

// lifecycle is one seeded run of a real Server against publisherModel.
type lifecycle struct {
	t          *testing.T
	rng        *rand.Rand
	seed       int64
	durable    bool
	dir        string
	cfg        Config
	srv        *Server
	h          http.Handler
	m          publisherModel
	oldest     uint64 // the oldest version the retention sweep has left
	removed    string // some once-live text: it must stop matching itself exactly
	nextDoc    int
	step       int
	mustCommit bool // the previous op crashed without committing

	// The audit memo's model: the texts srv has audited at version memoVer
	// (the only ones it can answer cached:true), the snapshot that served
	// them, the last check's queries (the next check asks them again), and
	// how many checks a merge at the same version came between.
	memo     map[string]bool
	memoSrv  *Server
	memoVer  uint64
	memoSnap *similarity.Snapshot
	asked    []string
	merged   int
}

// fresh returns n documents no generation has held.
func (l *lifecycle) fresh(n int) (names, texts []string) {
	for ; n > 0; n-- {
		names = append(names, fmt.Sprintf("m%d_d%d.v", l.seed, l.nextDoc))
		texts = append(texts, randVerilog(l.rng, int(l.seed)*10000+l.nextDoc))
		l.nextDoc++
	}
	return names, texts
}

// precondition draws no If-Version, a hit, or a miss, and reports whether
// the op must be refused.
func (l *lifecycle) precondition() (string, bool) {
	switch v := l.m.version; l.rng.Intn(4) {
	case 0:
		return strconv.FormatUint(v, 10), false
	case 1:
		return strconv.FormatUint(v+1+uint64(l.rng.Intn(3)), 10), true
	}
	return "", false
}

// prepare draws a replace of added documents, or a delta adding added and
// removing up to two live names (and at times one never published), as a
// JSON or an NDJSON body.
func (l *lifecycle) prepare(delta bool, added int, ifVersion string) upload {
	names, texts := l.fresh(added)
	u := upload{target: "/v1/corpus", ctype: "application/json", ifVersion: ifVersion, delta: delta, added: added, names: names, texts: texts}
	var remove []string
	if delta {
		for n := l.rng.Intn(3); n > 0 && len(l.m.names) > 0; n-- {
			remove = append(remove, l.m.names[l.rng.Intn(len(l.m.names))])
		}
		if l.rng.Intn(4) == 0 || added == 0 && len(remove) == 0 {
			remove = append(remove, "never-published.v")
		}
		u.names, u.texts = nil, nil
		for i, name := range l.m.names {
			if slices.Contains(remove, name) {
				l.removed, u.removed = l.m.texts[i], u.removed+1
				continue
			}
			u.names, u.texts = append(u.names, name), append(u.texts, l.m.texts[i])
		}
		u.names, u.texts = append(u.names, names...), append(u.texts, texts...)
	}
	if l.rng.Intn(2) == 0 {
		req := CorpusRequest{Documents: deltaDocs(names, texts), Remove: remove}
		if delta {
			req.Mode = "delta"
		}
		u.body, _ = json.Marshal(req)
		return u
	}
	u.ctype = "application/x-ndjson"
	if delta {
		u.target += "?mode=delta"
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := range names {
		enc.Encode(CorpusLine{Name: names[i], Text: texts[i]})
	}
	for _, name := range remove {
		enc.Encode(CorpusLine{Remove: name})
	}
	u.body = b.Bytes()
	return u
}

// sweep is the retention sweep of a Save that committed: the newest
// modelRetain versions stay.
func (l *lifecycle) sweep() { l.oldest = max(l.m.minted, modelRetain) - modelRetain + 1 }

// expectErr fails unless a is the error envelope status/code; a conflict
// must name the live version.
func (l *lifecycle) expectErr(what string, a answer, status int, code string) {
	l.t.Helper()
	if a.code != status || a.er.Error.Code != code || code == codeConflict && a.er.Error.CurrentVersion != l.m.version {
		l.t.Fatalf("step %d: %s = %d %+v, want %d %s (live version %d)", l.step, what, a.code, a.er.Error, status, code, l.m.version)
	}
}

// publish runs one replace or delta through the handler; crash, when set,
// is armed on its path.
func (l *lifecycle) publish(delta bool, added int, ifVersion string, miss bool, crash *fault) {
	u := l.prepare(delta, added, ifVersion)
	hit := make(chan struct{}, 1)
	if crash != nil {
		arm(crash.fp, crash.mode, hit)
	}
	a := corpusCall(l.h, u.target, u.ctype, u.ifVersion, u.body)
	if crash != nil {
		failpoint.DisableAll()
		select {
		case <-hit:
		default:
			l.t.Fatalf("step %d: %+v never fired", l.step, *crash)
		}
	}
	l.judge(u, a, miss, crash)
}

// judge holds a publish's answer to the model: a refused precondition is
// a conflict; a crash is a 500 that moves nothing live, and one that
// committed leaves its version on disk, never to be minted again; anything
// else publishes the next version.
func (l *lifecycle) judge(u upload, a answer, miss bool, crash *fault) {
	l.t.Helper()
	switch {
	case miss:
		l.expectErr("stale If-Version", a, http.StatusConflict, codeConflict)
	case crash != nil:
		code := codePersist
		if crash.mode == "panic" {
			code = "internal" // recoverMiddleware's envelope
		}
		l.expectErr(fmt.Sprintf("crash at %s", crash.fp), a, http.StatusInternalServerError, code)
		committed := l.durable && crashCommits[crash.fp]
		if committed {
			l.m.record(u.names, u.texts)
			if crash.fp != snapstore.FPAfterSave { // that crash skips the sweep
				l.sweep()
			}
		}
		l.check() // nothing live moved
		switch {
		case !committed:
			l.mustCommit = true
		case crash.mode == "panic":
			l.restart() // the replay serves the crashed publish's version
		case !l.rollback(l.m.minted, "", false): // the next version is past it, and it holds the crashed publish's documents
			l.t.Fatalf("step %d: rollback to the committed crash refused", l.step)
		}
	default:
		if a.code != http.StatusOK || a.cr.Version != int64(l.m.minted+1) || a.cr.Indexed != len(u.names) || a.cr.Index != "protected" ||
			a.cr.Persisted != l.durable || u.delta && (a.cr.Added != u.added || a.cr.Removed != u.removed) {
			l.t.Fatalf("step %d: publish = %d %+v %+v, want version %d with %d live (+%d -%d)",
				l.step, a.code, a.cr, a.er.Error, l.m.minted+1, len(u.names), u.added, u.removed)
		}
		l.m.record(u.names, u.texts)
		l.m.serve(l.m.minted)
		l.sweep()
		l.mustCommit = false
	}
}

// rollback posts /v1/corpus?version=target and judges the answer; it
// reports whether the rollback published.
func (l *lifecycle) rollback(target uint64, ifVersion string, miss bool) bool {
	a := corpusCall(l.h, fmt.Sprintf("/v1/corpus?version=%d", target), "application/json", ifVersion, []byte("{}"))
	return l.judgeRollback(target, miss, a)
}

// judgeRollback predicts a rollback from the model: with a store and a
// matching precondition, a committed version the sweep has left
// republishes as the next version and the merger compacts its layout.
func (l *lifecycle) judgeRollback(target uint64, miss bool, a answer) bool {
	l.t.Helper()
	what := fmt.Sprintf("rollback to %d", target)
	switch {
	case !l.durable:
		l.expectErr(what, a, http.StatusBadRequest, codeNoStore)
	case miss:
		l.expectErr(what, a, http.StatusConflict, codeConflict)
	case target < 1 || target > l.m.minted:
		l.expectErr(what, a, http.StatusNotFound, codeNotFound)
	case target < l.oldest:
		l.expectErr(what, a, http.StatusConflict, codeSwept)
		if want := fmt.Sprintf("(retained: %d-%d)", l.oldest, l.m.minted); !strings.Contains(a.er.Error.Message, want) {
			l.t.Fatalf("step %d: %s = %q, want it to name %s", l.step, what, a.er.Error.Message, want)
		}
	default:
		docs := l.m.history[target]
		if a.code != http.StatusOK || a.cr.Version != int64(l.m.minted+1) || a.cr.RolledBackFrom != target ||
			a.cr.Indexed != len(docs[0]) || a.cr.Index != "rollback" || !a.cr.Persisted {
			l.t.Fatalf("step %d: %s = %d %+v %+v, want version %d with %d live", l.step, what, a.code, a.cr, a.er.Error, l.m.minted+1, len(docs[0]))
		}
		l.m.record(docs[0], docs[1])
		l.m.serve(l.m.minted)
		l.sweep()
		l.settle()
		return true
	}
	return false
}

// race rolls back while a delta holds the publish lock. FPRollbackLoad's
// action starts the delta and returns once it is parked at
// before-temp-write, inside the lock; the rollback runs on into the lock
// before the delta is let go. The rollback takes the lock before it loads,
// so it must answer as if it ran after the delta: a target that delta's
// sweep removes is swept, and the version the delta mints rolls back.
func (l *lifecycle) race() {
	target := l.m.minted + 1
	if l.m.minted-l.oldest+1 >= modelRetain {
		target = l.oldest
	}
	u := l.prepare(true, 1+l.rng.Intn(2), "")
	parked, passed, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	failpoint.Enable(snapstore.FPBeforeTempWrite, func(string) error {
		if first.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
		return nil
	})
	var delta answer
	failpoint.Enable(FPRollbackLoad, func(string) error {
		go func() { delta = corpusCall(l.h, u.target, u.ctype, "", u.body); close(done) }()
		<-parked
		close(passed)
		return nil
	})
	rolled := make(chan answer, 1)
	go func() {
		rolled <- corpusCall(l.h, fmt.Sprintf("/v1/corpus?version=%d", target), "application/json", "", []byte("{}"))
	}()
	select {
	case <-passed:
	case <-time.After(10 * time.Second):
		l.t.Fatalf("step %d: the rollback never reached %s", l.step, FPRollbackLoad)
	}
	time.Sleep(10 * time.Millisecond) // the rollback runs on into the publish lock
	close(release)
	<-done
	a := <-rolled
	failpoint.DisableAll()
	l.judge(u, delta, false, nil)
	l.judgeRollback(target, false, a)
}

// mergeFault arms FPMergeSwap on a settled server and publishes deltas
// until the layout is one segment past the policy: the merger must reach
// the swap, and the abandoned merge leaves the published layout serving.
// The check audits that layout; disarmed, a kick compacts it at the same
// version, and the next check's remembered verdicts must name their
// documents from the merged snapshot. Then a delta's kick compacts too.
func (l *lifecycle) mergeFault(mode string) {
	l.settle()
	hit := make(chan struct{}, 1)
	arm(FPMergeSwap, mode, hit)
	segs := l.srv.current().snap.Segments()
	n := l.cfg.MergeMaxSegments - segs + 1
	for range n {
		l.publish(true, 1, "", false, nil)
	}
	select {
	case <-hit:
	case <-time.After(10 * time.Second):
		l.t.Fatalf("step %d: the merger never reached %s with %d segments", l.step, FPMergeSwap, segs+n)
	}
	if got := l.srv.current().snap.Segments(); got != segs+n {
		l.t.Fatalf("step %d: an abandoned merge left %d segments, the deltas published %d", l.step, got, segs+n)
	}
	l.check()
	failpoint.DisableAll()
	merged := l.merged
	l.srv.kickMerger()
	l.settle()
	l.check()
	if l.merged != merged+1 {
		l.t.Fatalf("step %d: no merge at version %d came between two checks", l.step, l.m.version)
	}
	l.publish(true, 1, "", false, nil)
	l.settle()
}

// compacted reports whether snap is at the merge policy's fixed point: at
// most maxSegs segments, none empty or past deadFrac dead.
func compacted(snap *similarity.Snapshot, maxSegs int, deadFrac float64) bool {
	if snap.Segments() > maxSegs {
		return false
	}
	for i := range snap.Segments() {
		docs, live := snap.Segment(i).Docs(), snap.SegmentLive(i)
		if live == 0 || float64(docs-live) > deadFrac*float64(docs) {
			return false
		}
	}
	return true
}

// settle waits, up to a deadline, for the merger to compact the served
// layout to the policy's fixed point with no publish to wake it, then
// checks that /v1/stats reports the model's version and size and the
// served segment count.
func (l *lifecycle) settle() {
	l.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !compacted(l.srv.current().snap, l.cfg.MergeMaxSegments, l.cfg.MergeDeadFraction); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			l.t.Fatalf("step %d: the merger left %d segments, policy bound %d", l.step, l.srv.current().snap.Segments(), l.cfg.MergeMaxSegments)
		}
	}
	w := httptest.NewRecorder()
	l.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var sr StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil || sr.CorpusVersion != l.m.version || sr.CorpusLen != len(l.m.names) || sr.Segments != l.srv.current().snap.Segments() {
		l.t.Fatalf("step %d: stats = version %d, %d docs, %d segments (%v); want version %d, %d docs, %d segments",
			l.step, sr.CorpusVersion, sr.CorpusLen, sr.Segments, err, l.m.version, len(l.m.names), l.srv.current().snap.Segments())
	}
}

// restart closes the server, which waits for its merger, and starts another on
// the same directory with MergeMaxSegments drawn again. The replay must
// serve the newest committed version from a directory holding nothing but
// what its versions name, and its layout must compact with no publish.
func (l *lifecycle) restart() {
	if l.srv != nil {
		l.srv.Close()
	}
	l.cfg.MergeMaxSegments = 1 + l.rng.Intn(3)
	if l.durable {
		st, err := snapstore.Open(l.dir, modelRetain)
		if err != nil {
			l.t.Fatal(err)
		}
		l.cfg.Store = st
	}
	l.srv = NewServer(l.cfg)
	l.t.Cleanup(l.srv.Close)
	l.h = l.srv.Handler()
	if l.m.minted > 0 {
		l.m.serve(l.m.minted)
		assertOnlyLiveFiles(l.t, l.cfg.Store)
	}
	if info := l.srv.Replay(); info.Version != l.m.version || info.Docs != len(l.m.names) || len(info.Skipped) != 0 || info.Err != nil {
		l.t.Fatalf("step %d: restart replayed %+v, want version %d with %d docs", l.step, info, l.m.version, len(l.m.names))
	}
	l.settle()
}

// check holds the served state to the model after every step: the store
// holds exactly the versions the sweep has left, and every audited verdict
// is bit for bit that of a one-segment rebuild of the model's documents,
// at the model's version. The check audits a few texts and the last
// check's again, as a batch, then re-asks each as a batch and alone: a
// text answers cached:true exactly when this server audited it at this
// version, so the first audit after a version change or a restart is
// never cached, a re-asked one always is, and a verdict remembered before
// a merge swapped the layout at the same version names its document from
// the merged snapshot.
func (l *lifecycle) check() {
	l.t.Helper()
	if l.durable {
		var want []uint64
		for v := l.oldest; v <= l.m.minted; v++ {
			want = append(want, v)
		}
		if got, err := l.cfg.Store.Versions(); err != nil || !slices.Equal(got, want) {
			l.t.Fatalf("step %d: the store holds versions %v (%v), want %v", l.step, got, err, want)
		}
	}
	queries := []string{"module novel(input clk); endmodule"}
	if l.removed != "" {
		queries = append(queries, l.removed)
	}
	for i := 0; i < 3 && i < len(l.m.texts); i++ {
		queries = append(queries, l.m.texts[l.rng.Intn(len(l.m.texts))])
	}
	queries, l.asked = append(queries, l.asked...), queries
	if l.memoSrv != l.srv || l.memoVer != l.m.version {
		l.memo, l.memoSrv, l.memoVer = map[string]bool{}, l.srv, l.m.version
	} else if len(l.memo) > 0 && l.srv.current().snap != l.memoSnap {
		l.merged++
	}
	cached := make([]bool, len(queries))
	for i, q := range queries {
		cached[i] = l.memo[q]
	}
	offline := similarity.SealCorpus(l.m.names, l.m.texts, 1)
	l.auditBatch("audit", queries, cached, offline)
	for i, q := range queries {
		l.memo[q], cached[i] = true, true
	}
	l.memoSnap = l.srv.current().snap
	l.auditBatch("re-asked audit", queries, cached, offline)
	for _, q := range queries {
		var resp AuditResponse
		if code := postJSON(l.t, l.h, "/v1/audit", AuditRequest{Code: q}, &resp); code != http.StatusOK || resp.CorpusVersion != l.m.version || resp.CorpusLen != len(l.m.names) {
			l.t.Fatalf("step %d: single audit = %d at version %d with %d docs, model has version %d with %d",
				l.step, code, resp.CorpusVersion, resp.CorpusLen, l.m.version, len(l.m.names))
		}
		l.judgeAudit("re-asked single audit", q, resp.Best, resp.Cached, true, offline)
	}
}

// auditBatch audits queries as one /v1/audit/batch and judges each result.
func (l *lifecycle) auditBatch(what string, queries []string, cached []bool, offline *similarity.Snapshot) {
	l.t.Helper()
	req := AuditBatchRequest{}
	for _, q := range queries {
		req.Candidates = append(req.Candidates, AuditBatchCandidate{Code: q})
	}
	var resp AuditBatchResponse
	if code := postJSON(l.t, l.h, "/v1/audit/batch", req, &resp); code != http.StatusOK || resp.CorpusVersion != l.m.version || resp.CorpusLen != len(l.m.names) {
		l.t.Fatalf("step %d: %s = %d at version %d with %d docs, model has version %d with %d",
			l.step, what, code, resp.CorpusVersion, resp.CorpusLen, l.m.version, len(l.m.names))
	}
	for i, q := range queries {
		l.judgeAudit(what, q, resp.Results[i].Best, resp.Results[i].Cached, cached[i], offline)
	}
}

// judgeAudit fails unless a served verdict is the offline rebuild's, name
// included, and answered from the memo exactly when the model says.
func (l *lifecycle) judgeAudit(what, q string, b *AuditMatch, cached, wantCached bool, offline *similarity.Snapshot) {
	l.t.Helper()
	got := similarity.Match{Index: -1}
	if b != nil {
		got = similarity.Match{Name: b.Name, Index: b.Index, Score: b.Score}
	}
	if want := offline.Best(q); got != want || cached != wantCached {
		l.t.Fatalf("step %d: %s served %+v (cached %v) != model %+v (cached %v)", l.step, what, got, cached, want, wantCached)
	}
}

// A real Server — its handler, its merger goroutine, its snapshot store —
// driven by a seeded sequence of /v1/corpus requests (replace and delta as
// JSON or NDJSON, If-Version hit, miss and malformed, ?version= rollback,
// malformed requests), settle steps that wait for the merger, restarts on
// the same directory with the merge bound drawn again, and a schedule of
// faults, agrees after every step with publisherModel: every status and
// error code is the one the model predicts, versions rise by one per
// publish and a committed crash is never minted again, a refused or crashed
// request moves nothing live, the store holds the versions the sweep has
// left, a restart finds only files a version names, a settled layout is at
// the merge policy's fixed point, and every verdict is the offline
// rebuild's. Every fifth step fires the next of the seed's faults: the
// seeds split faultCells between them, and each fails unless all of its
// share fired.
func TestPublisherAgainstModel(t *testing.T) {
	const steps, seeds = 80, 3
	for _, durable := range []bool{false, true} {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("durable=%v/seed=%d", durable, seed), func(t *testing.T) {
				defer failpoint.DisableAll()
				l := &lifecycle{t: t, rng: rand.New(rand.NewSource(seed)), seed: seed, durable: durable, dir: t.TempDir(),
					oldest: 1, m: publisherModel{history: map[uint64][2][]string{}}}
				l.cfg = DefaultConfig()
				l.cfg.MergeDeadFraction = 0.5
				l.restart()
				var mine []fault
				for i, c := range faultCells(t, durable) {
					if i%seeds == int(seed-1) {
						mine = append(mine, c)
					}
				}
				fired := 0
				for l.step = 0; l.step < steps; l.step++ {
					ifVersion, miss := l.precondition()
					var f *fault
					if l.step%5 == 4 && fired < len(mine) {
						f, fired = &mine[fired], fired+1
					}
					switch op := l.rng.Intn(10); {
					case l.step == 0: // start from a non-empty corpus
						l.publish(false, 2+l.rng.Intn(6), "", false, nil)
					case f != nil && f.fp == FPMergeSwap:
						l.mergeFault(f.mode)
					case f != nil && f.fp == FPRollbackLoad:
						l.race()
					case f != nil:
						if miss {
							ifVersion = ""
						}
						l.publish(f.delta, 1+l.rng.Intn(4), ifVersion, false, f)
					case l.mustCommit || op <= 5:
						if l.mustCommit && miss {
							ifVersion, miss = "", false
						}
						if op <= 1 {
							l.publish(false, 2+l.rng.Intn(6), ifVersion, miss, nil)
						} else {
							l.publish(true, l.rng.Intn(4), ifVersion, miss, nil)
						}
					case op <= 7: // a swept or never-published target, or a retained one
						l.rollback(l.oldest-1+uint64(l.rng.Intn(int(l.m.minted-l.oldest)+3)), ifVersion, miss)
					case op == 8:
						l.settle()
					default:
						m := malformedUploads[l.rng.Intn(len(malformedUploads))]
						l.expectErr("malformed upload", corpusCall(l.h, m.target, "application/json", m.ifVersion, []byte(m.body)), http.StatusBadRequest, m.code)
					}
					if l.durable && l.step%6 == 5 {
						l.restart()
					}
					l.check()
				}
				if fired < len(mine) || l.m.minted < 20 {
					t.Fatalf("%d of %d faults fired, %d versions minted: the sequence is not exercising the server", fired, len(mine), l.m.minted)
				}
			})
		}
	}
}
